// Symmetric eigendecomposition (the numerical heart of Stage 2).
//
// DPZ acquires its PCA projection by eigenanalysis of the M x M covariance
// matrix of block-DCT coefficients (Eq. 3-5 in the paper). We provide two
// solvers:
//  * eigen_sym        — Householder tridiagonalization followed by the
//                       implicit-shift QL iteration: O(n^3) with a small
//                       constant, the production path;
//  * eigen_sym_jacobi — cyclic Jacobi rotations: slower but transparently
//                       correct, kept as the cross-validation oracle.
// Both return eigenvalues sorted descending (PCA convention: the first
// component explains the most variance) with matching eigenvector columns.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace dpz {

struct SymmetricEigen {
  /// Eigenvalues sorted descending.
  std::vector<double> values;
  /// Orthonormal eigenvectors; column j corresponds to values[j].
  Matrix vectors;
};

/// The Householder reduction of a symmetric matrix to tridiagonal form.
/// This is the O(n^3) half of both eigensolves; keeping it around lets a
/// caller pay for it once, read the eigenvalues (cheap QL recurrence on
/// diag/subdiag), and only later decide whether the eigenvectors are
/// worth accumulating — exactly the shape of Stage 2's k-selection.
struct TridiagonalReduction {
  Matrix reflectors;            ///< rows = scaled Householder vectors
  std::vector<double> diag;     ///< tridiagonal diagonal
  std::vector<double> subdiag;  ///< subdiagonal; subdiag[0] == 0
  std::vector<double> norm2;    ///< squared reflector norms (0 = skipped)
};

/// Householder reduction of `a` (symmetric; only the lower triangle is
/// read) to tridiagonal form.
TridiagonalReduction tridiagonalize(const Matrix& a);

/// Eigenvalues of a reduced matrix, sorted descending (values-only QL
/// recurrence — no orthogonal-transform accumulation).
std::vector<double> eigen_values_from(const TridiagonalReduction& r);

/// Full eigenpairs of a reduced matrix: accumulates the Householder
/// transform, runs QL with rotations, sorts descending. Together with
/// tridiagonalize this IS eigen_sym, split so the reduction can be
/// shared with a preceding eigen_values_from call.
SymmetricEigen eigen_sym_from(const TridiagonalReduction& r);

/// The k leading eigenpairs of a reduced matrix. `values` holds at least
/// the first k entries of eigen_values_from(r), unclamped: they are the
/// inverse-iteration shifts and the returned values, so the caller's
/// spectrum is reused instead of running the QL recurrence again. Vectors come from inverse
/// iteration on the tridiagonal (each a handful of O(M) band solves)
/// followed by one Householder back-transform per vector, the vectors
/// split across the active pool. Deterministic — fixed start vectors,
/// fixed iteration counts, every vector sees the reflectors in the same
/// order at any thread count — and O(M^2 k) total, which beats both the
/// dense accumulation (O(M^3)) and subspace iteration on the original
/// matrix (O(M^2 b) PER SWEEP) whenever the reduction is already paid
/// for. Vectors are re-orthonormalized, so clustered eigenvalues yield
/// an orthonormal basis of the cluster's eigenspace rather than k
/// copies of one direction.
SymmetricEigen eigen_topk_from(const TridiagonalReduction& r,
                               std::span<const double> values,
                               std::size_t k);

/// Householder + implicit-shift QL. `a` must be symmetric (only the lower
/// triangle is read). Throws NumericalError if the QL sweep fails to
/// converge (pathological only; the iteration cap is generous).
SymmetricEigen eigen_sym(const Matrix& a);

/// Eigenvalues only, sorted descending: Householder reduction without
/// orthogonal-transform accumulation followed by the values-only QL
/// recurrence. Roughly 3x cheaper than eigen_sym — the fast path for
/// k-selection over the full TVE curve before solving for just the top-k
/// eigenvectors (eigen_sym_topk).
std::vector<double> eigen_sym_values(const Matrix& a);

/// Cyclic Jacobi reference solver (O(n^3) per sweep, ~6-10 sweeps).
SymmetricEigen eigen_sym_jacobi(const Matrix& a);

}  // namespace dpz
