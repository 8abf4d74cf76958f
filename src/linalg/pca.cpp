#include "linalg/pca.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "linalg/eigen_sym.h"
#include "linalg/subspace_iteration.h"
#include "simd/simd.h"
#include "util/thread_pool.h"

namespace dpz {

namespace {

// Left-to-right row sum over n: every fit's feature mean. Rows are
// independent, so callers compute them inside their parallel row loop.
double row_mean(std::span<const double> row) {
  double sum = 0.0;
  for (const double v : row) sum += v;
  return sum / static_cast<double>(row.size());
}

}  // namespace

std::vector<double> PcaModel::tve_curve() const {
  const std::size_t m = eigenvalues.size();
  std::vector<double> tve(m, 1.0);
  double total = 0.0;
  for (const double l : eigenvalues) total += l;
  if (total <= 0.0) return tve;  // degenerate (constant data): all-ones
  double acc = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    acc += eigenvalues[i];
    tve[i] = acc / total;
  }
  tve[m - 1] = 1.0;  // guard against rounding drift
  return tve;
}

std::size_t PcaModel::k_for_tve(double threshold) const {
  DPZ_REQUIRE(threshold > 0.0 && threshold <= 1.0,
              "TVE threshold must be in (0, 1]");
  const std::vector<double> tve = tve_curve();
  for (std::size_t k = 0; k < tve.size(); ++k)
    if (tve[k] >= threshold) return k + 1;
  return tve.size();
}

Matrix PcaModel::transform(const Matrix& x, std::size_t k) const {
  const std::size_t m = feature_count();
  DPZ_REQUIRE(x.rows() == m, "PCA transform feature-count mismatch");
  DPZ_REQUIRE(k >= 1 && k <= m, "k must be in [1, M]");
  const std::size_t n = x.cols();
  const simd::KernelTable& ops = simd::kernels();

  // Row tiles keep a slab of x cache-resident while every component
  // accumulates from it; untiled, each of the k components re-streams
  // the whole M x N matrix from memory. Each component still sums its
  // rows in ascending-i order, so the scores are bit-identical to the
  // untiled loop and independent of the thread count.
  Matrix scores(k, n);
  constexpr std::size_t kTileRows = 64;
  for (std::size_t i0 = 0; i0 < m; i0 += kTileRows) {
    const std::size_t i1 = std::min(m, i0 + kTileRows);
    parallel_for(0, k, [&](std::size_t j) {
      double* out = scores.row(j).data();
      for (std::size_t i = i0; i < i1; ++i) {
        const double d = components(i, j) / scale[i];
        if (d == 0.0) continue;
        ops.accum_centered(d, x.row(i).data(), mean[i], out, n);
      }
    });
  }
  return scores;
}

Matrix PcaModel::inverse_transform(const Matrix& scores) const {
  const std::size_t m = feature_count();
  const std::size_t k = scores.rows();
  DPZ_REQUIRE(k >= 1 && k <= m, "score rank must be in [1, M]");
  const std::size_t n = scores.cols();
  const simd::KernelTable& ops = simd::kernels();

  Matrix x(m, n);
  parallel_for(0, m, [&](std::size_t i) {
    double* out = x.row(i).data();
    for (std::size_t j = 0; j < k; ++j) {
      const double d = components(i, j);
      if (d == 0.0) continue;
      ops.axpy(d, scores.row(j).data(), out, n);
    }
    ops.scale_shift(scale[i], mean[i], out, n);
  });
  return x;
}

Matrix covariance(const Matrix& x) {
  const std::size_t m = x.rows();
  const std::size_t n = x.cols();
  DPZ_REQUIRE(n >= 1, "covariance needs at least one sample");
  const simd::KernelTable& ops = simd::kernels();

  // Center once up front so the O(m^2 n) pair loop runs plain dots
  // instead of re-subtracting the means per element. (x - mu) * 1.0 is
  // exact for every double, and dot and dot_centered share the same
  // sixteen-lane reduction tree, so this is bit-identical to the fused
  // form.
  Matrix centered(m, n);
  parallel_for(0, m, [&](std::size_t i) {
    ops.center_scale(x.row(i).data(), row_mean(x.row(i)), 1.0,
                     centered.row(i).data(), n);
  });

  // The upper triangle as square tiles (ti <= tj), each filled by 2 x 4
  // dot blocks whose rows a tile pair keeps hot in L2. Every entry
  // (i <= j) is still ops.dot(row i, row j) / n, and i <= j is stored to
  // both halves, so the result is bit-identical to the row-at-a-time loop
  // whatever the schedule. Tiles are dealt round-robin to one group per
  // participant: a contiguous split of the triangle would hand the wide
  // top rows to the first participant.
  constexpr std::size_t kTile = 32;
  const std::size_t tiles = (m + kTile - 1) / kTile;
  const std::size_t groups = std::min<std::size_t>(
      PoolScope::current().thread_count(), tiles * (tiles + 1) / 2);

  Matrix cov(m, m);
  const auto fill_tile = [&](std::size_t ti, std::size_t tj) {
    const std::size_t i_end = std::min(m, (ti + 1) * kTile);
    const std::size_t j_end = std::min(m, (tj + 1) * kTile);
    // Past a tile's last row the block repeats that row; the extra
    // results are discarded.
    const auto row = [&](std::size_t r, std::size_t end) {
      return centered.row(std::min(r, end - 1)).data();
    };
    double out[8];
    for (std::size_t i = ti * kTile; i < i_end; i += 2) {
      const double* xs[2] = {row(i, i_end), row(i + 1, i_end)};
      for (std::size_t j = tj * kTile; j < j_end; j += 4) {
        if (j + 3 < i) continue;  // block wholly below the diagonal
        const double* ys[4] = {row(j, j_end), row(j + 1, j_end),
                               row(j + 2, j_end), row(j + 3, j_end)};
        ops.dot_2x4(xs, ys, n, out);
        for (std::size_t r = 0; r < 2 && i + r < i_end; ++r)
          for (std::size_t c = 0; c < 4 && j + c < j_end; ++c)
            if (i + r <= j + c)
              cov(i + r, j + c) = cov(j + c, i + r) =
                  out[4 * r + c] / static_cast<double>(n);
      }
    }
  };
  parallel_for(0, groups, [&](std::size_t g) {
    std::size_t pair = 0;
    for (std::size_t ti = 0; ti < tiles; ++ti)
      for (std::size_t tj = ti; tj < tiles; ++tj)
        if (pair++ % groups == g) fill_tile(ti, tj);
  });
  return cov;
}

namespace {

// Fills mean/scale and returns the centered (optionally standardized)
// working copy shared by the full and truncated fits.
Matrix prepare_centered(const Matrix& x, bool standardize, PcaModel& model) {
  const std::size_t m = x.rows();
  const std::size_t n = x.cols();
  DPZ_REQUIRE(n >= 2, "PCA needs at least two samples per feature");
  const simd::KernelTable& ops = simd::kernels();

  model.mean.resize(m);
  model.scale.assign(m, 1.0);
  Matrix centered(m, n);
  parallel_for(0, m, [&](std::size_t i) {
    const double* row = x.row(i).data();
    const double mu = model.mean[i] = row_mean(x.row(i));
    if (standardize) {
      const double var =
          ops.dot_centered(row, mu, row, mu, n) / static_cast<double>(n);
      if (var > 0.0) model.scale[i] = std::sqrt(var);
    }
    ops.center_scale(row, mu, 1.0 / model.scale[i], centered.row(i).data(),
                     n);
  });
  return centered;
}

}  // namespace

PcaModel fit_pca(const Matrix& x, bool standardize) {
  PcaModel model;
  const Matrix centered = prepare_centered(x, standardize, model);

  // Covariance of the prepared matrix (means are now ~0, but recompute to
  // stay exact) and its eigendecomposition.
  const Matrix cov = covariance(centered);
  SymmetricEigen eig = eigen_sym(cov);

  for (double& v : eig.values)
    if (v < 0.0) v = 0.0;  // clamp tiny negative rounding residue
  model.eigenvalues = std::move(eig.values);
  model.components = std::move(eig.vectors);
  return model;
}

PcaModel fit_pca_topk(const Matrix& x, std::size_t k, bool standardize) {
  DPZ_REQUIRE(k >= 1 && k <= x.rows(), "k must be in [1, M]");
  PcaModel model;
  const Matrix centered = prepare_centered(x, standardize, model);
  const Matrix cov = covariance(centered);
  SymmetricEigen eig = eigen_sym_topk(cov, k);

  for (double& v : eig.values)
    if (v < 0.0) v = 0.0;
  model.eigenvalues = std::move(eig.values);
  model.components = std::move(eig.vectors);
  return model;
}

PcaSpectrum fit_pca_spectrum(const Matrix& x, bool standardize) {
  PcaSpectrum spec;
  const Matrix centered = prepare_centered(x, standardize, spec.model);
  spec.cov = covariance(centered);
  spec.tridiag = tridiagonalize(spec.cov);
  spec.model.eigenvalues = eigen_values_from(spec.tridiag);
  for (double& v : spec.model.eigenvalues)
    if (v < 0.0) v = 0.0;  // clamp tiny negative rounding residue
  return spec;
}

PcaModel attach_top_components(PcaSpectrum&& spec, std::size_t k) {
  const std::size_t m = spec.cov.rows();
  DPZ_REQUIRE(k >= 1 && k <= m, "k must be in [1, M]");
  PcaModel model = std::move(spec.model);
  // Keep the full values-only spectrum (already clamped): it drove the
  // TVE-based k choice and stays exact for the whole curve, while the
  // solve below contributes only the vectors.
  //
  // Small or near-full-rank problems take the dense QL accumulation: at
  // these sizes it costs about the same as k rounds of inverse iteration
  // and its vectors carry none of the inverse-iteration restart
  // machinery. Large skinny problems (the Stage-2 hot path) switch to
  // inverse iteration on the cached tridiagonal: O(M^2 k) with the
  // reduction already paid for, versus O(M^3) for the dense
  // accumulation.
  if (m <= 64 || 2 * k >= m) {
    SymmetricEigen eig = eigen_sym_from(spec.tridiag);
    model.components = Matrix(m, k);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < k; ++j)
        model.components(i, j) = eig.vectors(i, j);
    return model;
  }
  // The shifts are the spectrum's leading k values, which fit_pca_spectrum
  // already solved. Clamping leaves a positive value exact, so only a k
  // that reaches the clamped tail (beyond the numerical rank, or constant
  // data) re-solves the values to recover the residue the clamp hid.
  const std::vector<double>& values = model.eigenvalues;
  SymmetricEigen eig =
      values.size() >= k && values[k - 1] > 0.0
          ? eigen_topk_from(spec.tridiag, values, k)
          : eigen_topk_from(spec.tridiag, eigen_values_from(spec.tridiag), k);
  model.components = std::move(eig.vectors);
  return model;
}

}  // namespace dpz
