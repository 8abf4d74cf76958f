// Unit and property tests for PCA: covariance correctness, variance
// capture on constructed low-rank data, exact reconstruction at full rank,
// TVE-curve semantics, the DCT-domain identity from SS III-B2 (Eq. 4-6),
// and the truncated fit against the dense one.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "dsp/dct.h"
#include "linalg/eigen_sym.h"
#include "linalg/pca.h"
#include "simd/simd.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dpz {
namespace {

// M x N data with exactly `rank` independent directions plus tiny noise.
Matrix low_rank_data(std::size_t m, std::size_t n, std::size_t rank,
                     std::uint64_t seed, double noise = 1e-6) {
  Rng rng(seed);
  Matrix basis(m, rank);
  for (double& v : basis.flat()) v = rng.normal();
  Matrix weights(rank, n);
  for (double& v : weights.flat()) v = rng.normal();
  Matrix x = basis.multiply(weights);
  for (double& v : x.flat()) v += noise * rng.normal();
  return x;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(Covariance, MatchesHandComputed) {
  // Two features, three samples.
  const Matrix x(2, 3, {1, 2, 3, 2, 4, 6});
  const Matrix cov = covariance(x);
  // var(f1) = 2/3, var(f2) = 8/3, cov = 4/3 (population).
  EXPECT_NEAR(cov(0, 0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(cov(1, 1), 8.0 / 3.0, 1e-12);
  EXPECT_NEAR(cov(0, 1), 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(cov(1, 0), 4.0 / 3.0, 1e-12);
}

TEST(Covariance, SymmetricByConstruction) {
  Rng rng(1);
  Matrix x(6, 40);
  for (double& v : x.flat()) v = rng.normal();
  const Matrix cov = covariance(x);
  EXPECT_LT(cov.max_abs_diff(cov.transposed()), 1e-14);
}

// The tiled covariance is a schedule, not a new sum: every entry must be
// bit-identical to ops.dot(row i, row j) / n over the centered rows for
// any M (partial tiles, padded 2 x 4 blocks) and any thread count (even
// and uneven round-robin deals of the tiles).
TEST(Covariance, BitIdenticalToRowDotsAtAnyThreadCount) {
  const simd::KernelTable& ops = simd::kernels();
  const std::size_t n = 100;  // six sixteen-lane blocks plus a tail
  for (const std::size_t m : {1, 2, 3, 5, 33, 65, 130}) {
    Rng rng(m);
    Matrix x(m, n);
    for (double& v : x.flat()) v = 2.0 + rng.normal();
    Matrix centered(m, n);
    for (std::size_t i = 0; i < m; ++i) {
      double sum = 0.0;
      for (const double v : x.row(i)) sum += v;
      ops.center_scale(x.row(i).data(), sum / static_cast<double>(n), 1.0,
                       centered.row(i).data(), n);
    }
    for (const unsigned threads : {1U, 2U, 3U, 8U}) {
      const ScopedThreads pool(threads);
      const Matrix cov = covariance(x);
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < m; ++j) {
          const double expect =
              ops.dot(centered.row(std::min(i, j)).data(),
                      centered.row(std::max(i, j)).data(), n) /
              static_cast<double>(n);
          if (!same_bits(cov(i, j), expect)) ++mismatches;
        }
      EXPECT_EQ(mismatches, 0U) << "m=" << m << " threads=" << threads;
    }
  }
}

TEST(Pca, EigenvalueSumEqualsTotalVariance) {
  Rng rng(2);
  Matrix x(8, 100);
  for (double& v : x.flat()) v = rng.normal();
  const PcaModel model = fit_pca(x);
  const Matrix cov = covariance(x);
  double trace = 0.0, sum = 0.0;
  for (std::size_t i = 0; i < 8; ++i) trace += cov(i, i);
  for (const double l : model.eigenvalues) sum += l;
  EXPECT_NEAR(trace, sum, 1e-9);
}

TEST(Pca, LowRankDataNeedsFewComponents) {
  const Matrix x = low_rank_data(20, 300, 3, 7);
  const PcaModel model = fit_pca(x);
  // Rank-3 data: three components explain essentially everything.
  EXPECT_EQ(model.k_for_tve(0.999), 3U);
  const std::vector<double> tve = model.tve_curve();
  EXPECT_GT(tve[2], 0.99999);
}

TEST(Pca, FullRankRoundTripIsExact) {
  Rng rng(3);
  Matrix x(6, 50);
  for (double& v : x.flat()) v = rng.normal();
  const PcaModel model = fit_pca(x);
  const Matrix scores = model.transform(x, 6);
  const Matrix back = model.inverse_transform(scores);
  EXPECT_LT(back.max_abs_diff(x), 1e-9);
}

TEST(Pca, TruncatedReconstructionErrorMatchesDiscardedVariance) {
  const std::size_t m = 10, n = 400, k = 4;
  Rng rng(4);
  Matrix x(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    const double s = std::pow(0.4, static_cast<double>(i));
    for (std::size_t c = 0; c < n; ++c) x(i, c) = s * rng.normal();
  }
  const PcaModel model = fit_pca(x);
  const Matrix back = model.inverse_transform(model.transform(x, k));
  double err = 0.0;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t c = 0; c < n; ++c) {
      const double d = back(i, c) - x(i, c);
      err += d * d;
    }
  err /= static_cast<double>(n);
  double tail = 0.0;
  for (std::size_t j = k; j < m; ++j) tail += model.eigenvalues[j];
  // MSE (summed over features) equals the discarded eigenvalue mass.
  EXPECT_NEAR(err, tail, 1e-6 * std::max(1.0, tail));
}

TEST(Pca, TveCurveIsMonotonicAndEndsAtOne) {
  const Matrix x = low_rank_data(12, 80, 5, 8, 1e-3);
  const PcaModel model = fit_pca(x);
  const std::vector<double> tve = model.tve_curve();
  for (std::size_t i = 1; i < tve.size(); ++i)
    EXPECT_GE(tve[i] + 1e-15, tve[i - 1]);
  EXPECT_DOUBLE_EQ(tve.back(), 1.0);
}

TEST(Pca, ConstantDataDegeneratesGracefully) {
  Matrix x(4, 30);
  for (double& v : x.flat()) v = 2.5;
  const PcaModel model = fit_pca(x);
  EXPECT_EQ(model.k_for_tve(0.999), 1U);
  const Matrix back = model.inverse_transform(model.transform(x, 1));
  EXPECT_LT(back.max_abs_diff(x), 1e-12);
}

TEST(Pca, StandardizationEqualizesFeatureWeight) {
  // One feature has 100x the scale; standardized PCA should not let it
  // dominate the first component the way raw PCA does.
  const std::size_t n = 500;
  Rng rng(5);
  Matrix x(3, n);
  for (std::size_t c = 0; c < n; ++c) {
    x(0, c) = 100.0 * rng.normal();
    x(1, c) = rng.normal();
    x(2, c) = rng.normal();
  }
  const PcaModel raw = fit_pca(x, false);
  const PcaModel std_model = fit_pca(x, true);
  // Raw: first component aligned almost entirely with feature 0.
  EXPECT_GT(std::abs(raw.components(0, 0)), 0.99);
  // Standardized: eigenvalues near 1 each (uncorrelated unit features).
  EXPECT_LT(std_model.eigenvalues[0], 1.5);
  EXPECT_GT(std_model.eigenvalues[2], 0.5);
}

TEST(Pca, KForTveBoundaries) {
  const Matrix x = low_rank_data(10, 60, 2, 9);
  const PcaModel model = fit_pca(x);
  EXPECT_EQ(model.k_for_tve(1e-9), 1U);
  EXPECT_THROW((void)model.k_for_tve(0.0), InvalidArgument);
  EXPECT_THROW((void)model.k_for_tve(1.1), InvalidArgument);
  EXPECT_LE(model.k_for_tve(1.0), 10U);
}

TEST(Pca, TransformRejectsBadK) {
  Rng rng(10);
  Matrix x(5, 20);
  for (double& v : x.flat()) v = rng.normal();
  const PcaModel model = fit_pca(x);
  EXPECT_THROW(model.transform(x, 0), InvalidArgument);
  EXPECT_THROW(model.transform(x, 6), InvalidArgument);
}

// The paper's Eq. 4-6: covariance in the DCT domain is A^T V_X A, so PCA
// can be done directly on DCT coefficients and the eigenvalues coincide.
TEST(Pca, DctDomainEigenvaluesMatchSpatialDomain) {
  const std::size_t m = 16, n = 200;
  Rng rng(11);
  Matrix x(m, n);
  // Correlated features: smooth profiles + noise.
  for (std::size_t c = 0; c < n; ++c) {
    const double phase = rng.uniform(0.0, 6.28);
    for (std::size_t i = 0; i < m; ++i)
      x(i, c) = std::sin(0.3 * static_cast<double>(i) + phase) +
                0.1 * rng.normal();
  }

  // DCT along the feature axis (each column transformed).
  const DctPlan plan(m);
  Matrix z(m, n);
  std::vector<double> col(m), out(m);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t i = 0; i < m; ++i) col[i] = x(i, c);
    plan.forward(col, out);
    for (std::size_t i = 0; i < m; ++i) z(i, c) = out[i];
  }

  const PcaModel spatial = fit_pca(x);
  const PcaModel dct_domain = fit_pca(z);
  for (std::size_t j = 0; j < m; ++j)
    EXPECT_NEAR(spatial.eigenvalues[j], dct_domain.eigenvalues[j],
                1e-8 * std::max(1.0, spatial.eigenvalues[0]))
        << "eigenvalue " << j;
}

// ---- Spectrum-first fit --------------------------------------------------

// The values-only QL recurrence is the full solve's d/e recurrence without
// the rotations, so the spectrum fit (Algorithm-2 sampling's k selection)
// must report the full fit's eigenvalues bit for bit.
TEST(PcaSpectrum, EigenvaluesBitIdenticalToFullFit) {
  Matrix x = low_rank_data(70, 300, 9, 21, 1e-3);
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (double& v : x.row(i)) v *= 1.0 + static_cast<double>(i % 7);
  for (const bool standardize : {false, true}) {
    const PcaModel full = fit_pca(x, standardize);
    const PcaSpectrum spec = fit_pca_spectrum(x, standardize);
    ASSERT_EQ(spec.model.eigenvalues.size(), full.eigenvalues.size());
    for (std::size_t i = 0; i < full.eigenvalues.size(); ++i)
      EXPECT_TRUE(same_bits(spec.model.eigenvalues[i], full.eigenvalues[i]))
          << "standardize=" << standardize << " eigenvalue " << i;
  }
}

// attach_top_components takes its inverse-iteration shifts from the
// spectrum fit_pca_spectrum already solved and clamped. The basis must be
// bit-identical to a solve from freshly computed, unclamped values — on
// a fitted full-rank field, and on a rank-3 covariance whose null space
// came out as tiny negative eigenvalues, where k reaches into the values
// the clamp zeroed and their negative residue is the shift.
TEST(PcaSpectrum, AttachMatchesFreshlySolvedShifts) {
  const std::size_t m = 100;
  Rng rng(31);
  Matrix sym(m, m);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j <= i; ++j) sym(i, j) = sym(j, i) = rng.normal();
  const Matrix basis = eigen_sym(sym).vectors;
  Matrix rank3(m, m);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j) {
      double sum = 0.0;
      for (std::size_t c = 0; c < m; ++c) {
        const double d = c < 3 ? 4.0 / static_cast<double>(c + 1)
                               : -1e-12 * static_cast<double>(c);
        sum += basis(i, c) * d * basis(j, c);
      }
      rank3(i, j) = sum;
    }
  PcaSpectrum clamped;
  clamped.cov = rank3;
  clamped.tridiag = tridiagonalize(rank3);
  clamped.model.eigenvalues = eigen_values_from(clamped.tridiag);
  for (double& v : clamped.model.eigenvalues) v = std::max(v, 0.0);

  struct Case {
    PcaSpectrum spec;
    std::size_t k;
    bool clamp_applies;
  };
  Case cases[] = {{fit_pca_spectrum(low_rank_data(m, 400, m, 32)), 20, false},
                  {std::move(clamped), 10, true}};
  for (Case& c : cases) {
    const std::vector<double> fresh = eigen_values_from(c.spec.tridiag);
    ASSERT_EQ(fresh[c.k - 1] < 0.0, c.clamp_applies) << "k=" << c.k;
    const SymmetricEigen expect =
        eigen_topk_from(c.spec.tridiag, fresh, c.k);
    const PcaModel model = attach_top_components(std::move(c.spec), c.k);
    ASSERT_EQ(model.components.rows(), expect.vectors.rows());
    ASSERT_EQ(model.components.cols(), expect.vectors.cols());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < model.components.flat().size(); ++i)
      if (!same_bits(model.components.flat()[i], expect.vectors.flat()[i]))
        ++mismatches;
    EXPECT_EQ(mismatches, 0U) << "k=" << c.k;
  }
}

// ---- Truncated fit -------------------------------------------------------

TEST(PcaTopK, MatchesFullFitOnLeadingComponents) {
  const Matrix x = low_rank_data(80, 400, 6, 12, 1e-4);
  const PcaModel full = fit_pca(x);
  const PcaModel topk = fit_pca_topk(x, 6);
  ASSERT_EQ(topk.eigenvalues.size(), 6U);
  for (std::size_t j = 0; j < 6; ++j)
    EXPECT_NEAR(topk.eigenvalues[j], full.eigenvalues[j],
                1e-5 * std::max(1.0, full.eigenvalues[0]));
}

TEST(PcaTopK, ReconstructionMatchesFullFit) {
  const Matrix x = low_rank_data(60, 300, 4, 13, 1e-5);
  const PcaModel full = fit_pca(x);
  const PcaModel topk = fit_pca_topk(x, 4);
  const Matrix full_rec = full.inverse_transform(full.transform(x, 4));
  const Matrix topk_rec = topk.inverse_transform(topk.transform(x, 4));
  EXPECT_LT(full_rec.max_abs_diff(topk_rec), 1e-4);
}

}  // namespace
}  // namespace dpz
