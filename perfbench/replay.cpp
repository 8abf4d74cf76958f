#include "replay.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>

#include "codec/bytes.h"
#include "codec/zlib_codec.h"
#include "core/archive_detail.h"
#include "dsp/dct.h"
#include "ecc/reed_solomon.h"
#include "linalg/eigen_sym.h"
#include "linalg/pca.h"
#include "simd/simd.h"
#include "stats.h"
#include "util/crc32c.h"
#include "util/thread_pool.h"

namespace perfbench {

using dpz::ByteReader;
using dpz::ByteWriter;
using dpz::FloatArray;
using dpz::Matrix;
using dpz::PcaModel;

void LayerCounts::merge(const LayerCounts& o) {
  fits += o.fits;
  fit_k += o.fit_k;
  fit_k_over_m += o.fit_k_over_m;
  covariance_gflop += o.covariance_gflop;
  tridiagonalize_gflop += o.tridiagonalize_gflop;
  projects += o.projects;
  project_gflop += o.project_gflop;
  quantized += o.quantized;
  outliers += o.outliers;
  zlib_in += o.zlib_in;
  zlib_out += o.zlib_out;
  crc_bytes += o.crc_bytes;
  parity_bytes += o.parity_bytes;
  frame_payload_bytes += o.frame_payload_bytes;
}

std::vector<std::uint8_t> ReplayArchive::payload() const {
  std::vector<std::uint8_t> out;
  for (const auto& s : sections) out.insert(out.end(), s.begin(), s.end());
  return out;
}

namespace {

dpz::QuantizerConfig quantizer_of(const dpz::DpzConfig& config) {
  dpz::QuantizerConfig q;
  q.error_bound = config.effective_error_bound();
  q.wide_codes = config.effective_wide_codes();
  return q;
}

void require_replayable(const dpz::DpzConfig& config) {
  if (config.use_sampling || config.standardize > 0 || config.fixed_k != 0 ||
      config.selection != dpz::KSelectionMethod::kTveThreshold ||
      config.dct_keep_fraction != 1.0)
    throw std::invalid_argument(
        "replay covers the default DPZ pipeline only (TVE selection, no "
        "sampling, standardization, fixed k or DCT truncation)");
}

Matrix blocks_of(const FloatArray& data, dpz::BlockLayout& layout,
                 const SpanCtx& ctx) {
  const Span s(ctx, "core.blocking");
  layout = dpz::choose_block_layout(data.size());
  return dpz::to_blocks(std::span<const float>(data.flat()), layout);
}

void dct_rows(Matrix& blocks, const dpz::DctPlan& plan, bool forward) {
  dpz::parallel_for(0, blocks.rows(), [&](std::size_t i) {
    auto row = blocks.row(i);
    if (forward)
      plan.forward(row, row);
    else
      plan.inverse(row, row);
  });
}

// Stage 2 of dpz_compress and SharedBasisCodec::train, split at the
// calls fit_pca_spectrum + attach_top_components make: centering and
// covariance, Householder reduction, the values-only spectrum (plus the
// TVE k selection that reads it), and the top-k eigenvectors.
PcaModel fit_basis(const Matrix& blocks, const dpz::DpzConfig& config,
                   const SpanCtx& ctx, LayerCounts& counts, std::size_t& k) {
  const std::size_t m = blocks.rows();
  const std::size_t n = blocks.cols();
  dpz::PcaSpectrum spec;
  {
    const Span s(ctx, "linalg.covariance");
    const dpz::simd::KernelTable& ops = dpz::simd::kernels();
    spec.model.mean.resize(m);
    spec.model.scale.assign(m, 1.0);
    for (std::size_t i = 0; i < m; ++i) {
      double sum = 0.0;
      for (const double v : blocks.row(i)) sum += v;
      spec.model.mean[i] = sum / static_cast<double>(n);
    }
    Matrix centered(m, n);
    dpz::parallel_for(0, m, [&](std::size_t i) {
      ops.center_scale(blocks.row(i).data(), spec.model.mean[i],
                       1.0 / spec.model.scale[i], centered.row(i).data(), n);
    });
    spec.cov = dpz::covariance(centered);
  }
  {
    const Span s(ctx, "linalg.tridiagonalize");
    spec.tridiag = dpz::tridiagonalize(spec.cov);
  }
  {
    const Span s(ctx, "linalg.eigenvalues");
    spec.model.eigenvalues = dpz::eigen_values_from(spec.tridiag);
    for (double& v : spec.model.eigenvalues) v = std::max(v, 0.0);
    k = spec.model.k_for_tve(config.tve);
  }
  PcaModel model;
  {
    const Span s(ctx, "linalg.eigenvectors");
    model = dpz::attach_top_components(std::move(spec), k);
  }
  ++counts.fits;
  counts.fit_k += k;
  counts.fit_k_over_m += static_cast<double>(k) / static_cast<double>(m);
  counts.covariance_gflop += covariance_gflop(m, n);
  counts.tridiagonalize_gflop += tridiagonalize_gflop(m);
  return model;
}

// Quantizes scores already divided by `score_scale` and records counts.
dpz::QuantizedStream quantize_scores(const Matrix& scores,
                                     const dpz::QuantizerConfig& qcfg,
                                     LayerCounts& counts) {
  dpz::QuantizedStream qs = dpz::quantize(scores.flat(), qcfg);
  counts.quantized += qs.count;
  counts.outliers += qs.outliers.size();
  return qs;
}

// zlib stage: deflates each raw section at `level`.
void deflate_sections(ReplayArchive& a,
                      const std::vector<std::vector<std::uint8_t>>& raw,
                      int level, LayerCounts& counts) {
  for (const auto& r : raw) {
    a.raw_sizes.push_back(r.size());
    a.sections.push_back(dpz::zlib_compress(r, level));
    counts.zlib_in += r.size();
    counts.zlib_out += a.sections.back().size();
  }
}

void checksum_sections(ReplayArchive& a, const SpanCtx& ctx,
                       LayerCounts& counts) {
  const Span s(ctx, "util.crc32c");
  for (const auto& blob : a.sections) {
    a.crcs.push_back(dpz::crc32c(blob));
    counts.crc_bytes += blob.size();
  }
}

void verify_sections(const ReplayArchive& a, const SpanCtx& ctx,
                     LayerCounts& counts) {
  const Span s(ctx, "util.crc32c");
  for (std::size_t i = 0; i < a.sections.size(); ++i) {
    if (dpz::crc32c(a.sections[i]) != a.crcs[i])
      throw std::runtime_error("replayed section checksum mismatch");
    counts.crc_bytes += a.sections[i].size();
  }
}

std::vector<std::vector<std::uint8_t>> inflate_sections(
    const ReplayArchive& a) {
  std::vector<std::vector<std::uint8_t>> raw;
  for (std::size_t i = 0; i < a.sections.size(); ++i)
    raw.push_back(dpz::zlib_decompress(a.sections[i], a.raw_sizes[i]));
  return raw;
}

std::vector<std::uint8_t> outlier_bytes(const dpz::QuantizedStream& qs) {
  ByteWriter w;
  for (const double v : qs.outliers) w.put_f32(static_cast<float>(v));
  return w.take();
}

dpz::QuantizedStream stream_of(const ReplayArchive& a,
                               std::vector<std::uint8_t> codes,
                               const std::vector<std::uint8_t>& outliers) {
  dpz::QuantizedStream qs;
  qs.count = a.k * a.layout.n;
  qs.codes = std::move(codes);
  ByteReader r(outliers);
  qs.outliers.resize(a.outlier_count);
  for (double& v : qs.outliers) v = static_cast<double>(r.get_f32());
  return qs;
}

FloatArray unblock(const Matrix& blocks, const ReplayArchive& a,
                   const SpanCtx& ctx) {
  const Span s(ctx, "core.unblock");
  FloatArray out(a.shape);
  dpz::from_blocks(blocks, a.layout, out.flat());
  return out;
}

// Frame boundaries chunked_compress uses: one per full chunk, a tail
// below the 8-value pipeline minimum merged into the previous frame.
std::vector<std::size_t> chunk_starts(std::size_t total, std::size_t chunk) {
  std::vector<std::size_t> starts;
  for (std::size_t s = 0; s < total; s += chunk) starts.push_back(s);
  if (starts.size() > 1 && total - starts.back() < 8) starts.pop_back();
  return starts;
}

}  // namespace

ReplayArchive replay_dpz_compress(const FloatArray& data,
                                  const dpz::DpzConfig& config,
                                  const SpanCtx& ctx, LayerCounts& counts) {
  require_replayable(config);
  ReplayArchive a;
  a.shape = data.shape();
  a.qcfg = quantizer_of(config);
  Matrix blocks = blocks_of(data, a.layout, ctx);
  {
    const Span s(ctx, "dsp.dct_forward");
    const dpz::DctPlan plan(a.layout.n);
    dct_rows(blocks, plan, true);
  }
  PcaModel model;
  {
    const Span s(ctx, "core.basis_train");
    model = fit_basis(blocks, config, s.child(), counts, a.k);
  }
  Matrix scores;
  {
    const Span s(ctx, "linalg.project");
    scores = model.transform(blocks, a.k);
    ++counts.projects;
    counts.project_gflop += project_gflop(a.layout.m, a.layout.n, a.k);
  }
  dpz::QuantizedStream qs;
  {
    const Span s(ctx, "codec.quantize");
    a.score_scale = dpz::detail::component_scale(scores.row(0));
    const double inv = 1.0 / a.score_scale;
    dpz::parallel_for(0, scores.rows(), [&](std::size_t j) {
      auto row = scores.row(j);
      dpz::simd::kernels().scale(inv, row.data(), row.size());
    });
    qs = quantize_scores(scores, a.qcfg, counts);
    a.outlier_count = qs.outliers.size();
  }
  {
    const Span s(ctx, "codec.zlib_encode");
    dpz::detail::SideData side;
    side.mean = model.mean;
    side.scale = model.scale;
    side.score_scale = a.score_scale;
    side.basis = Matrix(a.layout.m, a.k);
    for (std::size_t i = 0; i < a.layout.m; ++i)
      for (std::size_t j = 0; j < a.k; ++j)
        side.basis(i, j) = model.components(i, j);
    deflate_sections(a,
                     {dpz::detail::serialize_side(side, false), qs.codes,
                      outlier_bytes(qs)},
                     config.zlib_level, counts);
  }
  checksum_sections(a, ctx, counts);
  return a;
}

FloatArray replay_dpz_decompress(const ReplayArchive& a, const SpanCtx& ctx,
                                 LayerCounts& counts) {
  dpz::detail::SideData side;
  std::vector<std::vector<std::uint8_t>> raw;
  verify_sections(a, ctx, counts);
  {
    const Span s(ctx, "codec.zlib_decode");
    raw = inflate_sections(a);
    side = dpz::detail::deserialize_side(raw[0], a.layout.m, a.k, false);
  }
  Matrix scores(a.k, a.layout.n);
  {
    const Span s(ctx, "codec.dequantize");
    const dpz::QuantizedStream qs = stream_of(a, std::move(raw[1]), raw[2]);
    dpz::dequantize(qs, a.qcfg, scores.flat());
    dpz::parallel_for(0, scores.rows(), [&](std::size_t j) {
      for (double& v : scores.row(j)) v *= side.score_scale;
    });
  }
  Matrix blocks;
  {
    const Span s(ctx, "linalg.inverse_project");
    PcaModel model;
    model.mean = side.mean;
    model.scale = side.scale;
    model.eigenvalues.assign(a.k, 0.0);
    model.components = side.basis;
    blocks = model.inverse_transform(scores);
  }
  {
    const Span s(ctx, "dsp.dct_inverse");
    const dpz::DctPlan plan(a.layout.n);
    dct_rows(blocks, plan, false);
  }
  return unblock(blocks, a, ctx);
}

ContainerReplay replay_chunked_compress(const FloatArray& data,
                                        const dpz::ChunkedConfig& config,
                                        const SpanCtx& ctx,
                                        LayerCounts& counts) {
  ContainerReplay c;
  c.shape = data.shape();
  c.starts = chunk_starts(data.size(), config.chunk_values);
  const std::size_t frames = c.starts.size();
  c.frames.resize(frames);
  std::vector<LayerCounts> frame_counts(frames);
  dpz::DpzConfig frame_config = config.dpz;
  frame_config.threads = 0;  // frames run their inner loops inline
  {
    const Span fan(ctx, "core.frames");
    const SpanCtx fctx = fan.child();
    dpz::parallel_for(0, frames, [&](std::size_t f) {
      const Span s(fctx, "core.frame_encode");
      const std::size_t end = f + 1 < frames ? c.starts[f + 1] : data.size();
      const auto slice =
          data.flat().subspan(c.starts[f], end - c.starts[f]);
      const FloatArray chunk({slice.size()},
                             std::vector<float>(slice.begin(), slice.end()));
      c.frames[f] =
          replay_dpz_compress(chunk, frame_config, s.child(), frame_counts[f]);
    });
  }
  for (const LayerCounts& fc : frame_counts) counts.merge(fc);

  std::vector<std::vector<std::uint8_t>>& payloads = c.payloads;
  for (const ReplayArchive& a : c.frames) payloads.push_back(a.payload());
  for (const auto& p : payloads) counts.frame_payload_bytes += p.size();
  if (config.parity_m > 0) {
    const Span s(ctx, "ecc.rs_encode");
    const std::size_t k = config.parity_k;
    const dpz::ecc::RsCodec codec(k, config.parity_m);
    for (std::size_t first = 0; first < frames; first += k) {
      const std::size_t last = std::min(first + k, frames);
      std::size_t shard = 0;
      for (std::size_t f = first; f < last; ++f)
        shard = std::max(shard, payloads[f].size());
      std::vector<std::vector<std::uint8_t>> padded(
          k, std::vector<std::uint8_t>(shard, 0));
      std::vector<std::span<const std::uint8_t>> spans(k);
      for (std::size_t i = 0; i < k; ++i) {
        if (first + i < last)
          std::copy(payloads[first + i].begin(), payloads[first + i].end(),
                    padded[i].begin());
        spans[i] = padded[i];
      }
      for (auto& p : codec.encode(spans)) {
        counts.parity_bytes += p.size();
        c.parity.push_back(std::move(p));
      }
    }
  }
  {
    const Span s(ctx, "util.crc32c");
    for (const auto& p : payloads) {
      c.frame_crcs.push_back(dpz::crc32c(p));
      counts.crc_bytes += p.size();
    }
    for (const auto& p : c.parity) {
      (void)dpz::crc32c(p);
      counts.crc_bytes += p.size();
    }
  }
  return c;
}

FloatArray replay_chunked_decompress(const ContainerReplay& c,
                                     const SpanCtx& ctx,
                                     LayerCounts& counts) {
  {
    const Span s(ctx, "util.crc32c");
    for (std::size_t f = 0; f < c.payloads.size(); ++f) {
      if (dpz::crc32c(c.payloads[f]) != c.frame_crcs[f])
        throw std::runtime_error("replayed frame checksum mismatch");
      counts.crc_bytes += c.payloads[f].size();
    }
  }
  std::vector<LayerCounts> frame_counts(c.frames.size());
  std::optional<FloatArray> out;
  {
    const Span fan(ctx, "core.frames");
    out.emplace(c.shape);
    const SpanCtx fctx = fan.child();
    dpz::parallel_for(0, c.frames.size(), [&](std::size_t f) {
      const Span s(fctx, "core.frame_decode");
      const FloatArray chunk =
          replay_dpz_decompress(c.frames[f], s.child(), frame_counts[f]);
      std::copy(chunk.flat().begin(), chunk.flat().end(),
                out->flat().begin() +
                    static_cast<std::ptrdiff_t>(c.starts[f]));
    });
  }
  for (const LayerCounts& fc : frame_counts) counts.merge(fc);
  return std::move(*out);
}

}  // namespace perfbench
