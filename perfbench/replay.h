// Layer replay for the traced pass.
//
// Each function re-runs one library operation as the sequence of calls
// it makes into the library's modules (core, dsp, linalg, codec, ecc,
// util), in pipeline order, with one span around each call. The replay
// calls the same public functions with the same arguments, so its
// archives decode to exactly what the real call's archives decode to;
// the traced pass checks that (and the selected k) against the real
// call, which is how it knows the replay did the same work.
//
// Replayed archives are kept as their sections (no container header):
// the header is a few dozen bytes the replay does not need.
#pragma once

#include <cstdint>
#include <vector>

#include "codec/quantizer.h"
#include "core/blocking.h"
#include "core/chunked.h"
#include "core/dpz.h"
#include "io/ndarray.h"
#include "spans.h"

namespace perfbench {

/// Non-time quantities the replayed layers handled, summed over calls.
struct LayerCounts {
  std::size_t fits = 0;  ///< Stage-2 basis fits
  std::size_t fit_k = 0;
  double fit_k_over_m = 0.0;
  double covariance_gflop = 0.0;
  double tridiagonalize_gflop = 0.0;
  std::size_t projects = 0;
  double project_gflop = 0.0;
  std::uint64_t quantized = 0;  ///< score values quantized
  std::uint64_t outliers = 0;   ///< of which escaped as outliers
  std::uint64_t zlib_in = 0;    ///< bytes into zlib_compress
  std::uint64_t zlib_out = 0;   ///< bytes out of zlib_compress
  std::uint64_t crc_bytes = 0;  ///< bytes checksummed
  std::uint64_t parity_bytes = 0;
  std::uint64_t frame_payload_bytes = 0;

  void merge(const LayerCounts& o);
};

/// One replayed DPZ unit (an archive, a container frame, or a
/// shared-basis snapshot): its geometry and compressed sections.
struct ReplayArchive {
  std::vector<std::size_t> shape;
  dpz::BlockLayout layout;
  std::size_t k = 0;
  dpz::QuantizerConfig qcfg;
  double score_scale = 1.0;
  /// Side data (DPZ) or block means (shared basis), codes, outliers:
  /// raw sizes, zlib blobs and their CRC32C values.
  std::vector<std::uint64_t> raw_sizes;
  std::vector<std::vector<std::uint8_t>> sections;
  std::vector<std::uint32_t> crcs;
  std::size_t outlier_count = 0;

  /// Section bytes back to back (the frame payload parity covers).
  [[nodiscard]] std::vector<std::uint8_t> payload() const;
};

/// dpz_compress / dpz_decompress (no sampling, no standardization, TVE
/// selection: the configuration every workload uses).
ReplayArchive replay_dpz_compress(const dpz::FloatArray& data,
                                  const dpz::DpzConfig& config,
                                  const SpanCtx& ctx, LayerCounts& counts);
dpz::FloatArray replay_dpz_decompress(const ReplayArchive& archive,
                                      const SpanCtx& ctx,
                                      LayerCounts& counts);

/// chunked_compress / chunked_decompress: frames fan out across the
/// ambient pool under a "core.frames" span, one "core.frame_encode" or
/// "core.frame_decode" span per frame.
struct ContainerReplay {
  std::vector<std::size_t> shape;
  std::vector<std::size_t> starts;  ///< flat offset of each frame
  std::vector<ReplayArchive> frames;
  std::vector<std::vector<std::uint8_t>> payloads;  ///< frame sections
  std::vector<std::uint32_t> frame_crcs;
  std::vector<std::vector<std::uint8_t>> parity;
};
ContainerReplay replay_chunked_compress(const dpz::FloatArray& data,
                                        const dpz::ChunkedConfig& config,
                                        const SpanCtx& ctx,
                                        LayerCounts& counts);
dpz::FloatArray replay_chunked_decompress(const ContainerReplay& container,
                                          const SpanCtx& ctx,
                                          LayerCounts& counts);

}  // namespace perfbench
