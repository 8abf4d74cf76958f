#include "core/chunked.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "codec/bytes.h"
#include "core/archive_detail.h"
#include "ecc/reed_solomon.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/crc32c.h"
#include "util/error.h"
#include "util/resource.h"
#include "util/thread_pool.h"

namespace dpz {

namespace {

using detail::ContainerHeader;

// Number of frames the compressor emits for (total, chunk_values): one
// per full chunk, the tail merged into the previous frame when it would
// fall below the pipeline minimum of 8 values. Computed arithmetically —
// never by materializing the boundary list — so a forged header cannot
// drive an allocation before this check runs.
std::size_t expected_frame_count(std::size_t total,
                                 std::size_t chunk_values) {
  std::size_t n = (total + chunk_values - 1) / chunk_values;
  if (n > 1 && total - (n - 1) * chunk_values < 8) --n;
  return n;
}

// Flat value range frame `f` covers. Well-defined once the frame count
// matches expected_frame_count: every frame holds chunk_values values
// except the last, which runs to the end of the data.
std::pair<std::size_t, std::size_t> frame_slot(const ContainerHeader& h,
                                               std::size_t f) {
  const std::size_t begin = f * h.chunk_values;
  const std::size_t end =
      f + 1 < h.frame_count ? begin + h.chunk_values : h.total;
  return {begin, end};
}

// Parses and validates the container header (detail::parse_container).
ContainerHeader parse_header(std::span<const std::uint8_t> container) {
  ContainerHeader h;
  detail::parse_container(container, h);
  return h;
}

// v2 per-frame integrity: the frame's CRC32C must pass before its bytes
// reach the DPZ decoder (verify-before-inflate, docs/FORMAT.md).
bool frame_crc_ok(std::span<const std::uint8_t> frame,
                  const ContainerHeader& h, std::size_t f) {
  if (h.frame_crcs.empty()) return true;
  const obs::ScopedSpan crc_span(obs::Span::kCrcCheck);
  obs::count(obs::Counter::kCrcChecks);
  if (crc32c(frame) == h.frame_crcs[f]) return true;
  obs::count(obs::Counter::kCrcFailures);
  return false;
}

// Breadcrumb context for one frame: its index and absolute byte offset
// inside the container, so error reports can name the failing bytes.
obs::LogContext frame_log_ctx(const ContainerHeader& h, std::size_t f) {
  obs::LogContext ctx;
  ctx.offset = h.frames_begin + h.frame_offsets[f];
  ctx.frame = f;
  ctx.section = "frame";
  return ctx;
}

void check_frame_crc(std::span<const std::uint8_t> frame,
                     const ContainerHeader& h, std::size_t f) {
  if (!frame_crc_ok(frame, h, f)) {
    obs::log_error(obs::Event::kChecksumMismatch, StatusCode::kChecksum,
                   frame_log_ctx(h, f));
    throw ChecksumError("chunked container: frame " + std::to_string(f) +
                        " checksum mismatch");
  }
}

// Chunk boundaries over `total` values: every chunk has `chunk_values`
// values except the last, which absorbs the tail (and is merged into the
// previous chunk when the tail would fall below the pipeline minimum).
std::vector<std::size_t> chunk_starts(std::size_t total,
                                      std::size_t chunk_values) {
  std::vector<std::size_t> starts;
  for (std::size_t s = 0; s < total; s += chunk_values) starts.push_back(s);
  if (starts.size() > 1 && total - starts.back() < 8) starts.pop_back();
  return starts;
}

// Pre-flight admission for a container decode: the header-claimed output
// (h.total elements, sealed by the v2 header CRC) is priced against the
// governing memory budget before any frame is decoded, so a forged shape
// is rejected with ResourceExhausted instead of sizing the output buffer.
// Frame working sets are charged per allocation as frames decode.
void admit_container(const ContainerHeader& h, std::size_t elem_bytes) {
  if (const ResourceGovernor* g = current_governor())
    g->admit(static_cast<std::uint64_t>(h.total) * elem_bytes,
             "chunked container");
}

// Zero-padded data shards for parity group `g`: each stored frame
// payload padded to the group's shard size, absent frames of a short
// final group standing in as all-zero shards.
std::vector<std::vector<std::uint8_t>> padded_group_shards(
    std::span<const std::uint8_t> container, const ContainerHeader& h,
    std::size_t g) {
  const std::size_t shard_size =
      static_cast<std::size_t>(h.shard_sizes[g]);
  const ScopedCharge charge(static_cast<std::uint64_t>(h.parity_k) *
                            shard_size);
  std::vector<std::vector<std::uint8_t>> padded(h.parity_k);
  for (std::size_t i = 0; i < h.parity_k; ++i) {
    padded[i].assign(shard_size, 0);
    const std::size_t f = g * h.parity_k + i;
    if (f >= h.frame_count) continue;
    const std::span<const std::uint8_t> frame = h.frame(container, f);
    std::copy(frame.begin(), frame.end(), padded[i].begin());
  }
  return padded;
}

// A decode's parity-repair outcome: replacement bytes for every frame
// that reconstructed (and CRC-verified byte-exact), flags for the ones
// that did not. Empty vectors (parity-less containers, undamaged
// decodes) mean "no repairs".
struct RepairPlan {
  std::vector<std::vector<std::uint8_t>> replacement;  // per frame
  std::vector<std::uint8_t> repaired;      // per frame, 1 = replaced
  std::vector<std::uint8_t> unrecovered;   // per frame, 1 = beyond budget

  [[nodiscard]] bool frame_repaired(std::size_t f) const {
    return f < repaired.size() && repaired[f] != 0;
  }
  [[nodiscard]] bool frame_unrecovered(std::size_t f) const {
    return f < unrecovered.size() && unrecovered[f] != 0;
  }
};

// Reed-Solomon reconstruction of every damaged frame from its group's
// surviving shards. `damaged[f]` marks frames whose CRC failed. A
// rebuilt frame only counts as repaired once its bytes re-verify
// against the frame table's CRC32C — repair is byte-exact or it is a
// failure. Counts kFramesRepaired / kRepairFailed exactly once per
// damaged frame. Requires h.parity_m > 0.
RepairPlan attempt_repairs(std::span<const std::uint8_t> container,
                           const ContainerHeader& h,
                           std::span<const std::uint8_t> damaged) {
  RepairPlan plan;
  plan.replacement.resize(h.frame_count);
  plan.repaired.assign(h.frame_count, 0);
  plan.unrecovered.assign(h.frame_count, 0);
  const ecc::RsCodec codec(h.parity_k, h.parity_m);
  const std::size_t groups = h.groups();
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t first = g * h.parity_k;
    const std::size_t last =
        std::min(first + h.parity_k, h.frame_count);
    bool any = false;
    for (std::size_t f = first; f < last; ++f) any |= damaged[f] != 0;
    if (!any) continue;
    governed_poll();
    const obs::ScopedSpan repair_span(obs::Span::kFrameRepair);
    const std::size_t shard_size =
        static_cast<std::size_t>(h.shard_sizes[g]);
    const std::vector<std::vector<std::uint8_t>> padded =
        padded_group_shards(container, h, g);
    std::vector<std::span<const std::uint8_t>> shards(h.parity_k +
                                                      h.parity_m);
    std::vector<std::uint8_t> present(h.parity_k + h.parity_m, 0);
    for (std::size_t i = 0; i < h.parity_k; ++i) {
      const std::size_t f = first + i;
      if (f < h.frame_count && damaged[f] != 0) continue;
      shards[i] = padded[i];
      present[i] = 1;
    }
    // Parity shards vouch for themselves through the header-sealed
    // CRCs: a damaged shard is simply absent from the reconstruction.
    for (std::size_t j = 0; j < h.parity_m; ++j) {
      const auto shard = h.parity_shard(container, g, j);
      if (crc32c(shard) != h.parity_crcs[g * h.parity_m + j]) continue;
      shards[h.parity_k + j] = shard;
      present[h.parity_k + j] = 1;
    }
    std::size_t surviving = 0;
    for (const std::uint8_t p : present) surviving += p;
    if (surviving < h.parity_k) {
      for (std::size_t f = first; f < last; ++f) {
        if (damaged[f] == 0) continue;
        const obs::ScopedSpan frame_span(obs::Span::kFrameRepair);
        plan.unrecovered[f] = 1;
        obs::count(obs::Counter::kRepairFailed);
        obs::log_error(obs::Event::kFrameRepairFailed,
                       StatusCode::kChecksum, frame_log_ctx(h, f),
                       "too few surviving shards");
      }
      continue;
    }
    const ScopedCharge charge(static_cast<std::uint64_t>(h.parity_k) *
                              shard_size);
    const std::vector<std::vector<std::uint8_t>> data =
        codec.reconstruct(shards, present);
    for (std::size_t f = first; f < last; ++f) {
      if (damaged[f] == 0) continue;
      const obs::ScopedSpan frame_span(obs::Span::kFrameRepair);
      const std::size_t i = f - first;
      std::vector<std::uint8_t> bytes(
          data[i].begin(),
          data[i].begin() +
              static_cast<std::ptrdiff_t>(h.frame_sizes[f]));
      if (crc32c(bytes) == h.frame_crcs[f]) {
        plan.replacement[f] = std::move(bytes);
        plan.repaired[f] = 1;
        obs::count(obs::Counter::kFramesRepaired);
        obs::log_event(obs::Event::kFrameRebuilt, obs::LogLevel::kInfo,
                       StatusCode::kOk, frame_log_ctx(h, f));
      } else {
        plan.unrecovered[f] = 1;
        obs::count(obs::Counter::kRepairFailed);
        obs::log_error(obs::Event::kFrameRepairFailed,
                       StatusCode::kChecksum, frame_log_ctx(h, f),
                       "reconstruction fails the stored checksum");
      }
    }
  }
  return plan;
}

// CRC sweeps over every frame and every parity shard (group-major): 1
// marks a unit whose bytes fail the header-sealed checksum.
std::vector<std::uint8_t> damaged_frames(
    std::span<const std::uint8_t> container, const ContainerHeader& h) {
  std::vector<std::uint8_t> damaged(h.frame_count, 0);
  for (std::size_t f = 0; f < h.frame_count; ++f)
    damaged[f] = frame_crc_ok(h.frame(container, f), h, f) ? 0 : 1;
  return damaged;
}

std::vector<std::uint8_t> damaged_shards(
    std::span<const std::uint8_t> container, const ContainerHeader& h) {
  std::vector<std::uint8_t> damaged(h.parity_crcs.size(), 0);
  for (std::size_t i = 0; i < damaged.size(); ++i)
    damaged[i] = crc32c(h.parity_shard(container, i / h.parity_m,
                                       i % h.parity_m)) == h.parity_crcs[i]
                     ? 0
                     : 1;
  return damaged;
}

bool any_set(const std::vector<std::uint8_t>& flags) {
  return std::find(flags.begin(), flags.end(), 1) != flags.end();
}

// CRC-scans every frame and, when the container carries parity and any
// frame is damaged, attempts reconstruction. The returned plan is empty
// for parity-less containers (callers then keep the classic per-frame
// CRC handling).
RepairPlan scan_and_repair(std::span<const std::uint8_t> container,
                           const ContainerHeader& h) {
  RepairPlan plan;
  if (h.parity_m == 0) return plan;
  const std::vector<std::uint8_t> damaged = damaged_frames(container, h);
  if (!any_set(damaged)) {
    plan.repaired.assign(h.frame_count, 0);
    plan.unrecovered.assign(h.frame_count, 0);
    plan.replacement.resize(h.frame_count);
    return plan;
  }
  return attempt_repairs(container, h, damaged);
}

// Frame payload as the decoder should see it: the parity-reconstructed
// replacement when one exists, the stored bytes otherwise.
std::span<const std::uint8_t> frame_view(
    std::span<const std::uint8_t> container, const ContainerHeader& h,
    const RepairPlan& plan, std::size_t f) {
  if (plan.frame_repaired(f)) return plan.replacement[f];
  return h.frame(container, f);
}

void fill_repair_report(const RepairPlan& plan, DecodeReport* report) {
  if (report == nullptr) return;
  for (std::size_t f = 0; f < plan.repaired.size(); ++f) {
    if (plan.repaired[f] == 0) continue;
    ++report->frames_repaired;
    report->repaired.push_back(f);
  }
}

template <typename T>
NdArray<T> decompress_strict(std::span<const std::uint8_t> container,
                             const ContainerHeader& h,
                             DecodeReport* report) {
  admit_container(h, sizeof(T));
  // Parity containers pre-scan every frame CRC so damage can be
  // repaired before the decode proper; a frame beyond the parity budget
  // keeps the strict contract and throws. The per-frame CRC check in
  // the decode loop is skipped afterwards — every surviving payload
  // (stored or reconstructed) has already verified.
  const RepairPlan plan = scan_and_repair(container, h);
  const bool prescanned = h.parity_m > 0;
  for (std::size_t f = 0; f < h.frame_count; ++f)
    if (plan.frame_unrecovered(f)) {
      obs::log_error(obs::Event::kChecksumMismatch, StatusCode::kChecksum,
                     frame_log_ctx(h, f), "beyond the parity budget");
      throw ChecksumError("chunked container: frame " + std::to_string(f) +
                          " checksum mismatch (beyond the parity budget)");
    }

  // Cheap header-only pre-pass: every frame claims its decoded size, and
  // the claims must exactly tile the container's shape *before* any frame
  // is decoded. This bounds transient memory by h.total — a forged
  // container cannot make us decode an arbitrary sum of frames and only
  // find out afterwards that they exceed the claimed shape. The decode
  // below runs from these parses instead of parsing each header again.
  std::vector<detail::DpzLayout> parsed(h.frame_count);
  std::size_t claimed = 0;
  for (std::size_t f = 0; f < h.frame_count; ++f) {
    const auto frame = frame_view(container, h, plan, f);
    try {
      detail::parse_dpz(frame, parsed[f]);
    } catch (const FormatError&) {
      // A frame that fails to parse reports as the checksum failure it
      // is when its bytes are damaged, not as whatever they tear into.
      if (!prescanned) check_frame_crc(frame, h, f);
      throw;
    }
    std::size_t count = 1;
    for (const std::size_t d : parsed[f].info.shape) count *= d;
    if (count > h.total - claimed)
      throw FormatError("chunked container: frames exceed the shape");
    claimed += count;
  }
  if (claimed != h.total)
    throw FormatError("chunked container: frames do not cover the shape");

  // Decode the frames in parallel into per-frame buffers, then
  // concatenate in frame order. Nothing is allocated from the claimed
  // shape up front: the header's dims are archive data, and a forged
  // total must not size an allocation the frames cannot back — each
  // frame's own decode validates (and bounds) its output, and the sum is
  // re-checked against the shape before the final buffer is built.
  // Per-frame failures are collected rather than rethrown by the pool so
  // the error that surfaces is deterministically the lowest frame's.
  std::vector<FloatArray> chunks(h.frame_count);
  std::vector<std::exception_ptr> errors(h.frame_count);
  parallel_for(0, h.frame_count, [&](std::size_t f) {
    const obs::ScopedSpan frame_span(obs::Span::kFrameDecode);
    try {
      if (!prescanned)
        check_frame_crc(frame_view(container, h, plan, f), h, f);
      chunks[f] = detail::decode_dpz(parsed[f]);
      obs::count(obs::Counter::kFramesDecoded);
    } catch (...) {
      errors[f] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  std::size_t total = 0;
  for (const FloatArray& chunk : chunks) {
    if (chunk.size() > h.total - total)
      throw FormatError("chunked container: frames exceed the shape");
    total += chunk.size();
  }
  if (total != h.total)
    throw FormatError("chunked container: frames do not cover the shape");

  if (report != nullptr) {
    *report = DecodeReport{};
    report->frames_total = h.frame_count;
    report->frames_recovered = h.frame_count;
    fill_repair_report(plan, report);
  }
  std::vector<T> values;
  values.reserve(h.total);
  for (const FloatArray& chunk : chunks)
    values.insert(values.end(), chunk.flat().begin(), chunk.flat().end());
  return NdArray<T>(h.shape, std::move(values));
}

template <typename T>
NdArray<T> decompress_best_effort(std::span<const std::uint8_t> container,
                                  const ContainerHeader& h, double fill,
                                  DecodeReport* report) {
  admit_container(h, sizeof(T));
  // Parity containers try reconstruction before the decode loop, so a
  // damaged frame only reaches the fill path once its loss exceeded the
  // parity budget.
  RepairPlan plan = scan_and_repair(container, h);
  const bool prescanned = h.parity_m > 0;

  // The output is sized from the header geometry (already validated and,
  // for v2, sealed by the header CRC) and pre-filled so lost frames are
  // visible as runs of the fill value. Each frame writes only its own
  // slot, so the parallel loop touches disjoint ranges.
  std::vector<T> values(h.total, static_cast<T>(fill));
  std::vector<std::string> frame_error(h.frame_count);
  std::vector<std::uint8_t> frame_lost(h.frame_count, 0);
  std::vector<std::exception_ptr> fatal(h.frame_count);
  parallel_for(0, h.frame_count, [&](std::size_t f) {
    const obs::ScopedSpan frame_span(obs::Span::kFrameDecode);
    const auto [begin, end] = frame_slot(h, f);
    if (plan.frame_unrecovered(f)) {
      frame_lost[f] = 1;
      frame_error[f] = "chunked container: frame " + std::to_string(f) +
                       " checksum mismatch (beyond the parity budget)";
      return;
    }
    try {
      const auto frame = frame_view(container, h, plan, f);
      if (!prescanned) check_frame_crc(frame, h, f);
      const FloatArray chunk = dpz_decompress(frame);
      if (chunk.size() != end - begin)
        throw FormatError("chunked container: frame " + std::to_string(f) +
                          " does not match its slot");
      std::copy(chunk.flat().begin(), chunk.flat().end(),
                values.begin() + static_cast<std::ptrdiff_t>(begin));
      obs::count(obs::Counter::kFramesDecoded);
    } catch (const Error& e) {
      // Governance aborts are not frame damage: cancellation, deadline
      // expiry, and budget exhaustion fail the whole decode (below)
      // instead of masquerading as a salvageable lost frame.
      if (e.code() == StatusCode::kCancelled ||
          e.code() == StatusCode::kDeadlineExceeded ||
          e.code() == StatusCode::kResourceExhausted) {
        fatal[f] = std::current_exception();
        return;
      }
      frame_lost[f] = 1;
      frame_error[f] = e.what();
    }
  });
  for (const std::exception_ptr& e : fatal)
    if (e) std::rethrow_exception(e);

  // A reconstructed frame whose bytes then failed to decode ends up
  // lost, not repaired (possible only when the original archive stored
  // an undecodable frame with a valid CRC).
  for (std::size_t f = 0; f < h.frame_count; ++f)
    if (frame_lost[f] != 0 && plan.frame_repaired(f)) plan.repaired[f] = 0;

  for (std::size_t f = 0; f < h.frame_count; ++f) {
    if (frame_lost[f] != 0) {
      obs::count(obs::Counter::kFramesLost);
      obs::log_event(obs::Event::kFrameLost, obs::LogLevel::kWarn,
                     StatusCode::kChecksum, frame_log_ctx(h, f),
                     frame_error[f]);
    } else {
      obs::count(obs::Counter::kFramesRecovered);
    }
  }

  if (report != nullptr) {
    *report = DecodeReport{};
    report->frames_total = h.frame_count;
    for (std::size_t f = 0; f < h.frame_count; ++f) {
      if (frame_lost[f] != 0) {
        report->lost.push_back({f, frame_error[f]});
      } else {
        ++report->frames_recovered;
      }
    }
    fill_repair_report(plan, report);
  }
  return NdArray<T>(h.shape, std::move(values));
}

template <typename T>
NdArray<T> decompress_with_policy(std::span<const std::uint8_t> container,
                                  const ChunkedConfig& config,
                                  DecodeReport* report) {
  // Install the governor before the header parse so even table-sized
  // allocations and the admission pre-flight run governed.
  const GovernorScope governor_scope(config.dpz.limits);
  governed_poll();
  const ContainerHeader h = parse_header(container);
  const ScopedThreads pool_scope(config.threads);
  if (config.decode_policy == DecodePolicy::kBestEffort)
    return decompress_best_effort<T>(container, h, config.fill_value,
                                     report);
  return decompress_strict<T>(container, h, report);
}

}  // namespace

std::vector<std::uint8_t> chunked_compress(const FloatArray& data,
                                           const ChunkedConfig& config,
                                           ChunkedStats* stats) {
  DPZ_REQUIRE(config.chunk_values >= 8, "chunk must hold at least 8 values");
  DPZ_REQUIRE(data.size() >= 8, "chunked DPZ needs at least 8 values");
  const bool parity = config.parity_m > 0;
  DPZ_REQUIRE(!parity || (config.parity_k >= 1 &&
                          config.parity_k + config.parity_m <= 255),
              "parity geometry must satisfy 1 <= k and k + m <= 255");

  // One governor for the whole container: frames inherit it through
  // parallel_for (workers adopt the publisher's governor), so budget,
  // deadline, and cancel cover every frame without per-frame re-scoping.
  const GovernorScope governor_scope(config.dpz.limits);
  governed_poll();

  ChunkedStats local;
  ChunkedStats& st = stats != nullptr ? *stats : local;
  st = ChunkedStats{};
  st.original_bytes = data.size() * sizeof(float);

  const std::vector<std::size_t> starts =
      chunk_starts(data.size(), config.chunk_values);

  // Frames are independent (no cross-chunk state), so they compress in
  // parallel into pre-sized slots; each frame's bytes depend only on its
  // chunk and the config, never on the worker count or finish order.
  // Inner pipeline loops run inline on the frame's worker (nested
  // parallel_for), so the frame config must not spin up its own pool.
  const ScopedThreads pool_scope(config.threads);
  DpzConfig frame_config = config.dpz;
  frame_config.threads = 0;
  // Cleared like `threads`: each frame runs under the container governor
  // installed above rather than nesting a fresh per-frame one.
  frame_config.limits = ResourceLimits{};
  std::vector<std::vector<std::uint8_t>> frames(starts.size());
  std::vector<std::uint8_t> frame_stored_raw(starts.size(), 0);
  parallel_for(0, starts.size(), [&](std::size_t f) {
    const obs::ScopedSpan frame_span(obs::Span::kFrameEncode);
    const std::size_t begin = starts[f];
    const std::size_t end =
        (f + 1 < starts.size()) ? starts[f + 1] : data.size();
    const std::span<const float> slice =
        data.flat().subspan(begin, end - begin);
    FloatArray chunk({slice.size()},
                     std::vector<float>(slice.begin(), slice.end()));
    DpzStats frame_stats;
    frames[f] = dpz_compress(chunk, frame_config, &frame_stats);
    frame_stored_raw[f] = frame_stats.stored_raw ? 1 : 0;
    obs::count(obs::Counter::kFramesEncoded);
    obs::observe(obs::Hist::kFrameBytes, frames[f].size());
  });
  for (const std::uint8_t raw : frame_stored_raw)
    if (raw != 0) ++st.stored_raw_frames;

  // Parity shards over the compressed payloads (format v3): groups of k
  // frames, each zero-padded to the group's largest frame; the shards
  // are deterministic functions of the frame bytes, so parity never
  // perturbs thread-count invariance.
  const std::size_t k = config.parity_k;
  const std::size_t m = config.parity_m;
  std::vector<std::uint64_t> shard_sizes;
  std::vector<std::vector<std::vector<std::uint8_t>>> parity_shards;
  if (parity) {
    const ecc::RsCodec codec(k, m);
    const std::size_t groups = (frames.size() + k - 1) / k;
    shard_sizes.resize(groups, 0);
    parity_shards.resize(groups);
    for (std::size_t g = 0; g < groups; ++g) {
      governed_poll();
      const obs::ScopedSpan repair_span(obs::Span::kFrameRepair);
      const std::size_t first = g * k;
      const std::size_t last = std::min(first + k, frames.size());
      for (std::size_t f = first; f < last; ++f)
        shard_sizes[g] = std::max<std::uint64_t>(shard_sizes[g],
                                                 frames[f].size());
      const std::size_t shard_size =
          static_cast<std::size_t>(shard_sizes[g]);
      const ScopedCharge charge(static_cast<std::uint64_t>(k) *
                                shard_size);
      std::vector<std::vector<std::uint8_t>> padded(k);
      std::vector<std::span<const std::uint8_t>> spans(k);
      for (std::size_t i = 0; i < k; ++i) {
        padded[i].assign(shard_size, 0);
        const std::size_t f = first + i;
        if (f < frames.size())
          std::copy(frames[f].begin(), frames[f].end(),
                    padded[i].begin());
        spans[i] = padded[i];
      }
      parity_shards[g] = codec.encode(spans);
    }
  }

  ByteWriter w;
  w.put_u32(parity ? detail::kChunkedMagicV3 : detail::kChunkedMagicV2);
  w.put_u8(parity ? detail::kChunkedFormatVersion3
                  : detail::kFormatVersion);
  w.put_u8(static_cast<std::uint8_t>(data.shape().size()));
  for (const std::size_t d : data.shape()) w.put_u64(d);
  w.put_u64(config.chunk_values);
  w.put_u64(frames.size());
  std::uint64_t offset = 0;
  for (const auto& frame : frames) {
    w.put_u64(offset);
    w.put_u64(frame.size());
    w.put_u32(crc32c(frame));
    offset += frame.size();
  }
  if (parity) {
    w.put_u8(static_cast<std::uint8_t>(k));
    w.put_u8(static_cast<std::uint8_t>(m));
    for (std::size_t g = 0; g < parity_shards.size(); ++g) {
      w.put_u64(shard_sizes[g]);
      for (const auto& shard : parity_shards[g])
        w.put_u32(crc32c(shard));
    }
  }
  detail::put_header_crc(w);
  for (const auto& frame : frames) w.put_bytes(frame);
  for (const auto& group : parity_shards)
    for (const auto& shard : group) w.put_bytes(shard);

  std::vector<std::uint8_t> out = w.take();
  st.frame_count = frames.size();
  st.archive_bytes = out.size();
  return out;
}

FloatArray chunked_decompress(std::span<const std::uint8_t> container,
                              unsigned threads) {
  const ContainerHeader h = parse_header(container);
  const ScopedThreads pool_scope(threads);
  return decompress_strict<float>(container, h, nullptr);
}

FloatArray chunked_decompress(std::span<const std::uint8_t> container,
                              const ChunkedConfig& config,
                              DecodeReport* report) {
  return decompress_with_policy<float>(container, config, report);
}

DoubleArray chunked_decompress_f64(std::span<const std::uint8_t> container,
                                   const ChunkedConfig& config,
                                   DecodeReport* report) {
  return decompress_with_policy<double>(container, config, report);
}

ChunkView chunked_decompress_frame(std::span<const std::uint8_t> container,
                                   std::size_t frame_index) {
  const ContainerHeader h = parse_header(container);
  DPZ_REQUIRE(frame_index < h.frame_count, "frame index out of range");

  std::span<const std::uint8_t> frame = h.frame(container, frame_index);
  std::vector<std::uint8_t> rebuilt;
  if (!frame_crc_ok(frame, h, frame_index)) {
    // Same self-healing contract as whole-container decode: a damaged
    // frame in a parity-carrying container is reconstructed from its
    // group before the random-access path gives up on it.
    if (h.parity_m == 0) {
      obs::log_error(obs::Event::kChecksumMismatch, StatusCode::kChecksum,
                     frame_log_ctx(h, frame_index));
      throw ChecksumError("chunked container: frame " +
                          std::to_string(frame_index) +
                          " checksum mismatch");
    }
    std::vector<std::uint8_t> damaged(h.frame_count, 0);
    damaged[frame_index] = 1;
    const std::size_t first = (frame_index / h.parity_k) * h.parity_k;
    const std::size_t last = std::min(first + h.parity_k, h.frame_count);
    for (std::size_t f = first; f < last; ++f)
      if (f != frame_index)
        damaged[f] = frame_crc_ok(h.frame(container, f), h, f) ? 0 : 1;
    RepairPlan plan = attempt_repairs(container, h, damaged);
    if (!plan.frame_repaired(frame_index)) {
      obs::log_error(obs::Event::kChecksumMismatch, StatusCode::kChecksum,
                     frame_log_ctx(h, frame_index),
                     "beyond the parity budget");
      throw ChecksumError("chunked container: frame " +
                          std::to_string(frame_index) +
                          " is beyond the parity budget");
    }
    rebuilt = std::move(plan.replacement[frame_index]);
    frame = rebuilt;
  }
  const FloatArray chunk = dpz_decompress(frame);

  ChunkView view;
  view.frame_index = frame_index;
  view.value_offset = frame_index * h.chunk_values;
  view.values.assign(chunk.flat().begin(), chunk.flat().end());
  return view;
}

std::size_t chunked_frame_count(std::span<const std::uint8_t> container) {
  return parse_header(container).frame_count;
}

std::vector<std::uint8_t> chunked_repair(
    std::span<const std::uint8_t> container, RepairReport* report) {
  governed_poll();
  const obs::ScopedSpan archive_span(obs::Span::kArchiveRepair);
  const ContainerHeader h = parse_header(container);
  RepairReport local;
  RepairReport& rep = report != nullptr ? *report : local;
  rep = RepairReport{};
  rep.frames_total = h.frame_count;

  const std::vector<std::uint8_t> damaged = damaged_frames(container, h);
  const std::vector<std::uint8_t> shard_damaged =
      damaged_shards(container, h);
  const bool any_frame = any_set(damaged);
  const bool any_parity = any_set(shard_damaged);
  const std::size_t groups = h.groups();
  if (!any_frame && !any_parity)
    return {container.begin(), container.end()};
  if (h.parity_m == 0) {
    obs::log_error(obs::Event::kFrameRepairFailed, StatusCode::kChecksum,
                   {}, "no parity to repair from");
    throw ChecksumError(
        "chunked container: damaged frames and no parity to repair from");
  }

  RepairPlan plan;
  if (any_frame) {
    plan = attempt_repairs(container, h, damaged);
    for (std::size_t f = 0; f < h.frame_count; ++f)
      if (plan.unrecovered[f] != 0)
        throw ChecksumError("chunked container: frame " +
                            std::to_string(f) +
                            " is beyond the parity budget");
  }

  const ScopedCharge charge(container.size());
  std::vector<std::uint8_t> healed(container.begin(), container.end());
  for (std::size_t f = 0; f < h.frame_count; ++f) {
    if (!plan.frame_repaired(f)) continue;
    std::copy(plan.replacement[f].begin(), plan.replacement[f].end(),
              healed.begin() +
                  static_cast<std::ptrdiff_t>(
                      h.frames_begin +
                      static_cast<std::size_t>(h.frame_offsets[f])));
    rep.frames_repaired.push_back(f);
  }

  // Rebuild damaged parity shards from the (now intact) frame payloads;
  // each must re-verify against its header-sealed CRC, proving the
  // healed archive is byte-identical to the pre-damage one.
  if (any_parity) {
    const ecc::RsCodec codec(h.parity_k, h.parity_m);
    for (std::size_t g = 0; g < groups; ++g) {
      bool group_damaged = false;
      for (std::size_t j = 0; j < h.parity_m; ++j)
        group_damaged |= shard_damaged[g * h.parity_m + j] != 0;
      if (!group_damaged) continue;
      governed_poll();
      const obs::ScopedSpan repair_span(obs::Span::kFrameRepair);
      const std::vector<std::vector<std::uint8_t>> padded =
          padded_group_shards(healed, h, g);
      std::vector<std::span<const std::uint8_t>> spans(h.parity_k);
      for (std::size_t i = 0; i < h.parity_k; ++i) spans[i] = padded[i];
      const std::vector<std::vector<std::uint8_t>> parity =
          codec.encode(spans);
      for (std::size_t j = 0; j < h.parity_m; ++j) {
        if (shard_damaged[g * h.parity_m + j] == 0) continue;
        if (crc32c(parity[j]) != h.parity_crcs[g * h.parity_m + j]) {
          obs::LogContext ctx;
          ctx.offset = h.parity_begin +
                       static_cast<std::size_t>(h.parity_offsets[g]) +
                       j * static_cast<std::size_t>(h.shard_sizes[g]);
          ctx.section = "parity";
          obs::log_error(obs::Event::kChecksumMismatch,
                         StatusCode::kChecksum, ctx,
                         "rebuilt parity shard fails its stored checksum");
          throw ChecksumError(
              "chunked container: rebuilt parity shard fails its stored "
              "checksum");
        }
        std::copy(
            parity[j].begin(), parity[j].end(),
            healed.begin() +
                static_cast<std::ptrdiff_t>(
                    h.parity_begin +
                    static_cast<std::size_t>(h.parity_offsets[g]) +
                    j * static_cast<std::size_t>(h.shard_sizes[g])));
        ++rep.parity_shards_repaired;
      }
    }
  }
  return healed;
}

ScrubReport chunked_scrub(std::span<const std::uint8_t> container) {
  governed_poll();
  const obs::ScopedSpan archive_span(obs::Span::kArchiveRepair);
  const ContainerHeader h = parse_header(container);
  ScrubReport s;
  s.frames_total = h.frame_count;
  s.parity_k = h.parity_k;
  s.parity_m = h.parity_m;
  s.groups = h.groups();

  const std::vector<std::uint8_t> damaged = damaged_frames(container, h);
  s.frames_damaged = static_cast<std::size_t>(
      std::count(damaged.begin(), damaged.end(), 1));
  if (h.parity_m == 0) return s;
  const std::vector<std::uint8_t> shard_damaged =
      damaged_shards(container, h);
  s.parity_shards_damaged = static_cast<std::size_t>(
      std::count(shard_damaged.begin(), shard_damaged.end(), 1));

  // Consistency audit: recompute each fully-intact group's parity from
  // the stored payloads and compare it to the intact stored shards —
  // no frame is ever decoded.
  const ecc::RsCodec codec(h.parity_k, h.parity_m);
  for (std::size_t g = 0; g < s.groups; ++g) {
    const std::size_t first = g * h.parity_k;
    const std::size_t last =
        std::min(first + h.parity_k, h.frame_count);
    bool inputs_ok = true;
    for (std::size_t f = first; f < last; ++f)
      inputs_ok &= damaged[f] == 0;
    if (!inputs_ok) continue;
    governed_poll();
    const obs::ScopedSpan group_span(obs::Span::kFrameRepair);
    const std::vector<std::vector<std::uint8_t>> padded =
        padded_group_shards(container, h, g);
    std::vector<std::span<const std::uint8_t>> spans(h.parity_k);
    for (std::size_t i = 0; i < h.parity_k; ++i) spans[i] = padded[i];
    const std::vector<std::vector<std::uint8_t>> parity =
        codec.encode(spans);
    for (std::size_t j = 0; j < h.parity_m; ++j) {
      if (shard_damaged[g * h.parity_m + j] != 0) continue;
      const auto stored = h.parity_shard(container, g, j);
      if (!std::equal(parity[j].begin(), parity[j].end(),
                      stored.begin(), stored.end()))
        ++s.parity_mismatches;
    }
  }
  return s;
}

void detail::parse_container(std::span<const std::uint8_t> container,
                             ContainerHeader& h) {
  ByteReader r(container);
  const std::uint32_t magic = r.get_u32();
  if (magic != kChunkedMagicV1 && magic != kChunkedMagicV2 &&
      magic != kChunkedMagicV3)
    throw FormatError("not a chunked DPZ container");
  if (magic != kChunkedMagicV1) {
    h.version = r.get_u8();
    if (h.version != (magic == kChunkedMagicV2 ? kFormatVersion
                                               : kChunkedFormatVersion3))
      throw FormatError("unsupported chunked container version");
  }
  h.shape = read_shape(r, "chunked container");
  h.total = 1;
  for (const std::size_t d : h.shape) h.total *= d;
  h.chunk_values = static_cast<std::size_t>(r.get_u64());
  h.frame_count = static_cast<std::size_t>(r.get_u64());
  // The chunk geometry fully determines the frame count, so demand the
  // exact value instead of a plausibility envelope: best-effort recovery
  // needs every frame's slot to be computable from the header alone.
  if (h.chunk_values < 8 || h.chunk_values > kMaxArchiveElements ||
      h.frame_count != expected_frame_count(h.total, h.chunk_values))
    throw FormatError("chunked container: inconsistent chunking");
  // Each frame-table entry is 16 bytes (20 with CRCs), so a frame count
  // beyond the remaining input is forged — reject before sizing the
  // tables off it (the v1 header has no seal to catch it later).
  const std::size_t entry = h.version >= kFormatVersion ? 20 : 16;
  if (h.frame_count > r.remaining() / entry)
    throw FormatError("chunked container: inconsistent chunking");

  h.frame_offsets.resize(h.frame_count);
  h.frame_sizes.resize(h.frame_count);
  if (h.version >= kFormatVersion) h.frame_crcs.resize(h.frame_count);
  for (std::size_t f = 0; f < h.frame_count; ++f) {
    h.frame_offsets[f] = r.get_u64();
    h.frame_sizes[f] = r.get_u64();
    if (h.version >= kFormatVersion) h.frame_crcs[f] = r.get_u32();
  }
  // v3 appends the parity geometry after the frame table (still inside
  // the sealed header): k, m, then per group its shard size and the
  // CRC32C of each of its m parity shards.
  std::uint64_t parity_bytes = 0;
  if (h.version >= kChunkedFormatVersion3) {
    h.parity_k = r.get_u8();
    h.parity_m = r.get_u8();
    if (h.parity_k < 1 || h.parity_m < 1 || h.parity_k + h.parity_m > 255)
      throw FormatError("chunked container: bad parity geometry");
    const std::size_t groups = h.groups();
    // Each group's table entry needs at least 8 bytes, so a claimed
    // group count beyond the remaining input is forged — reject before
    // sizing the tables off it.
    if (groups > r.remaining() / 8)
      throw FormatError("chunked container: bad parity geometry");
    h.shard_sizes.resize(groups);
    h.parity_offsets.resize(groups);
    h.parity_crcs.resize(groups * h.parity_m);
    for (std::size_t g = 0; g < groups; ++g) {
      h.parity_offsets[g] = parity_bytes;
      h.shard_sizes[g] = r.get_u64();
      if (h.shard_sizes[g] > (1ULL << 40))
        throw FormatError("chunked container: implausible parity shard");
      // Shard sizes are archive data: the running total must not wrap
      // 64 bits, or the parity-vs-container bound below checks a
      // wrapped sum and shard reads go out of bounds.
      const std::uint64_t group_bytes =
          static_cast<std::uint64_t>(h.parity_m) * h.shard_sizes[g];
      if (group_bytes > UINT64_MAX - parity_bytes)
        throw FormatError("chunked container: parity exceeds the container");
      parity_bytes += group_bytes;
      for (std::size_t j = 0; j < h.parity_m; ++j)
        h.parity_crcs[g * h.parity_m + j] = r.get_u32();
    }
  }
  // v2+ seals everything up to here — fields *and* tables — so a
  // flipped table byte is caught before any frame bytes are touched.
  read_header_seal(r, container, h.version, "chunked container", h.header);
  h.frames_begin = r.position();

  // Frame table sanity: contiguous, in-bounds frames that exactly fill
  // the container (no trailing bytes). Sizes are archive data, so
  // accumulate against the actual frame-area size instead of trusting
  // the sum not to wrap 64 bits. For v3 the frame area stops where the
  // parity area starts.
  const std::uint64_t tail = container.size() - h.frames_begin;
  if (parity_bytes > tail)
    throw FormatError("chunked container: parity exceeds the container");
  const std::uint64_t frame_area = tail - parity_bytes;
  std::uint64_t expected = 0;
  for (std::size_t f = 0; f < h.frame_count; ++f) {
    if (h.frame_offsets[f] != expected)
      throw FormatError("chunked container: non-contiguous frame table");
    if (h.frame_sizes[f] > frame_area - expected)
      throw FormatError("chunked container: frame exceeds the container");
    expected += h.frame_sizes[f];
  }
  if (expected != frame_area)
    throw FormatError("chunked container: frame area size mismatch");
  h.parity_begin = h.frames_begin + static_cast<std::size_t>(frame_area);
  // Every frame must fit its group's shard (parity runs over
  // zero-padded payloads, so a shorter shard cannot cover the frame).
  for (std::size_t f = 0; f < h.frame_count && h.parity_m != 0; ++f)
    if (h.frame_sizes[f] > h.shard_sizes[f / h.parity_k])
      throw FormatError("chunked container: frame exceeds its parity shard");
}

ParityInfo detail::parity_info(const ContainerHeader& h) {
  ParityInfo info;
  info.parity_k = h.parity_k;
  info.parity_m = h.parity_m;
  info.groups = h.groups();
  for (std::size_t g = 0; g < info.groups; ++g)
    info.parity_bytes += h.parity_m * h.shard_sizes[g];
  return info;
}

DecodePreflight detail::container_preflight(
    std::span<const std::uint8_t> container, const ContainerHeader& h) {
  DecodePreflight pf;
  pf.decoded_bytes =
      static_cast<std::uint64_t>(h.total) * sizeof(float);
  // Serial-decode peak: the output buffer plus the most expensive single
  // frame's transient working set (frames are decoded one slot at a
  // time; a parallel decode can hold up to `threads` frames in flight,
  // which the runtime per-allocation charges still bound exactly).
  std::uint64_t worst_frame = 0;
  for (std::size_t f = 0; f < h.frame_count; ++f) {
    const DpzArchiveInfo info = dpz_inspect(h.frame(container, f));
    worst_frame =
        std::max(worst_frame, dpz_decode_preflight(info).peak_bytes);
  }
  pf.peak_bytes = pf.decoded_bytes > UINT64_MAX - worst_frame
                      ? UINT64_MAX
                      : pf.decoded_bytes + worst_frame;
  return pf;
}

ParityInfo chunked_parity_info(std::span<const std::uint8_t> container) {
  return detail::parity_info(parse_header(container));
}

DecodePreflight chunked_decode_preflight(
    std::span<const std::uint8_t> container) {
  return detail::container_preflight(container, parse_header(container));
}

}  // namespace dpz
