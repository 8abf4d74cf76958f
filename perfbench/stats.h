// Arithmetic of the DPZ benchmark: latency percentiles, op accounting,
// computed flop counts, trace coverage and fan-out efficiency. Kept apart
// from the workloads so perfbench_selftest can check it on hand-made
// inputs (selftest.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <vector>

namespace perfbench {

/// Latency recorded for an op that failed: it misses every latency limit.
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// One percentile of a latency sample set (nearest-rank on the sorted
/// samples; failed ops sort last as kMissed).
struct Percentile {
  double pct = 0.0;         ///< percentile in [0, 100]
  double value = 0.0;       ///< sample at that rank
  std::size_t beyond = 0;   ///< samples ranked above it
  std::size_t n = 0;        ///< sample count
};

/// Median (nearest rank: the ceil(n/2)-th smallest sample).
Percentile median(std::span<const double> samples);

/// The highest percentile with at least `min_beyond` samples ranked above
/// it: the (n - min_beyond)-th smallest sample. With fewer than
/// 2 * min_beyond + 1 samples no such percentile lies above the median,
/// and the median is returned instead (its `beyond` tells the reader).
Percentile tail(std::span<const double> samples, std::size_t min_beyond = 10);

/// Interquartile mean: the mean of the samples ranked from the first to
/// the third quartile (nearest rank), so a few stalled or lucky ops at
/// either end do not move it. All samples when there are fewer than 4.
double interquartile_mean(std::span<const double> samples);

/// Accounting for the ops of one timed run. Throughput is per op (input
/// MB / op wall time); a failed op completes no MB, so it counts as 0 MB/s
/// and ranks last.
class OpLog {
 public:
  /// Records one op. `compress_s`/`decompress_s` are the wall times spent
  /// (a failed op reports what it spent before failing); `read_ms` holds
  /// one entry per read the op made or planned.
  void add(bool ok, double input_bytes, double compress_s,
           double decompress_s, std::span<const double> read_ms);

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] double ok_fraction() const;
  /// Interquartile mean of per-op compress throughput, MB (1e6 bytes)/s.
  [[nodiscard]] double compress_mb_s() const;
  [[nodiscard]] double decompress_mb_s() const;

  /// Per-op latencies in ms; failed ops hold kMissed.
  [[nodiscard]] const std::vector<double>& compress_ms() const {
    return compress_ms_;
  }
  [[nodiscard]] const std::vector<double>& decompress_ms() const {
    return decompress_ms_;
  }
  [[nodiscard]] const std::vector<double>& read_ms() const { return read_ms_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<double> compress_mb_s_;
  std::vector<double> decompress_mb_s_;
  std::vector<double> compress_ms_;
  std::vector<double> decompress_ms_;
  std::vector<double> read_ms_;
};

/// Output quality per distinct input. An input encodes to the same bytes
/// every time (the digest checks enforce it), so only its first ok op is
/// recorded: the quality metrics then depend on the seed alone, not on how
/// many ops a run fitted in or which inputs its last partial cycle reached.
class InputBook {
 public:
  /// Records input `key` unless it is already recorded. `psnr_db` and
  /// `max_err_rel` are the op's worst over the fields it decoded.
  void add(std::uint64_t key, double input_bytes, double archive_bytes,
           double psnr_db, double max_err_rel);

  [[nodiscard]] std::size_t inputs() const { return by_key_.size(); }
  /// Summed input bytes over summed archive bytes.
  [[nodiscard]] double compression_ratio() const;
  [[nodiscard]] std::vector<double> psnr_db() const;
  [[nodiscard]] std::vector<double> max_err_rel() const;

 private:
  struct Entry {
    double input_bytes;
    double archive_bytes;
    double psnr_db;
    double max_err_rel;
  };
  std::map<std::uint64_t, Entry> by_key_;
};

/// Computed flops of the Stage-2 kernels, in GFLOP. They count the work
/// the algorithm states, not what the hardware executes.
/// Covariance of an M x N block matrix: M^2 N (upper triangle, one
/// multiply and one add per term).
double covariance_gflop(std::size_t m, std::size_t n);
/// Householder tridiagonalization of an M x M matrix: 4/3 M^3.
double tridiagonalize_gflop(std::size_t m);
/// Projection of M x N blocks onto k components: 2 M N k.
double project_gflop(std::size_t m, std::size_t n, std::size_t k);

/// Share of an op's wall time covered by its layer spans.
double coverage(double layers_ms, double op_ms);
/// Fan-out efficiency: serial per-frame work over the thread-time the
/// parallel call had, sum(serial frame ms) / (threads * wall ms).
double fanout_efficiency(double serial_frames_ms, unsigned threads,
                         double wall_ms);

/// 64-bit FNV-1a digest of a byte string.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes);

}  // namespace perfbench
