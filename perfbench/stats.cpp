#include "stats.h"

#include <algorithm>

namespace perfbench {

namespace {

Percentile at_rank(std::vector<double> sorted, std::size_t index) {
  Percentile p;
  p.n = sorted.size();
  if (sorted.empty()) return p;
  p.value = sorted[index];
  p.beyond = sorted.size() - 1 - index;
  p.pct = 100.0 * static_cast<double>(index + 1) /
          static_cast<double>(sorted.size());
  return p;
}

std::vector<double> sorted_copy(std::span<const double> samples) {
  std::vector<double> v(samples.begin(), samples.end());
  std::sort(v.begin(), v.end());
  return v;
}

std::size_t median_index(std::size_t n) { return n == 0 ? 0 : (n + 1) / 2 - 1; }

}  // namespace

Percentile median(std::span<const double> samples) {
  return at_rank(sorted_copy(samples), median_index(samples.size()));
}

Percentile tail(std::span<const double> samples, std::size_t min_beyond) {
  const std::size_t n = samples.size();
  const std::size_t mid = median_index(n);
  const std::size_t index =
      n > min_beyond && n - 1 - min_beyond > mid ? n - 1 - min_beyond : mid;
  return at_rank(sorted_copy(samples), index);
}

double interquartile_mean(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  const std::vector<double> v = sorted_copy(samples);
  const std::size_t lo = v.size() < 4 ? 0 : v.size() / 4;
  const std::size_t hi = v.size() - lo;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

void OpLog::add(bool ok, double input_bytes, double compress_s,
                double decompress_s, std::span<const double> read_ms) {
  ++attempted_;
  const double mb = ok ? input_bytes / 1e6 : 0.0;
  compress_mb_s_.push_back(compress_s > 0.0 ? mb / compress_s : 0.0);
  decompress_mb_s_.push_back(decompress_s > 0.0 ? mb / decompress_s : 0.0);
  if (ok) {
    compress_ms_.push_back(compress_s * 1e3);
    decompress_ms_.push_back(decompress_s * 1e3);
    read_ms_.insert(read_ms_.end(), read_ms.begin(), read_ms.end());
  } else {
    ++failed_;
    compress_ms_.push_back(kMissed);
    decompress_ms_.push_back(kMissed);
    read_ms_.insert(read_ms_.end(), read_ms.size(), kMissed);
  }
}

double OpLog::ok_fraction() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(attempted_ - failed_) /
                               static_cast<double>(attempted_);
}

double OpLog::compress_mb_s() const {
  return interquartile_mean(compress_mb_s_);
}

double OpLog::decompress_mb_s() const {
  return interquartile_mean(decompress_mb_s_);
}

void InputBook::add(std::uint64_t key, double input_bytes,
                    double archive_bytes, double psnr_db,
                    double max_err_rel) {
  by_key_.emplace(key, Entry{input_bytes, archive_bytes, psnr_db, max_err_rel});
}

double InputBook::compression_ratio() const {
  double in = 0.0;
  double out = 0.0;
  for (const auto& [key, e] : by_key_) {
    in += e.input_bytes;
    out += e.archive_bytes;
  }
  return out > 0.0 ? in / out : 0.0;
}

std::vector<double> InputBook::psnr_db() const {
  std::vector<double> v;
  for (const auto& [key, e] : by_key_) v.push_back(e.psnr_db);
  return v;
}

std::vector<double> InputBook::max_err_rel() const {
  std::vector<double> v;
  for (const auto& [key, e] : by_key_) v.push_back(e.max_err_rel);
  return v;
}

double covariance_gflop(std::size_t m, std::size_t n) {
  const auto md = static_cast<double>(m);
  return md * md * static_cast<double>(n) / 1e9;
}

double tridiagonalize_gflop(std::size_t m) {
  const auto md = static_cast<double>(m);
  return 4.0 / 3.0 * md * md * md / 1e9;
}

double project_gflop(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k) / 1e9;
}

double coverage(double layers_ms, double op_ms) {
  return op_ms > 0.0 ? layers_ms / op_ms : 0.0;
}

double fanout_efficiency(double serial_frames_ms, unsigned threads,
                         double wall_ms) {
  return threads == 0 || wall_ms <= 0.0
             ? 0.0
             : serial_frames_ms / (static_cast<double>(threads) * wall_ms);
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace perfbench
