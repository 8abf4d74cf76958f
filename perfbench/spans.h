// Span recorder for the benchmark's traced pass.
//
// The replay (replay.h) opens one span around each call into a library
// module. Spans are kept in memory and written once, at the end, as a
// Chrome trace-event file that `dpz trace-report` reads. Each span
// carries its name, start, end, parent span and op id; the file's "tid"
// is a small per-thread number, so spans a pool worker records nest
// under that worker's own spans in the report.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  ///< static string, e.g. "linalg.covariance"
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for an op root
  std::uint64_t op = 0;
  std::uint32_t tid = 0;
  double start_us = 0.0;
  double end_us = 0.0;
  [[nodiscard]] double ms() const { return (end_us - start_us) / 1e3; }
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Microseconds since this tracer was made (steady clock).
  [[nodiscard]] double now_us() const;
  std::uint64_t next_id();
  void record(const SpanRecord& span);

  /// Copy of every span recorded so far.
  [[nodiscard]] std::vector<SpanRecord> spans() const;
  /// Writes the Chrome trace-event JSON; returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::int64_t epoch_ns_;
  mutable std::mutex m_;
  std::uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
};

/// Where a new span goes: its tracer, op and parent span.
struct SpanCtx {
  Tracer* tracer = nullptr;
  std::uint64_t op = 0;
  std::uint64_t parent = 0;
};

/// RAII span. Recorded when it goes out of scope (also on exceptions).
class Span {
 public:
  Span(const SpanCtx& ctx, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Context for spans nested under this one.
  [[nodiscard]] SpanCtx child() const { return {rec_tracer_, rec_.op, rec_.id}; }

 private:
  Tracer* rec_tracer_;
  SpanRecord rec_;
};

}  // namespace perfbench
