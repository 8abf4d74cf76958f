// The benchmark's two workloads and the two ways of running them.
//
// Every workload is a closed loop with one caller: the next op starts
// only when the previous one returned. Every library call runs on 2
// worker threads. Inputs come from the src/data generators, are built
// from the seed before anything is timed, and stay in memory.
//
//   snapshot    one DPZ-s archive per 2-D climate field: compress and
//               store, read back and decode, progressive preview read.
//   campaign    chunked DZC3 containers with Reed-Solomon parity, one
//               per field of an output step: compress and write, read
//               back and decode, random single-frame reads.
//
// A timed run (run_timed) measures the end-to-end metrics with tracing
// off. A traced run (run_traced) replays each op through the library's
// modules at 1 and at 2 threads (replay.h) and derives the per-layer
// metrics; perfbench/run.py completes them from `dpz trace-report`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string workdir;  ///< scratch directory for stored archives
  std::string trace_prefix;  ///< traced run: <prefix>_1t.json, _2t.json
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< shown in the human-readable table only
};

struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  /// Per-layer metrics run.py derives from `dpz trace-report`, as JSON
  /// (traced runs only).
  std::string trace_requests_json;
  std::vector<std::string> notes;
};

RunResult run_timed(const RunOptions& options);
RunResult run_traced(const RunOptions& options);

}  // namespace perfbench
