// perfbench: runs one DPZ benchmark workload and writes its metrics.
//
//   perfbench --workload <snapshot|campaign> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir> --out <file>
//             [--trace-prefix <path>]
//
// Prints a human-readable table on stdout and writes the result as JSON
// to --out. perfbench/run.py builds this program, runs it, completes a
// traced run's per-layer metrics from `dpz trace-report`, and prints the
// final one-line result. Exit status: 0 when every output check passed,
// 1 when one failed, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace {

void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out << '\\' << ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch));
      out << buf;
    } else {
      out << ch;
    }
  }
  out << '"';
}

void write_number(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

void write_result(const std::string& path, const perfbench::RunResult& r) {
  std::ofstream out(path);
  out << "{\"correct\":" << (r.correct ? "true" : "false")
      << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
      << ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    out << (i == 0 ? "" : ",");
    write_json_string(out, m.name);
    out << ":{\"value\":";
    write_number(out, m.value);
    out << ",\"unit\":";
    write_json_string(out, m.unit);
    out << "}";
  }
  out << "},\"notes\":[";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    out << (i == 0 ? "" : ",");
    write_json_string(out, r.notes[i]);
  }
  out << "],\"trace_requests\":"
      << (r.trace_requests_json.empty() ? "[]" : r.trace_requests_json)
      << "}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

void print_table(const perfbench::RunResult& r) {
  std::printf("%-34s %16s  %s\n", "metric", "value", "unit");
  for (const perfbench::Metric& m : r.metrics) {
    std::printf("%-34s %16.6g  %-8s%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.empty() ? "" : "  ", m.note.c_str());
  }
  std::printf("ops attempted %zu, failed %zu, outputs %s\n", r.attempted,
              r.failed, r.correct ? "correct" : "INCORRECT");
  for (const std::string& n : r.notes) std::printf("note: %s\n", n.c_str());
  std::fflush(stdout);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir> --out <file> "
               "[--trace-prefix <path>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  std::string out_path;
  int trace = -1;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string val = argv[i + 1];
      if (key == "--workload") o.workload = val;
      else if (key == "--seed") o.seed = std::stoull(val);
      else if (key == "--seconds") o.seconds = std::stod(val);
      else if (key == "--trace") trace = std::stoi(val);
      else if (key == "--workdir") o.workdir = val;
      else if (key == "--out") out_path = val;
      else if (key == "--trace-prefix") o.trace_prefix = val;
      else return usage(("unknown option " + key).c_str());
    }
  } catch (const std::exception&) {
    return usage("malformed option value");
  }
  if (argc % 2 != 1) return usage("options take one value each");
  if (o.workload.empty() || o.workdir.empty() || out_path.empty() ||
      (trace != 0 && trace != 1) || !(o.seconds > 0.0))
    return usage("missing or invalid option");
  if (trace == 1 && o.trace_prefix.empty())
    return usage("--trace 1 needs --trace-prefix");

  try {
    const perfbench::RunResult r =
        trace == 1 ? perfbench::run_traced(o) : perfbench::run_timed(o);
    std::filesystem::remove_all(o.workdir);
    print_table(r);
    write_result(out_path, r);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    return 1;
  }
}
