#include "spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

Tracer::Tracer() : epoch_ns_(steady_ns()) {}

double Tracer::now_us() const {
  return static_cast<double>(steady_ns() - epoch_ns_) / 1e3;
}

std::uint64_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock(m_);
  return next_id_++;
}

void Tracer::record(const SpanRecord& span) {
  const std::lock_guard<std::mutex> lock(m_);
  spans_.push_back(span);
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(m_);
  return spans_;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"id\":%llu,\"parent\":%llu,\"op\":%llu}}",
                  i == 0 ? "" : ",", s.name, s.parent == 0 ? "op" : "layer",
                  s.start_us, s.end_us - s.start_us, s.tid,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.op));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Span::Span(const SpanCtx& ctx, const char* name) : rec_tracer_(ctx.tracer) {
  rec_.name = name;
  rec_.id = rec_tracer_->next_id();
  rec_.parent = ctx.parent;
  rec_.op = ctx.op;
  rec_.tid = thread_number();
  rec_.start_us = rec_tracer_->now_us();
}

Span::~Span() {
  rec_.end_us = rec_tracer_->now_us();
  rec_tracer_->record(rec_);
}

}  // namespace perfbench
