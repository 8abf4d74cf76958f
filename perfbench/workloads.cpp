#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>

#include "core/chunked.h"
#include "core/dpz.h"
#include "data/datasets.h"
#include "io/file_io.h"
#include "metrics/metrics.h"
#include "replay.h"
#include "stats.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

using dpz::FloatArray;
using Clock = std::chrono::steady_clock;

/// Worker threads of every library call in every workload. Two, not the
/// machine's four: on a shared 4-vCPU host, 4-thread throughput moved
/// +-10% between back-to-back runs of the same code, 2-thread +-3%.
constexpr unsigned kThreads = 2;
/// Set-up is repeated and its median reported, so one slow repetition
/// (cold caches, a busy neighbour) does not move setup_s.
constexpr int kSetupRepeats = 5;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// An output check failed: the program returned a wrong result.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool same_values(const FloatArray& a, const FloatArray& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.size() * sizeof(float)) == 0;
}

/// (1 - w) * a + w * b, elementwise.
FloatArray blend(const FloatArray& a, const FloatArray& b, double w) {
  FloatArray out(a.shape());
  for (std::size_t i = 0; i < a.size(); ++i)
    out.flat()[i] = static_cast<float>((1.0 - w) * a.flat()[i] +
                                       w * b.flat()[i]);
  return out;
}

/// Archive digests by input: a repeat of one input, at any thread
/// count, must produce the same bytes.
class DigestBook {
 public:
  void check(std::uint64_t key, std::uint64_t digest, const char* what) {
    const auto [it, fresh] = seen_.emplace(key, digest);
    if (!fresh && it->second != digest)
      throw CheckFailure(std::string(what) +
                         ": archive bytes differ between repeats of input " +
                         std::to_string(key));
  }

 private:
  std::map<std::uint64_t, std::uint64_t> seen_;
};

/// Wall time of one timed op, split the way the metrics need it. `phase`
/// tells the runner where time spent before a failure belongs.
struct OpTiming {
  enum Phase { kCompress, kDecompress, kRead };
  Phase phase = kCompress;
  double input_bytes = 0.0;
  double archive_bytes = 0.0;
  double compress_s = 0.0;
  double decompress_s = 0.0;
  std::vector<double> read_ms;
};

/// Reconstruction quality and compression ratio over the distinct inputs
/// of ok ops (see InputBook). An op that decodes several fields counts
/// once, with its worst field.
struct Quality {
  InputBook book;

  /// The per-op output check: the decode has the input's shape and a
  /// finite PSNR. Returns its error statistics.
  static dpz::ErrorStats check(const FloatArray& original,
                               const FloatArray& decoded, const char* what) {
    if (decoded.shape() != original.shape())
      throw CheckFailure(std::string(what) + ": decoded shape differs");
    const dpz::ErrorStats e =
        dpz::compute_error_stats(original.flat(), decoded.flat());
    if (!std::isfinite(e.psnr_db))
      throw CheckFailure(std::string(what) + ": PSNR is not finite");
    return e;
  }
  /// Records the op that encoded input `key`: its bytes from `t`, and per
  /// field the PSNR and the largest pointwise |x - x_hat| over the field's
  /// value range.
  void add(std::uint64_t key, const OpTiming& t,
           std::span<const dpz::ErrorStats> fields) {
    double psnr = std::numeric_limits<double>::infinity();
    double err = 0.0;
    for (const dpz::ErrorStats& e : fields) {
      psnr = std::min(psnr, e.psnr_db);
      if (e.value_range > 0.0)
        err = std::max(err, e.max_abs_error / e.value_range);
    }
    book.add(key, t.input_bytes, t.archive_bytes, psnr, err);
  }
};

/// One thread count's share of a traced run.
struct TracePass {
  explicit TracePass(unsigned t) : threads(t) {}
  unsigned threads;
  Tracer tracer;
  LayerCounts counts;
  std::uint64_t next_op = 1;
  double real_compress_ms = 0.0;  ///< library compress calls alone
  double real_op_ms = 0.0;        ///< whole ops, as the timed run makes them
  std::uint64_t io_write_bytes = 0;
  std::uint64_t io_read_bytes = 0;
  std::size_t frames = 0;

  SpanCtx root() { return {&tracer, next_op, 0}; }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Timed set-up: pool start and a warm-up op.
  virtual void setup() = 0;
  virtual std::size_t reads_per_op() const = 0;
  virtual void op(std::size_t i, OpTiming& t, Quality& q) = 0;
  /// Untimed probes of known-hostile inputs, reported as notes.
  virtual void probe(std::vector<std::string>& /*notes*/) {}

  virtual void trace_op(std::size_t i, TracePass& pass) = 0;
  /// Span that encodes / decodes one frame (one independently decodable
  /// DPZ unit) in the replay.
  virtual const char* encode_unit() const { return "op.compress"; }
  virtual const char* decode_unit() const { return "op.decompress"; }

 protected:
  explicit Workload(const std::string& workdir) : dir_(workdir) {
    std::filesystem::create_directories(dir_);
  }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  void start_pool() {
    ambient_.reset();
    ambient_.emplace(kThreads);
  }

  /// Writes `bytes` the way a timed op stores an archive, inside an
  /// io.write span of the replay.
  static void traced_write(const SpanCtx& ctx, TracePass& p,
                           const std::string& file,
                           const std::vector<std::uint8_t>& bytes) {
    const Span s(ctx, "io.write");
    dpz::write_bytes(file, bytes);
    p.io_write_bytes += bytes.size();
  }
  static std::vector<std::uint8_t> traced_read(const SpanCtx& ctx,
                                               TracePass& p,
                                               const std::string& file) {
    const Span s(ctx, "io.read");
    std::vector<std::uint8_t> bytes = dpz::read_bytes(file);
    p.io_read_bytes += bytes.size();
    return bytes;
  }

  DigestBook digests_;

 private:
  std::filesystem::path dir_;
  /// Ambient pool for calls without a threads knob
  /// (chunked_decompress_frame).
  std::optional<dpz::ScopedThreads> ambient_;
};

// ---------------------------------------------------------------- snapshot

/// Ten 2-D climate fields of one shape (810 x 1620: M = 810, k ~ 30-75),
/// five CESM analogues twice each. Stage 2 dominates their compression.
/// Input 5 carries one isolated spike, 50x the field's range above its
/// maximum: a hostile input of ROADMAP item 4. A copy of input 0 with a
/// NaN fill-value mask (a block a third of the rows high and a third of
/// the columns wide) is run once per run, untimed, as a probe: its compress fails with a clean error today,
/// and a timed op that fails would break the benchmark's rule that no op
/// fails.
class SnapshotWorkload final : public Workload {
 public:
  SnapshotWorkload(std::uint64_t seed, const std::string& dir)
      : Workload(dir) {
    const dpz::ScopedThreads gen(kThreads);
    const char* names[] = {"CLDHGH", "CLDLOW", "FREQSH", "FLDSC", "PHIS"};
    for (std::size_t i = 0; i < kPool; ++i)
      pool_.push_back(
          dpz::make_dataset(names[i % 5], kScale, mix(seed, i)).data);
    dpz::Rng rng(mix(seed, 100));
    FloatArray& spiky = pool_[kSpikeInput];
    const auto [lo, hi] =
        std::minmax_element(spiky.flat().begin(), spiky.flat().end());
    spiky.flat()[rng.uniform_index(spiky.size())] =
        *hi + 50.0f * (*hi - *lo);

    nan_field_ = pool_[0];
    const std::size_t rows = nan_field_.shape()[0];
    const std::size_t cols = nan_field_.shape()[1];
    const std::size_t r0 = rng.uniform_index(rows - rows / 3);
    const std::size_t c0 = rng.uniform_index(cols - cols / 3);
    for (std::size_t r = r0; r < r0 + rows / 3; ++r)
      for (std::size_t c = c0; c < c0 + cols / 3; ++c)
        nan_field_.flat()[r * cols + c] =
            std::numeric_limits<float>::quiet_NaN();
    config_ = dpz::DpzConfig::strict();
    config_.threads = kThreads;
  }

  void setup() override {
    start_pool();
    OpTiming t;
    Quality q;
    op(0, t, q);
  }
  std::size_t reads_per_op() const override { return 1; }

  void op(std::size_t i, OpTiming& t, Quality& q) override {
    const std::size_t idx = i % kPool;
    const FloatArray& x = pool_[idx];
    const std::string file = path("snapshot_" + std::to_string(idx) + ".dpz");
    t.input_bytes = static_cast<double>(x.size() * sizeof(float));

    auto t0 = Clock::now();
    dpz::DpzStats stats;
    const std::vector<std::uint8_t> archive =
        dpz::dpz_compress(x, config_, &stats);
    dpz::write_bytes(file, archive);
    t.compress_s = ms_since(t0) / 1e3;
    t.archive_bytes = static_cast<double>(archive.size());
    digests_.check(idx, fnv1a(archive), "snapshot");

    t.phase = OpTiming::kDecompress;
    t0 = Clock::now();
    const FloatArray y =
        dpz::dpz_decompress(dpz::read_bytes(file), 0, kThreads);
    t.decompress_s = ms_since(t0) / 1e3;

    t.phase = OpTiming::kRead;
    t0 = Clock::now();
    const FloatArray preview = dpz::dpz_decompress(
        dpz::read_bytes(file), std::max<std::size_t>(1, stats.k / 4),
        kThreads);
    t.read_ms.push_back(ms_since(t0));

    Quality::check(x, preview, "snapshot preview");
    const dpz::ErrorStats errors = Quality::check(x, y, "snapshot");
    q.add(idx, t, {&errors, 1});
  }

  void probe(std::vector<std::string>& notes) override {
    try {
      const std::vector<std::uint8_t> archive =
          dpz::dpz_compress(nan_field_, config_);
      const FloatArray y = dpz::dpz_decompress(archive, 0, kThreads);
      if (y.shape() != nan_field_.shape())
        throw CheckFailure("NaN-mask probe: decoded shape differs");
      notes.push_back("hostile probe (NaN fill mask): compressed, " +
                      std::to_string(archive.size()) + " bytes");
    } catch (const dpz::Error& e) {
      notes.push_back(std::string("hostile probe (NaN fill mask): clean "
                                  "error (known defect): ") +
                      e.what());
    }
  }

  void trace_op(std::size_t i, TracePass& p) override {
    const std::size_t idx = i % kPool;
    const FloatArray& x = pool_[idx];
    const std::string file = path("snapshot_" + std::to_string(idx) + ".dpz");
    dpz::DpzConfig cfg = config_;
    cfg.threads = p.threads;

    auto t0 = Clock::now();
    dpz::DpzStats stats;
    const std::vector<std::uint8_t> archive = dpz::dpz_compress(x, cfg, &stats);
    p.real_compress_ms += ms_since(t0);
    dpz::write_bytes(file, archive);
    const double compress_ms = ms_since(t0);
    t0 = Clock::now();
    const FloatArray y =
        dpz::dpz_decompress(dpz::read_bytes(file), 0, p.threads);
    p.real_op_ms += compress_ms + ms_since(t0);
    digests_.check(idx, fnv1a(archive), "snapshot (traced)");

    ReplayArchive replayed;
    {
      const Span root(p.root(), "op.compress");
      replayed = replay_dpz_compress(x, cfg, root.child(), p.counts);
      traced_write(root.child(), p, file, archive);
    }
    FloatArray decoded;
    {
      const Span root(p.root(), "op.decompress");
      (void)traced_read(root.child(), p, file);
      decoded = replay_dpz_decompress(replayed, root.child(), p.counts);
    }
    ++p.next_op;
    ++p.frames;
    if (replayed.k != stats.k)
      throw CheckFailure("snapshot replay selected k=" +
                         std::to_string(replayed.k) + ", the real call k=" +
                         std::to_string(stats.k));
    if (!same_values(decoded, y))
      throw CheckFailure("snapshot replay decodes differently");
  }

 private:
  static constexpr std::size_t kPool = 10;
  static constexpr std::size_t kSpikeInput = 5;
  static constexpr double kScale = 0.45;
  std::vector<FloatArray> pool_;
  FloatArray nan_field_;
  dpz::DpzConfig config_;
};

// ---------------------------------------------------------------- campaign

/// Output steps of a simulation campaign. A step holds a 2-D climate
/// field (1024 x 2048) and a 3-D turbulence field (128^3), 2^21 values
/// each; each field is packed into a DZC3 container of 2^18-value frames
/// (8 per container) with 8+2 Reed-Solomon parity. One op writes one
/// step: compress and write both containers, read both back and decode
/// them, then four reads of one random frame index from both containers.
/// The two fields differ in cost by about 3x, so an op (and a read)
/// always covers both: per-container samples would form two populations.
/// Steps blend four seeded fields per kind along a period of 8 steps, so
/// every step recurs within a run and its digests are checked again;
/// four independent fields per kind keep the seed-to-seed spread of the
/// quality metrics down.
class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(std::uint64_t seed, const std::string& dir)
      : Workload(dir), seed_(seed) {
    const dpz::ScopedThreads gen(kThreads);
    const double climate_scale = 1024.0 / 1800.0;
    for (std::uint64_t j = 0; j < kBases; ++j) {
      bases_[0][j] =
          dpz::make_dataset("CLDHGH", climate_scale, mix(seed, j)).data;
      bases_[1][j] =
          dpz::make_dataset("Isotropic", 1.0, mix(seed, 10 + j)).data;
    }
    config_.dpz = dpz::DpzConfig::strict();
    config_.chunk_values = std::size_t{1} << 18;
    config_.threads = kThreads;
    config_.parity_k = 8;
    config_.parity_m = 2;
  }

  void setup() override {
    start_pool();
    OpTiming t;
    Quality q;
    op(0, t, q);
  }
  std::size_t reads_per_op() const override { return kReads; }

  void op(std::size_t i, OpTiming& t, Quality& q) override {
    FloatArray x[kKinds];
    std::vector<std::uint8_t> bytes[kKinds];
    FloatArray y[kKinds];
    std::size_t frames = 0;
    for (std::size_t kind = 0; kind < kKinds; ++kind) {
      x[kind] = input(i, kind);
      t.input_bytes += static_cast<double>(x[kind].size() * sizeof(float));
    }

    auto t0 = Clock::now();
    for (std::size_t kind = 0; kind < kKinds; ++kind) {
      dpz::ChunkedStats stats;
      const std::vector<std::uint8_t> container =
          dpz::chunked_compress(x[kind], config_, &stats);
      dpz::write_bytes(file(kind), container);
      t.archive_bytes += static_cast<double>(container.size());
      digests_.check(input_key(i, kind), fnv1a(container), "campaign");
      frames = stats.frame_count;
    }
    t.compress_s = ms_since(t0) / 1e3;

    t.phase = OpTiming::kDecompress;
    t0 = Clock::now();
    for (std::size_t kind = 0; kind < kKinds; ++kind) {
      bytes[kind] = dpz::read_bytes(file(kind));
      y[kind] = dpz::chunked_decompress(bytes[kind], kThreads);
    }
    t.decompress_s = ms_since(t0) / 1e3;
    dpz::ErrorStats errors[kKinds];
    for (std::size_t kind = 0; kind < kKinds; ++kind)
      errors[kind] = Quality::check(x[kind], y[kind], "campaign");

    t.phase = OpTiming::kRead;
    dpz::Rng rng(mix(seed_, 1000 + i));
    for (std::size_t r = 0; r < kReads; ++r) {
      const std::size_t f = rng.uniform_index(frames);
      t0 = Clock::now();
      dpz::ChunkView view[kKinds];
      for (std::size_t kind = 0; kind < kKinds; ++kind)
        view[kind] = dpz::chunked_decompress_frame(bytes[kind], f);
      t.read_ms.push_back(ms_since(t0));
      for (std::size_t kind = 0; kind < kKinds; ++kind) {
        const dpz::ChunkView& v = view[kind];
        if (v.value_offset + v.values.size() > y[kind].size() ||
            std::memcmp(v.values.data(),
                        y[kind].flat().data() + v.value_offset,
                        v.values.size() * sizeof(float)) != 0)
          throw CheckFailure("campaign: frame " + std::to_string(f) +
                             " read differs from the full decode");
      }
    }
    q.add(i % kPeriod, t, errors);
  }

  void trace_op(std::size_t i, TracePass& p) override {
    dpz::ChunkedConfig cfg = config_;
    cfg.threads = p.threads;
    for (std::size_t kind = 0; kind < kKinds; ++kind) {
      const FloatArray x = input(i, kind);
      auto t0 = Clock::now();
      dpz::ChunkedStats stats;
      const std::vector<std::uint8_t> container =
          dpz::chunked_compress(x, cfg, &stats);
      p.real_compress_ms += ms_since(t0);
      dpz::write_bytes(file(kind), container);
      const double compress_ms = ms_since(t0);
      t0 = Clock::now();
      const FloatArray y =
          dpz::chunked_decompress(dpz::read_bytes(file(kind)), p.threads);
      p.real_op_ms += compress_ms + ms_since(t0);
      digests_.check(input_key(i, kind), fnv1a(container),
                     "campaign (traced)");

      ContainerReplay replayed;
      {
        const Span root(p.root(), "op.compress");
        replayed = replay_chunked_compress(x, cfg, root.child(), p.counts);
        traced_write(root.child(), p, file(kind), container);
      }
      FloatArray decoded;
      {
        const Span root(p.root(), "op.decompress");
        (void)traced_read(root.child(), p, file(kind));
        decoded = replay_chunked_decompress(replayed, root.child(), p.counts);
      }
      ++p.next_op;
      p.frames += replayed.frames.size();
      if (replayed.frames.size() != stats.frame_count)
        throw CheckFailure("campaign replay made a different frame count");
      // Bit-identical frame decodes need each frame's k, basis and codes
      // to match the real container's.
      if (!same_values(decoded, y))
        throw CheckFailure("campaign replay decodes differently");
    }
  }
  const char* encode_unit() const override { return "core.frame_encode"; }
  const char* decode_unit() const override { return "core.frame_decode"; }

 private:
  static constexpr std::size_t kKinds = 2;
  static constexpr std::size_t kBases = 4;
  static constexpr std::size_t kReads = 4;
  static constexpr std::size_t kPeriod = 8;

  std::string file(std::size_t kind) const {
    return path("campaign_" + std::to_string(kind) + ".dzc");
  }
  std::uint64_t input_key(std::size_t i, std::size_t kind) const {
    return i % kPeriod * kKinds + kind;
  }
  /// Step s blends base fields s and s + 1 (mod 4) with weight 1/4 in
  /// its first half-period and 3/4 in its second.
  FloatArray input(std::size_t i, std::size_t kind) const {
    const std::size_t step = i % kPeriod;
    return blend(bases_[kind][step % kBases],
                 bases_[kind][(step + 1) % kBases],
                 step < kPeriod / 2 ? 0.25 : 0.75);
  }

  std::uint64_t seed_;
  FloatArray bases_[kKinds][kBases];
  dpz::ChunkedConfig config_;
};

std::unique_ptr<Workload> make_workload(const RunOptions& o) {
  if (o.workload == "snapshot")
    return std::make_unique<SnapshotWorkload>(o.seed, o.workdir);
  if (o.workload == "campaign")
    return std::make_unique<CampaignWorkload>(o.seed, o.workdir);
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

std::string percentile_note(const Percentile& p) {
  std::ostringstream s;
  s.precision(3);
  s << "p" << std::fixed << p.pct << " of n=" << p.n << ", " << p.beyond
    << " beyond";
  return s.str();
}

void add_latency(RunResult& r, const std::string& stem,
                 const std::vector<double>& samples) {
  const Percentile mid = median(samples);
  const Percentile t = tail(samples);
  r.metrics.push_back({stem + "_p50", mid.value, "ms", percentile_note(mid)});
  r.metrics.push_back({stem + "_tail", t.value, "ms", percentile_note(t)});
}

// ------------------------------------------------- traced-run span algebra

/// Sums over one pass's spans.
class SpanSums {
 public:
  explicit SpanSums(std::vector<SpanRecord> spans) : spans_(std::move(spans)) {
    for (std::size_t i = 0; i < spans_.size(); ++i) by_id_[spans_[i].id] = i;
  }

  /// Total duration of spans named `name`; with `under`, only those with
  /// an ancestor named `under`.
  double ms(const std::string& name, const char* under = nullptr) const {
    double sum = 0.0;
    for (const SpanRecord& s : spans_)
      if (name == s.name && (under == nullptr || has_ancestor(s, under)))
        sum += s.ms();
    return sum;
  }
  /// Total duration of the direct children of spans named `parent`.
  double children_ms(const std::string& parent) const {
    double sum = 0.0;
    for (const SpanRecord& s : spans_) {
      if (s.parent == 0) continue;
      if (parent == spans_[by_id_.at(s.parent)].name) sum += s.ms();
    }
    return sum;
  }

 private:
  bool has_ancestor(const SpanRecord& s, const std::string& name) const {
    std::uint64_t p = s.parent;
    while (p != 0) {
      const SpanRecord& a = spans_[by_id_.at(p)];
      if (name == a.name) return true;
      p = a.parent;
    }
    return false;
  }

  std::vector<SpanRecord> spans_;
  std::map<std::uint64_t, std::size_t> by_id_;
};

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

}  // namespace

RunResult run_timed(const RunOptions& o) {
  RunResult r;
  std::unique_ptr<Workload> w = make_workload(o);

  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    w->setup();
    setup_s.push_back(ms_since(t0) / 1e3);
  }

  OpLog log;
  Quality quality;
  const auto start = Clock::now();
  for (std::size_t i = 0; i == 0 || ms_since(start) < o.seconds * 1e3; ++i) {
    OpTiming t;
    bool ok = true;
    const auto t0 = Clock::now();
    try {
      w->op(i, t, quality);
    } catch (const CheckFailure& e) {
      ok = false;
      r.correct = false;
      r.notes.push_back(std::string("CHECK FAILED: ") + e.what());
    } catch (const dpz::Error& e) {
      ok = false;
      if (log.failed() < 3)
        r.notes.push_back(std::string("op failed cleanly: ") + e.what());
    }
    if (!ok) {
      // Time spent before the failure stays in the phase it was in.
      double spent = ms_since(t0) / 1e3 - t.compress_s - t.decompress_s;
      for (const double ms : t.read_ms) spent -= ms / 1e3;
      if (t.phase == OpTiming::kCompress) t.compress_s += spent;
      if (t.phase == OpTiming::kDecompress) t.decompress_s += spent;
      t.read_ms.assign(w->reads_per_op(), kMissed);
    }
    log.add(ok, t.input_bytes, t.compress_s, t.decompress_s, t.read_ms);
    if (!r.correct) break;
  }
  try {
    w->probe(r.notes);
  } catch (const CheckFailure& e) {
    r.correct = false;
    r.notes.push_back(std::string("CHECK FAILED: ") + e.what());
  }

  r.attempted = log.attempted();
  r.failed = log.failed();
  const std::vector<double> psnr = quality.book.psnr_db();
  r.metrics.push_back({"compress_mb_s", log.compress_mb_s(), "MB/s", ""});
  r.metrics.push_back({"decompress_mb_s", log.decompress_mb_s(), "MB/s", ""});
  add_latency(r, "compress_ms", log.compress_ms());
  add_latency(r, "decompress_ms", log.decompress_ms());
  add_latency(r, "read_ms", log.read_ms());
  const std::string over_inputs =
      "over " + std::to_string(quality.book.inputs()) + " distinct inputs";
  r.metrics.push_back({"compression_ratio", quality.book.compression_ratio(),
                       "ratio", over_inputs});
  r.metrics.push_back({"psnr_db_p50", median(psnr).value, "dB", over_inputs});
  r.metrics.push_back(
      {"psnr_db_min",
       psnr.empty() ? 0.0 : *std::min_element(psnr.begin(), psnr.end()), "dB",
       over_inputs});
  // Pointwise error is printed, not reported: its maximum, and even its
  // median over inputs, moved 15-30% between seeds (an extreme of a few
  // generated fields), wider than any bound a regression gate could use.
  const std::vector<double> err = quality.book.max_err_rel();
  if (!err.empty())
    r.notes.push_back(
        "largest pointwise error / value range: max over inputs " +
        std::to_string(*std::max_element(err.begin(), err.end())) +
        ", median over inputs " + std::to_string(median(err).value));
  r.metrics.push_back({"ops_ok_frac", log.ok_fraction(), "ratio", ""});
  r.metrics.push_back({"setup_s", median(setup_s).value, "s",
                       "median of " + std::to_string(kSetupRepeats)});
  r.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB", ""});
  return r;
}

RunResult run_traced(const RunOptions& o) {
  RunResult r;
  std::unique_ptr<Workload> w = make_workload(o);
  TracePass p1(1);
  TracePass p2(kThreads);
  TracePass* passes[] = {&p1, &p2};
  const auto start = Clock::now();
  std::size_t ops = 0;
  for (; r.correct && (ops < 2 || ms_since(start) < o.seconds * 1e3); ++ops) {
    bool failed = false;
    for (TracePass* p : passes) {
      const dpz::ScopedThreads pool(p->threads);
      try {
        w->trace_op(ops, *p);
      } catch (const CheckFailure& e) {
        r.correct = false;
        r.notes.push_back(std::string("CHECK FAILED: ") + e.what());
      } catch (const dpz::Error& e) {
        failed = true;
        r.notes.push_back(std::string("op failed cleanly: ") + e.what());
      }
    }
    if (failed || !r.correct) ++r.failed;
  }
  r.attempted = ops;

  for (TracePass* p : passes) {
    const std::string file =
        o.trace_prefix + "_" + std::to_string(p->threads) + "t.json";
    if (!p->tracer.write_chrome_json(file))
      throw std::runtime_error("cannot write trace file " + file);
  }

  const SpanSums s1(p1.tracer.spans());
  const SpanSums s2(p2.tracer.spans());
  const LayerCounts& c = p2.counts;
  const double fits = static_cast<double>(std::max<std::size_t>(c.fits, 1));
  const double compress_ms = s2.ms("op.compress");
  const double decompress_ms = s2.ms("op.decompress");
  auto add = [&](const std::string& name, double value, const char* unit) {
    r.metrics.push_back({name, value, unit, ""});
  };
  add("core.frames_per_op",
      ratio(static_cast<double>(p2.frames), static_cast<double>(ops)),
      "count");
  add("core.frame_fanout_eff",
      fanout_efficiency(s1.ms(w->encode_unit()), kThreads, p2.real_compress_ms),
      "ratio");
  add("linalg.covariance.gflop", c.covariance_gflop / fits, "GFLOP");
  add("linalg.tridiagonalize.gflop", c.tridiagonalize_gflop / fits, "GFLOP");
  add("linalg.k", static_cast<double>(c.fit_k) / fits, "count");
  add("linalg.k_over_m", c.fit_k_over_m / fits, "ratio");
  add("linalg.stage2_share",
      ratio(s2.ms("core.basis_train", w->encode_unit()),
            s2.ms(w->encode_unit())),
      "ratio");
  add("linalg.project.gflop",
      ratio(c.project_gflop, static_cast<double>(c.projects)), "GFLOP");
  add("codec.outlier_frac",
      ratio(static_cast<double>(c.outliers), static_cast<double>(c.quantized)),
      "ratio");
  add("codec.zlib_ratio",
      ratio(static_cast<double>(c.zlib_in), static_cast<double>(c.zlib_out)),
      "ratio");
  add("ecc.rs_encode.share", ratio(s2.ms("ecc.rs_encode"), compress_ms),
      "ratio");
  add("ecc.parity_bytes_frac",
      ratio(static_cast<double>(c.parity_bytes),
            static_cast<double>(c.frame_payload_bytes)),
      "ratio");
  add("util.pool.speedup_2t", ratio(p1.real_op_ms, p2.real_op_ms), "x");
  add("trace.compress_coverage",
      coverage(s2.children_ms("op.compress"), compress_ms), "ratio");
  add("trace.decompress_coverage",
      coverage(s2.children_ms("op.decompress"), decompress_ms), "ratio");
  add("trace.overhead", ratio(compress_ms + decompress_ms, p2.real_op_ms) - 1.0,
      "ratio");

  // Time-based layer metrics come from `dpz trace-report` (run.py):
  // "self" = per-call self time, "wall" = per-call wall time, "rate" =
  // amount / total self seconds, "speedup" = 1-thread self / 2-thread.
  std::ostringstream q;
  q.precision(17);
  bool first = true;
  auto request = [&](const std::string& metric, const std::string& span,
                     const char* kind, const char* unit, double amount) {
    q << (first ? "" : ",") << "{\"metric\":\"" << metric << "\",\"span\":\""
      << span << "\",\"kind\":\"" << kind << "\",\"unit\":\"" << unit
      << "\",\"amount\":" << amount << "}";
    first = false;
  };
  for (const char* leaf :
       {"core.blocking", "core.unblock", "dsp.dct_forward", "dsp.dct_inverse",
        "linalg.covariance", "linalg.tridiagonalize", "linalg.eigenvalues",
        "linalg.eigenvectors", "linalg.project", "linalg.inverse_project",
        "codec.quantize", "codec.dequantize", "codec.zlib_encode",
        "codec.zlib_decode", "util.crc32c", "io.write", "io.read"})
    request(std::string(leaf) + ".ms", leaf, "self", "ms", 0.0);
  request("core.frame_encode.ms", w->encode_unit(), "wall", "ms", 0.0);
  request("core.frame_decode.ms", w->decode_unit(), "wall", "ms", 0.0);
  request("core.basis_train.ms", "core.basis_train", "wall", "ms", 0.0);
  request("linalg.covariance.gflop_s", "linalg.covariance", "rate", "GFLOP/s",
          c.covariance_gflop);
  request("linalg.tridiagonalize.gflop_s", "linalg.tridiagonalize", "rate",
          "GFLOP/s", c.tridiagonalize_gflop);
  request("linalg.covariance.speedup_2t", "linalg.covariance", "speedup", "x",
          0.0);
  request("linalg.tridiagonalize.speedup_2t", "linalg.tridiagonalize",
          "speedup", "x", 0.0);
  request("codec.zlib_encode.mb_s", "codec.zlib_encode", "rate", "MB/s",
          static_cast<double>(c.zlib_in) / 1e6);
  request("util.crc32c.gb_s", "util.crc32c", "rate", "GB/s",
          static_cast<double>(c.crc_bytes) / 1e9);
  request("io.write.mb_s", "io.write", "rate", "MB/s",
          static_cast<double>(p2.io_write_bytes) / 1e6);
  request("io.read.mb_s", "io.read", "rate", "MB/s",
          static_cast<double>(p2.io_read_bytes) / 1e6);
  r.trace_requests_json = "[" + q.str() + "]";
  return r;
}

}  // namespace perfbench
