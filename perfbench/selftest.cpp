// perfbench_selftest: checks the benchmark's own arithmetic (stats.h) on
// hand-made inputs. Run it through `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::abs(got - want) <= 1e-12 * std::max(1.0, std::abs(want)),
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  // Reverse so the functions have to sort.
  return {v.rbegin(), v.rend()};
}

void test_percentiles() {
  using perfbench::median;
  using perfbench::tail;

  const std::vector<double> odd = {3.0, 1.0, 2.0};
  expect_near(median(odd).value, 2.0, "median of 3");
  const std::vector<double> even = {4.0, 1.0, 3.0, 2.0};
  expect_near(median(even).value, 2.0, "median of 4 is the 2nd smallest");

  // 100 samples: 10 beyond the 90th smallest, so p90.
  const auto t100 = tail(one_to(100));
  expect_near(t100.value, 90.0, "tail of 100");
  expect_near(t100.pct, 90.0, "tail of 100 is p90");
  expect(t100.beyond == 10 && t100.n == 100, "tail of 100 counts");

  // 30 samples: the 20th smallest, p66.7.
  const auto t30 = tail(one_to(30));
  expect_near(t30.value, 20.0, "tail of 30");
  expect_near(t30.pct, 200.0 / 3.0, "tail of 30 percentile");
  expect(t30.beyond == 10, "tail of 30 has 10 beyond");

  // 21 samples: the only rank with 10 beyond is the median itself.
  const auto t21 = tail(one_to(21));
  expect_near(t21.value, 11.0, "tail of 21");
  expect(t21.beyond == 10, "tail of 21 has 10 beyond");

  // Under 21 samples no percentile above the median has 10 beyond: the
  // tail falls back to the median and reports how many lie beyond it.
  const auto t15 = tail(one_to(15));
  expect_near(t15.value, 8.0, "tail of 15 falls back to the median");
  expect(t15.beyond == 7, "tail of 15 reports 7 beyond");

  // Failed ops sort last as kMissed: 10 of 30 failed still leaves the
  // tail finite, 11 do not.
  std::vector<double> some = one_to(20);
  some.insert(some.end(), 10, perfbench::kMissed);
  expect_near(tail(some).value, 20.0, "tail with 10 failures of 30");
  std::vector<double> many = one_to(19);
  many.insert(many.end(), 11, perfbench::kMissed);
  expect(std::isinf(tail(many).value), "tail with 11 failures of 30 misses");

  expect(median(std::vector<double>{}).n == 0, "median of nothing");
}

void test_interquartile_mean() {
  using perfbench::interquartile_mean;
  // 8 samples: ranks 3-6 (of 1-8) are kept, the stall and the two
  // fastest/slowest pairs are not.
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 1000.0};
  expect_near(interquartile_mean(v), 4.5, "interquartile mean of 8");
  expect_near(interquartile_mean(std::vector<double>{2.0, 4.0}), 3.0,
              "interquartile mean of 2 keeps all");
  expect_near(interquartile_mean(std::vector<double>{}), 0.0,
              "interquartile mean of nothing");
}

void test_op_log() {
  perfbench::OpLog log;
  const std::vector<double> reads = {10.0, 12.0};
  log.add(true, 2e6, 0.5, 0.25, reads);
  log.add(false, 2e6, 1.5, 0.0, reads);
  expect(log.attempted() == 2 && log.failed() == 1, "op log counts");
  expect_near(log.ok_fraction(), 0.5, "ok fraction counts failures");
  // Per-op throughput: 2 MB in 0.5 s, and 0 MB/s for the failed op.
  expect_near(log.compress_mb_s(), 2.0, "compress MB/s");
  expect_near(log.decompress_mb_s(), 4.0, "decompress MB/s");
  expect(log.compress_ms().size() == 2 && log.compress_ms()[0] == 500.0 &&
             std::isinf(log.compress_ms()[1]),
         "failed op misses the compress latency limit");
  expect(log.read_ms().size() == 4 && std::isinf(log.read_ms()[3]),
         "failed op misses every read latency limit");

  perfbench::OpLog empty;
  expect_near(empty.ok_fraction(), 0.0, "empty log ok fraction");
  expect_near(empty.compress_mb_s(), 0.0, "empty log throughput");
}

void test_input_book() {
  perfbench::InputBook book;
  book.add(7, 4e6, 1e5, 50.0, 0.01);
  book.add(3, 4e6, 3e5, 40.0, 0.02);
  // A repeat of input 7 (here with other numbers) is not counted again.
  book.add(7, 4e6, 9e5, 10.0, 0.50);
  expect(book.inputs() == 2, "input book counts distinct inputs");
  expect_near(book.compression_ratio(), 20.0, "ratio over distinct inputs");
  const std::vector<double> psnr = book.psnr_db();
  expect(psnr.size() == 2 && psnr[0] == 40.0 && psnr[1] == 50.0,
         "PSNR of each distinct input, first op kept");
  expect(book.max_err_rel().size() == 2 && book.max_err_rel()[1] == 0.01,
         "max error of each distinct input, first op kept");
  expect_near(perfbench::InputBook().compression_ratio(), 0.0,
              "ratio of no inputs");
}

void test_flops_and_ratios() {
  expect_near(perfbench::covariance_gflop(1000, 2000), 2.0, "M^2 N");
  expect_near(perfbench::tridiagonalize_gflop(1000), 4.0 / 3.0, "4/3 M^3");
  expect_near(perfbench::project_gflop(100, 200, 10), 4e-4, "2 M N k");
  expect_near(perfbench::coverage(99.0, 100.0), 0.99, "coverage");
  expect_near(perfbench::coverage(1.0, 0.0), 0.0, "coverage of nothing");
  expect_near(perfbench::fanout_efficiency(300.0, 2, 200.0), 0.75,
              "fan-out efficiency");
  expect_near(perfbench::fanout_efficiency(300.0, 0, 200.0), 0.0,
              "fan-out efficiency without threads");
}

void test_fnv1a() {
  expect(perfbench::fnv1a({}) == 0xcbf29ce484222325ULL, "fnv1a of nothing");
  const std::uint8_t a[] = {'a'};
  expect(perfbench::fnv1a(a) == 0xaf63dc4c8601ec8cULL, "fnv1a of 'a'");
}

}  // namespace

int main() {
  test_percentiles();
  test_interquartile_mean();
  test_op_log();
  test_input_book();
  test_flops_and_ratios();
  test_fnv1a();
  std::printf("perfbench_selftest: %s\n", g_failures == 0 ? "ok" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}
