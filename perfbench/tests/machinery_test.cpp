// Self-test of the benchmark's own machinery: percentiles, the due-time /
// release join by message id, RAS on a hand-computed case, open-loop
// lateness accounting, the correctness gate catching an injected
// duplicate, a missing id and an unknown id, how failed checks count, and
// the choice of the windows that lost the least time to host steal.
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "pb.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  pb::Samples s;
  check(s.percentile(99) == 0.0, "empty sample set reads 0");
  for (int v = 100; v >= 1; --v) s.add(v);  // unsorted input
  check(near(s.percentile(50), 50), "p50 of 1..100 is 50");
  check(near(s.percentile(99), 99), "p99 of 1..100 is 99");
  check(near(s.percentile(100), 100), "p100 is the maximum");
  check(near(s.percentile(0), 1), "p0 is the minimum");
  s.add(1000);
  check(near(s.percentile(100), 1000), "percentiles re-sort after add");
}

void test_release_join() {
  pb::Ledger ledger(2);
  const auto a = ledger.submit(0, 1.0);
  const auto b = ledger.submit(1, 2.0);
  const auto c = ledger.submit(0, 3.0);
  // Released out of submission order: the join is by id, not position.
  check(ledger.release(c, 3.5, 1), "release c");
  check(ledger.release(a, 1.25, 0), "release a");
  check(ledger.release(b, 2.75, 0), "release b");
  pb::Samples all = ledger.latencies(0.0, 10.0);
  check(all.count() == 3, "three latencies");
  check(near(all.percentile(0), 0.25), "a waited 0.25 s");
  check(near(all.percentile(100), 0.75), "b waited 0.75 s");
  pb::Samples late = ledger.latencies(2.5, 10.0);
  check(late.count() == 1 && near(late.percentile(50), 0.5), "window by due time");
  check(ledger.released_between(2.0, 3.0) == 1, "released_between counts by release time");
  pb::Ledger based(1, 1000);
  const auto d = based.submit(0, 5.0);
  check(pb::id_seq(d) == 1000 && based.release(d, 6.0, 0), "seq base offsets ids");
}

void test_ras() {
  // True order m1 < m2 < m3 < m4 with ranks 0, 0, 1, 0. Pairs:
  // (1,2) tie 0, (1,3) +1, (1,4) tie 0, (2,3) +1, (2,4) tie 0, (3,4) −1.
  // Score 1 over 6 pairs.
  pb::Ledger ledger(2);
  const double due[4] = {1.0, 2.0, 3.0, 4.0};
  const std::uint32_t client[4] = {0, 1, 0, 1};
  const std::uint64_t rank[4] = {0, 0, 1, 0};
  std::uint64_t ids[4];
  for (int i = 0; i < 4; ++i) ids[i] = ledger.submit(client[i], due[i]);
  for (int i = 0; i < 4; ++i) ledger.release(ids[i], 10.0, rank[i]);
  check(near(ledger.ras(), 1.0 / 6.0), "RAS of the 4-message case is 1/6");
}

void test_open_loop_lateness() {
  pb::Lateness lag;
  lag.on_sent(1.0, 1.002);  // 2 ms behind schedule
  lag.on_sent(2.0, 1.999);  // early: no lag
  check(lag.count() == 2, "every send counted");
  check(near(lag.p99_ms(), 2.0), "p99 lag is the 2 ms stall");
  // A message sent 0.5 s late and released 0.1 s after sending waited
  // 0.6 s: latency runs from the due time, not the send time.
  pb::Ledger ledger(1);
  const auto id = ledger.submit(0, 1.0);
  ledger.release(id, 1.6, 0);
  check(near(ledger.latencies(0.0, 2.0).percentile(50), 0.6), "latency from due time");
}

void test_gate() {
  pb::Ledger ledger(1);
  const auto a = ledger.submit(0, 1.0);
  const auto b = ledger.submit(0, 2.0);
  (void)ledger.submit(0, 3.0);  // never released: missing
  check(ledger.release(a, 1.5, 0), "first release accepted");
  check(!ledger.release(a, 1.6, 1), "injected duplicate refused");
  check(ledger.release(b, 2.5, 1), "b released");
  check(!ledger.release(pb::make_id(0, 99), 3.0, 2), "unknown id refused");
  check(!ledger.release(pb::make_id(7, 0), 3.0, 2), "unknown client refused");
  const pb::Verdict v = ledger.verdict();
  check(v.submitted == 3 && v.released == 2, "counts");
  check(v.duplicates == 1, "duplicate counted");
  check(v.missing == 1, "missing id counted");
  check(v.unknown == 2, "unknown ids counted");
  check(v.failures() == 4, "every failure counts");

  pb::RankStream ok;
  for (std::uint64_t r : {0, 1, 2, 3}) ok.on_rank(r);
  check(ok.errors == 0, "dense ranks pass");
  pb::RankStream gap;
  for (std::uint64_t r : {0, 1, 3}) gap.on_rank(r);
  check(gap.errors == 1, "rank gap caught");
  pb::RankStream repeat;
  for (std::uint64_t r : {0, 1, 1}) repeat.on_rank(r);
  check(repeat.errors == 1, "repeated rank caught");
}

void test_failure_accounting() {
  pb::RunResult clean;
  clean.attempted = 100;
  clean.settle();
  check(clean.correct && clean.failed == 0, "a clean run fails nothing");
  check(near(clean.values["delivered_share"], 1.0), "clean run delivers all");
  // A check that names its messages counts just those.
  pb::RunResult lost;
  lost.attempted = 100;
  lost.fail_messages("missing ids", 4);
  lost.settle();
  check(!lost.correct && lost.failed == 4, "named failures counted");
  check(near(lost.values["delivered_share"], 0.96), "delivered share of named failures");
  // A stream-level failure (a rank gap, a dropped connection) fails the run.
  pb::RunResult gap;
  gap.attempted = 100;
  gap.fail_messages("missing ids", 4);
  gap.fail("non-dense ranks");
  gap.settle();
  check(gap.failed == 100 && near(gap.values["delivered_share"], 0.0),
        "stream-level failure counts every attempted message");
  pb::RunResult early;
  early.fail("server did not become ready");
  early.settle();
  check(early.attempted == 1 && early.failed == 1, "a run that failed early still reports");
}

}  // namespace

void test_quiet_windows() {
  // Seven 1 s windows from t = 0; steal in each: 0.5, 0, 0.2, 0, 0.1, 0.9, 0.
  const double steal[] = {0.5, 0.0, 0.2, 0.0, 0.1, 0.9, 0.0};
  std::vector<pb::HostMark> marks{{0.0, 0.0, 0.0}};
  for (int i = 0; i < 7; ++i) {
    const pb::HostMark& last = marks.back();
    marks.push_back({last.t + 1.0, last.steal_s + steal[i], last.sut_cpu_s + 0.1 * (i + 1)});
  }
  // Windows wholly inside [1, 6): 1..5; the quietest third of five is two,
  // the zero-steal windows 1 and 3, in time order.
  const auto ws = pb::quiet_windows(marks, 1.0, 6.0);
  check(ws.size() == 2, "a third of the windows, rounded up");
  check(ws.size() == 2 && near(ws[0].from, 1.0) && near(ws[1].from, 3.0),
        "the least-steal windows, ties in time order");
  check(ws.size() == 2 && near(ws[1].to, 4.0) && near(ws[1].sut_cpu_s, 0.4),
        "a window carries its bounds and the SUT CPU spent in it");
  check(pb::quiet_windows(marks, 2.5, 3.5).empty(), "no whole window: none chosen");
}

int main() {
  test_percentiles();
  test_release_join();
  test_ras();
  test_open_loop_lateness();
  test_gate();
  test_failure_accounting();
  test_quiet_windows();
  if (g_failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
