// Tests of the benchmark's own rules: the tail percentile rule, the rate
// ladder and the SLO verdict of one rung (src/stats.h), and when a run is
// correct and how its result line reads (src/result.h).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "result.h"
#include "stats.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                              \
  do {                                                            \
    if (!(cond)) {                                                \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__, \
                   __LINE__, #cond);                              \
      ++failures;                                                 \
    }                                                             \
  } while (0)

using gbxbench::Rung;
using gbxbench::Slo;

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestMedian() {
  EXPECT(gbxbench::Median({3, 1, 2}) == 2);
  EXPECT(gbxbench::Median({4, 1, 3, 2}) == 2.5);
  EXPECT(std::isnan(gbxbench::Median({})));
}

void TestPercentile() {
  EXPECT(gbxbench::Percentile(OneTo(100), 10) == 10);
  EXPECT(gbxbench::Percentile(OneTo(1000), 10) == 100);
  // Fewer than ten values: p10 is the minimum.
  EXPECT(gbxbench::Percentile({7, 3, 5}, 10) == 3);
  EXPECT(gbxbench::Percentile(OneTo(9), 10) == 1);
  EXPECT(std::isnan(gbxbench::Percentile({}, 10)));
}

void TestTailPercentile() {
  // 1000 samples: p99 is rank 990, with exactly 10 beyond it.
  gbxbench::Tail t = gbxbench::TailPercentile(OneTo(1000));
  EXPECT(t.percentile == 99 && t.value == 990 && t.beyond == 10);
  EXPECT(t.samples == 1000);
  // 999 samples: p99 would leave 9 beyond, so p98 is reported.
  t = gbxbench::TailPercentile(OneTo(999));
  EXPECT(t.percentile == 98 && t.beyond >= 10);
  EXPECT(t.value == 980);
  // 100 samples: p90 leaves exactly 10.
  t = gbxbench::TailPercentile(OneTo(100));
  EXPECT(t.percentile == 90 && t.value == 90 && t.beyond == 10);
  // 20 samples: only p50 leaves 10 beyond.
  t = gbxbench::TailPercentile(OneTo(20));
  EXPECT(t.percentile == 50 && t.value == 10 && t.beyond == 10);
  // 19 samples: no percentile qualifies; the maximum is reported.
  t = gbxbench::TailPercentile(OneTo(19));
  EXPECT(t.percentile == 100 && t.value == 19 && t.beyond == 0);
  t = gbxbench::TailPercentile({});
  EXPECT(t.samples == 0 && std::isnan(t.value));
  // A custom floor of 1 sample beyond makes p99 available at 100.
  t = gbxbench::TailPercentile(OneTo(100), 1);
  EXPECT(t.percentile == 99 && t.value == 99);
}

void TestLadder() {
  EXPECT(gbxbench::LadderRate(0) == 125.0);
  EXPECT(std::fabs(gbxbench::LadderRate(8) - 250.0) < 1e-9);
  EXPECT(std::fabs(gbxbench::LadderRate(32) - 2000.0) < 1e-9);
  EXPECT(gbxbench::LadderRungAtOrBelow(2000.0) == 32);
  EXPECT(gbxbench::LadderRungAtOrBelow(1999.0) == 31);
  EXPECT(gbxbench::LadderRungAtOrBelow(1000.0) == 24);
  EXPECT(gbxbench::LadderRungAtOrBelow(1.0) == 0);
  EXPECT(gbxbench::LadderRungAtOrBelow(1e9) == gbxbench::kLadderTopRung);
  // Neighbouring rungs differ by 2^(1/8), about 9 %.
  const double step = gbxbench::LadderRate(25) / gbxbench::LadderRate(24);
  EXPECT(step > 1.09 && step < 1.091);
}

void TestAchievedQps() {
  // 1000 requests at 1000 qps from t = 10 s, each answered 1 ms after it
  // was due: the rate offered.
  std::vector<double> done;
  for (int i = 0; i < 1000; ++i) done.push_back(10.0 + i / 1000.0 + 0.001);
  EXPECT(std::fabs(gbxbench::AchievedQps(done, 1000, 10.0, 1000.0) -
                   990.0 / 0.991) < 1e-6);
  // A 40 ms stall on the last 1 % does not read as a backlog...
  std::vector<double> stalled = done;
  for (int i = 990; i < 1000; ++i) stalled[i] += 0.040;
  EXPECT(gbxbench::AchievedQps(stalled, 1000, 10.0, 1000.0) >= 980.0);
  // ...but one on the last 2 % does.
  for (int i = 980; i < 990; ++i) stalled[i] += 0.040;
  EXPECT(gbxbench::AchievedQps(stalled, 1000, 10.0, 1000.0) < 980.0);
  // A server that answers 900/s falls behind on the whole rung.
  std::vector<double> slow;
  for (int i = 0; i < 1000; ++i) slow.push_back(10.0 + (i + 1) / 900.0);
  const double slow_qps = gbxbench::AchievedQps(slow, 1000, 10.0, 1000.0);
  EXPECT(slow_qps > 895.0 && slow_qps < 905.0);
  // Replies that never came do not count; order does not matter.
  std::vector<double> half(done.begin(), done.begin() + 500);
  std::reverse(half.begin(), half.end());
  EXPECT(std::fabs(gbxbench::AchievedQps(half, 1000, 10.0, 1000.0) -
                   500.0 / 0.501) < 1e-6);
  EXPECT(gbxbench::AchievedQps({}, 1000, 10.0, 1000.0) == 0.0);
}

Rung Good(double rate) {
  Rung r;
  r.offered_qps = rate;
  r.achieved_qps = rate;
  r.sent = r.ok = 1000;
  r.latency.value = 1.0;
  r.latency.percentile = 99;
  return r;
}

void TestRungVerdict() {
  const Slo slo;
  EXPECT(gbxbench::RungPasses(Good(1000), slo));
  Rung r = Good(1000);
  r.latency.value = 25.0;  // the limit itself passes
  EXPECT(gbxbench::RungPasses(r, slo));
  r.latency.value = 25.01;
  EXPECT(!gbxbench::RungPasses(r, slo));
  r = Good(1000);
  r.achieved_qps = 979.0;  // backlog: below 0.98 x offered
  EXPECT(!gbxbench::RungPasses(r, slo));
  r.achieved_qps = 980.0;
  EXPECT(gbxbench::RungPasses(r, slo));
  r = Good(1000);
  r.failed = 1;
  r.ok = 999;
  EXPECT(!gbxbench::RungPasses(r, slo));
  r = Good(1000);
  r.lateness_p99_ms = 8.0;  // a preempted generator, not a lagging one
  EXPECT(gbxbench::RungPasses(r, slo));
  r.lateness_p50_ms = 1.5;  // the generator, not the server, fell behind
  EXPECT(!gbxbench::RungPasses(r, slo));
  r = Good(1000);
  r.sent = r.ok = 0;
  EXPECT(!gbxbench::RungPasses(r, slo));
}

/// A fake server that meets the SLO up to `capacity` qps, with an
/// optional set of rungs that fail once (a scheduling hiccup).
struct FakeServer {
  double capacity;
  std::vector<double> hiccups;
  std::vector<double> offered;

  bool backlog = false;  // overload shows as a short achieved rate too

  Rung operator()(double rate) {
    offered.push_back(rate);
    Rung r = Good(rate);
    for (double& h : hiccups) {
      if (std::fabs(h - rate) < 1e-6) {
        h = -1;  // fail once only
        r.latency.value = 50.0;
        return r;
      }
    }
    if (rate > capacity) {
      r.latency.value = 80.0;
      if (backlog) r.achieved_qps = std::min(rate, 0.85 * capacity);
    }
    return r;
  }
};

void TestMaxQpsAtSlo() {
  const Slo slo;
  const int attempts = gbxbench::kRungAttempts;
  std::vector<Rung> log;
  // Capacity 5000 from rung 32 (2000 qps): the climb passes rungs 34..42
  // (4757 qps), fails 44 (5657) on every attempt, then fails the rung in
  // between, 43 (5187).
  FakeServer s1{5000.0, {}, {}, false};
  double q = gbxbench::MaxQpsAtSlo(
      32, [&](double r) { return s1(r); }, slo, &log);
  EXPECT(std::fabs(q - gbxbench::LadderRate(42)) < 1e-9);
  EXPECT(static_cast<int>(s1.offered.size()) == 6 + 2 * attempts);
  EXPECT(log.size() == s1.offered.size());
  // Capacity 5500: the in-between rung 43 passes.
  FakeServer s2{5500.0, {}, {}, false};
  q = gbxbench::MaxQpsAtSlo(32, [&](double r) { return s2(r); }, slo, &log);
  EXPECT(std::fabs(q - gbxbench::LadderRate(43)) < 1e-9);
  // A hiccup at rung 36 is absorbed by the next attempt.
  FakeServer s3{5000.0, {gbxbench::LadderRate(36)}, {}, false};
  q = gbxbench::MaxQpsAtSlo(32, [&](double r) { return s3(r); }, slo, &log);
  EXPECT(std::fabs(q - gbxbench::LadderRate(42)) < 1e-9);
  EXPECT(s3.offered.size() == s1.offered.size() + 1);
  // A rung that falls short of its offered rate is overloaded: one run
  // each for rungs 44 and 43.
  FakeServer s6{5000.0, {}, {}, true};
  q = gbxbench::MaxQpsAtSlo(32, [&](double r) { return s6(r); }, slo, &log);
  EXPECT(std::fabs(q - gbxbench::LadderRate(42)) < 1e-9);
  EXPECT(s6.offered.size() == 8);
  // The start rung fails: the ladder descends to the first passing rung.
  FakeServer s4{600.0, {}, {}, false};
  q = gbxbench::MaxQpsAtSlo(32, [&](double r) { return s4(r); }, slo, &log);
  EXPECT(std::fabs(q - gbxbench::LadderRate(18)) < 1e-9);  // 594.6 qps
  // Nothing passes: 0, after every attempt on rungs 2, 1 and 0.
  FakeServer s5{0.0, {}, {}, false};
  q = gbxbench::MaxQpsAtSlo(2, [&](double r) { return s5(r); }, slo, &log);
  EXPECT(q == 0.0);
  EXPECT(static_cast<int>(s5.offered.size()) == 3 * attempts);
}

void TestResult() {
  const gbxbench::Reported end_to_end = [](const std::string& name) {
    return name.find('.') == std::string::npos;
  };
  // A clean run stays correct; metrics of the other set are not printed.
  gbxbench::Result ok;
  ok.attempted = 10;
  ok.Set("p50_ms", 0.5, "ms");
  ok.Set("client.p99_ms", std::nan(""), "ms");
  gbxbench::CheckResult(&ok, end_to_end);
  EXPECT(ok.correct);
  EXPECT(gbxbench::ResultJson(ok, end_to_end) ==
         "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
         "\"metrics\": {\"p50_ms\": {\"value\": 0.5, \"unit\": \"ms\"}}}");
  // One failed operation (a shed or deadline reply at the nominal rate,
  // say) makes the run not correct: error_rate must be 0.
  gbxbench::Result failed = ok;
  failed.failed = 1;
  gbxbench::CheckResult(&failed, end_to_end);
  EXPECT(!failed.correct && failed.problems.size() == 1);
  // A reported metric without a value (p50 over no ok reply) makes the
  // run not correct and reads null, never a number.
  gbxbench::Result empty = ok;
  empty.Set("p50_ms", std::numeric_limits<double>::quiet_NaN(), "ms");
  gbxbench::CheckResult(&empty, end_to_end);
  EXPECT(!empty.correct);
  EXPECT(gbxbench::ResultJson(empty, end_to_end).find(
             "\"p50_ms\": {\"value\": null, ") != std::string::npos);
}

}  // namespace

int main() {
  TestMedian();
  TestPercentile();
  TestTailPercentile();
  TestLadder();
  TestAchievedQps();
  TestRungVerdict();
  TestMaxQpsAtSlo();
  TestResult();
  if (failures > 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("stats_test: all passed\n");
  return 0;
}
