// Order statistics and the pass/fail rules of the benchmark: the tail
// percentile rule, the fixed rate ladder, and the serving SLO verdict.
// Header-only so the rule tests (tests/stats_test.cc) link nothing else.
#ifndef GBXBENCH_STATS_H_
#define GBXBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace gbxbench {

/// Median of `values`; NaN when empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// 1-based nearest rank of percentile `q` (0 < q <= 100) among n samples.
inline std::size_t NearestRank(double q, std::size_t n) {
  const double r = std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

/// Nearest-rank percentile `q` of `values`; NaN when empty. Below ten
/// values p10 is the minimum.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  return values[NearestRank(q, values.size()) - 1];
}

struct Tail {
  /// The percentile reported: 99 when the sample supports it, lower when
  /// fewer than `min_beyond` samples would lie beyond p99, 100 (the
  /// maximum) when not even p50 has that many beyond it.
  double percentile = 0.0;
  double value = std::numeric_limits<double>::quiet_NaN();
  /// Samples ranked after the reported one.
  std::size_t beyond = 0;
  std::size_t samples = 0;
};

/// The highest whole percentile in [50, 99] with at least `min_beyond`
/// samples ranked after it (nearest-rank), and its value.
inline Tail TailPercentile(std::vector<double> values,
                           std::size_t min_beyond = 10) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  for (int q = 99; q >= 50; --q) {
    const std::size_t rank = NearestRank(q, n);
    if (n - rank >= min_beyond) {
      tail.percentile = q;
      tail.value = values[rank - 1];
      tail.beyond = n - rank;
      return tail;
    }
  }
  tail.percentile = 100.0;
  tail.value = values.back();
  return tail;
}

/// The rate at which a rung's replies came back: the first 99 % of its
/// `sent` requests, as ok replies, over the time from the first due time
/// to the reply that completed them, plus one send interval (so a server
/// that answers at once achieves exactly `rate`). A server that cannot
/// keep up falls behind on the whole rung and achieves its capacity. The
/// last 1 % is left out: one host stall at the very end of a rung would
/// otherwise read as a backlog (10 ms costs 2 % of a 0.5 s rung); the
/// p99 test judges such stalls. `ok_done` holds the ok replies' completion
/// times, in seconds like `first_due`.
inline double AchievedQps(std::vector<double> ok_done, std::int64_t sent,
                          double first_due, double rate) {
  if (ok_done.empty() || sent <= 0) return 0.0;
  std::sort(ok_done.begin(), ok_done.end());
  const std::size_t k = std::min(
      ok_done.size(), NearestRank(99.0, static_cast<std::size_t>(sent)));
  return static_cast<double>(k) / (ok_done[k - 1] - first_due + 1.0 / rate);
}

/// The fixed rate ladder: rung k offers kLadderBaseQps * 2^(k/8) requests
/// per second. The climb steps two rungs (a quarter octave, 19 %) at a
/// time and then probes the rung in between, so the result resolves to
/// 9 %, well inside the benchmark's bound on max_qps_at_slo.
inline constexpr double kLadderBaseQps = 125.0;
inline constexpr int kLadderStepsPerOctave = 8;
inline constexpr int kLadderTopRung = 80;  // 125 * 2^10 = 128k qps
/// Runs of one rung before it counts as failed: on a virtual machine an
/// idle vCPU sometimes takes milliseconds to wake, which can push one
/// run's p99 past the limit at any load. A run that fell this far short
/// of the offered rate was overloaded, not unlucky, and is not repeated.
inline constexpr int kRungAttempts = 3;
inline constexpr double kOverloadedShare = 0.9;

inline double LadderRate(int rung) {
  return kLadderBaseQps *
         std::pow(2.0, static_cast<double>(rung) / kLadderStepsPerOctave);
}

/// Highest rung whose rate does not exceed `qps` (0 below the base).
inline int LadderRungAtOrBelow(double qps) {
  int rung = 0;
  while (rung < kLadderTopRung && LadderRate(rung + 1) <= qps * (1 + 1e-9)) {
    ++rung;
  }
  return rung;
}

/// What one ladder rung measured.
struct Rung {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  Tail latency;  // client latency from the scheduled send time, ms
  std::int64_t sent = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;
  /// How late the generator sent against its schedule, ms: the median
  /// (a generator that cannot keep up lags on every request) and p99.
  double lateness_p50_ms = 0.0;
  double lateness_p99_ms = 0.0;
};

struct Slo {
  /// On the virtual machines this runs on, a preempted vCPU delays a few
  /// requests by up to ~20 ms at any load, and under host contention p99
  /// sits at 15-25 ms even at 1000 qps; a 10 ms limit then measures the
  /// host, not the server. A growing backlog passes 25 ms within a rung.
  double max_tail_ms = 25.0;
  double min_achieved_share = 0.98;
  /// A generator whose median lateness exceeds this fell behind its
  /// schedule: the rung measured the driver, not the server.
  double max_median_lateness_ms = 1.0;
};

/// A rung passes when its tail latency meets the limit, the server kept
/// up with the offered rate (no growing backlog), every request was
/// answered correctly, and the generator kept its schedule.
inline bool RungPasses(const Rung& r, const Slo& slo) {
  return r.sent > 0 && r.failed == 0 && r.ok == r.sent &&
         r.latency.value <= slo.max_tail_ms &&
         r.achieved_qps >= slo.min_achieved_share * r.offered_qps &&
         r.lateness_p50_ms <= slo.max_median_lateness_ms;
}

/// Climbs the ladder from `start_rung` two rungs at a time while rungs
/// pass, then tries the rung between the last pass and the first failure.
/// A rung passes when any of kRungAttempts runs passes; an overloaded run
/// ends the rung at once. When the start
/// rung fails, the ladder descends one rung at a time until one passes.
/// Returns the highest passing rate, 0 when no rung down to 0 passes.
/// Every run is appended to `*log`.
inline double MaxQpsAtSlo(int start_rung,
                          const std::function<Rung(double)>& run_rung,
                          const Slo& slo, std::vector<Rung>* log) {
  const auto passes = [&](int rung) {
    for (int attempt = 0; attempt < kRungAttempts; ++attempt) {
      const Rung r = run_rung(LadderRate(rung));
      log->push_back(r);
      if (RungPasses(r, slo)) return true;
      if (r.achieved_qps < kOverloadedShare * r.offered_qps) return false;
    }
    return false;
  };
  int rung = std::clamp(start_rung, 0, kLadderTopRung);
  if (!passes(rung)) {
    while (--rung >= 0) {
      if (passes(rung)) return LadderRate(rung);
    }
    return 0.0;
  }
  while (rung + 2 <= kLadderTopRung && passes(rung + 2)) rung += 2;
  if (rung + 1 <= kLadderTopRung && passes(rung + 1)) ++rung;
  return LadderRate(rung);
}

}  // namespace gbxbench

#endif  // GBXBENCH_STATS_H_
