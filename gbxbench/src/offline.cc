// The GBABS phase (gbabs_s) and the traced probes of the layers under it:
// simd (squared-distance kernel), index (forced RD-GBG strategies) and
// core (RD-GBG, borderline sampling, granulation counts).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "data/scaler.h"
#include "index/index_strategy.h"
#include "simd/simd.h"
#include "stats.h"

namespace gbxbench {

namespace {

// Passes cap: a GBABS pass over a few hundred rows takes ~1 ms, and a
// percentile over this many passes is already steady.
constexpr int kMaxPasses = 2000;
// Untraced and traced passes the traced run alternates to measure the
// tracing overhead.
constexpr int kOverheadPairs = 2;

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void Add(const std::vector<int>& v) {
    Add(v.size());
    for (int x : v) Add(static_cast<std::uint64_t>(static_cast<unsigned>(x)));
  }
  void Add(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
};

std::uint64_t Digest(const std::vector<int>& indices) {
  Fnv f;
  f.Add(indices);
  return f.h;
}

/// Digest of everything a granulation outputs: the bit-identity contract
/// across index strategies is equality of this value.
std::uint64_t Digest(const gbx::RdGbgResult& r) {
  Fnv f;
  f.Add(static_cast<std::uint64_t>(r.iterations));
  f.Add(r.noise_indices);
  f.Add(r.orphan_indices);
  for (const gbx::GranularBall& b : r.balls.balls()) {
    f.Add(b.members);
    f.Add(static_cast<std::uint64_t>(b.label));
    f.Add(static_cast<std::uint64_t>(b.center_index));
    f.Add(b.radius);
    for (double c : b.center) f.Add(c);
  }
  return f.h;
}

}  // namespace

GbabsPasses::GbabsPasses(const RunContext& ctx, const Setup& setup)
    : ctx_(ctx), setup_(setup), seconds_(setup.gbabs_inputs.size()) {
  config_.gbg.num_threads = ctx.nproc;
}

void GbabsPasses::Run(double seconds) {
  Result& res = *ctx_.result;
  const std::size_t n = setup_.gbabs_inputs.size();
  const double start = Now();
  // Each pass starts on the next CPU, so the fast mode that PassSeconds()
  // takes is the speed of the fastest CPU, not of the one this thread
  // happened to be on.
  CpuRotation rotation;
  for (int pass = 0; pass == 0 || (Now() - start < seconds &&
                                   passes() < kMaxPasses);
       ++pass) {
    rotation.Next();
    for (std::size_t i = 0; i < n; ++i) {
      const double t0 = Now();
      gbx::GbabsResult r = gbx::RunGbabs(setup_.gbabs_inputs[i].data, config_);
      seconds_[i].push_back(Now() - t0);
      ++res.attempted;
      if (first_.size() < n) {
        first_.push_back(std::move(r));
      } else if (Digest(r.sampled_indices) !=
                     Digest(first_[i].sampled_indices) ||
                 r.gbg.balls.size() != first_[i].gbg.balls.size()) {
        ++res.failed;
        res.Fail("GBABS output of " + setup_.gbabs_inputs[i].name +
                 " changed between passes");
      }
    }
  }
}

double GbabsPasses::PassSeconds() const {
  // Per input, the 10th percentile over passes (the fastest pass below
  // ten): on a shared host pass times are bimodal, a fast mode and one a
  // third to a half slower, and the share of slow passes changes from
  // minute to minute, so the median jumps between the modes while p10
  // holds to within a few percent. Summed per input, a burst of
  // contention costs one input one pass, not a pass.
  double pass = 0.0;
  for (const std::vector<double>& t : seconds_) pass += Percentile(t, 10);
  return pass;
}

void ProbeOfflineLayers(const RunContext& ctx, const Setup& setup,
                        const GbabsPasses& untraced) {
  Tracer* tr = ctx.tracer;
  Result& res = *ctx.result;
  gbx::GbabsConfig config;
  config.gbg.num_threads = ctx.nproc;
  const std::size_t n = setup.gbabs_inputs.size();

  // Untraced RunGbabs passes and traced passes alternate, so that the
  // host's drift (a quarter or more over minutes) hits both alike; the
  // overhead share compares their medians. The traced pass times RD-GBG
  // and borderline sampling apart, and checks its output against the
  // untraced one.
  std::vector<double> untraced_s, traced_s, rd_gbg_s, borderline_s;
  std::vector<std::uint64_t> auto_digest(n);
  std::vector<double> auto_s(n, 0.0);
  std::int64_t rounds = 0, balls = 0, orphans = 0, noise = 0;
  for (int k = 0; k < kOverheadPairs; ++k) {
    const double untraced_start = Now();
    for (std::size_t i = 0; i < n; ++i) {
      gbx::RunGbabs(setup.gbabs_inputs[i].data, config);
    }
    untraced_s.push_back(Now() - untraced_start);

    rounds = balls = orphans = noise = 0;
    double rd_gbg = 0.0, borderline = 0.0;
    const double pass_start = Now();
    {
      ScopedSpan pass(tr, "gbabs.pass");
      for (std::size_t i = 0; i < n; ++i) {
        const gbx::Dataset& ds = setup.gbabs_inputs[i].data;
        const double t0 = Now();
        const gbx::RdGbgResult gbg = gbx::GenerateRdGbg(ds, config.gbg);
        const double t1 = Now();
        std::vector<int> ball_ids;
        const std::vector<int> sampled =
            gbx::SampleBorderlineIndices(gbg.balls, &ball_ids, 0);
        const double t2 = Now();
        tr->Record("core.rd_gbg", t0, t1, pass.id());
        tr->Record("core.borderline", t1, t2, pass.id());
        rd_gbg += t1 - t0;
        borderline += t2 - t1;
        auto_s[i] = k == 0 ? t1 - t0 : std::min(auto_s[i], t1 - t0);
        auto_digest[i] = Digest(gbg);
        ++res.attempted;
        if (Digest(sampled) != Digest(untraced.first()[i].sampled_indices)) {
          ++res.failed;
          res.Fail("traced GBABS of " + setup.gbabs_inputs[i].name +
                   " differs from RunGbabs");
        }
        rounds += gbg.iterations;
        balls += gbg.balls.size();
        orphans += static_cast<std::int64_t>(gbg.orphan_indices.size());
        noise += static_cast<std::int64_t>(gbg.noise_indices.size());
      }
    }
    traced_s.push_back(Now() - pass_start);
    rd_gbg_s.push_back(rd_gbg);
    borderline_s.push_back(borderline);
  }
  res.Set("core.rd_gbg_s", Median(rd_gbg_s), "s");
  res.Set("core.borderline_s", Median(borderline_s), "s");
  res.Set("core.rounds", static_cast<double>(rounds), "count");
  res.Set("core.balls", static_cast<double>(balls), "count");
  res.Set("core.orphans", static_cast<double>(orphans), "count");
  res.Set("core.noise", static_cast<double>(noise), "count");
  res.Set("core.orphan_share",
          balls > 0 ? static_cast<double>(orphans) / balls : 0.0, "share");
  res.Set("trace.gbabs_s", Median(traced_s), "s");
  res.Set("trace.gbabs_overhead_share",
          Median(traced_s) / Median(untraced_s) - 1.0, "share");

  // index: the same granulations with the neighbor strategy forced. Every
  // strategy must reproduce kAuto's output bit for bit.
  const std::size_t probe =
      std::min<std::size_t>(n, static_cast<std::size_t>(
                                   ctx.spec->index_probe_inputs));
  double flat_s = 0.0, tree_s = 0.0;
  int auto_tree = 0, auto_fastest = 0;
  for (std::size_t i = 0; i < probe; ++i) {
    const gbx::Dataset& ds = setup.gbabs_inputs[i].data;
    double forced_s[2] = {0.0, 0.0};
    const gbx::IndexStrategy forced[2] = {gbx::IndexStrategy::kFlat,
                                          gbx::IndexStrategy::kTree};
    for (int k = 0; k < 2; ++k) {
      gbx::RdGbgConfig cfg = config.gbg;
      cfg.index_strategy = forced[k];
      const double t0 = Now();
      const gbx::RdGbgResult r = gbx::GenerateRdGbg(ds, cfg);
      forced_s[k] = Now() - t0;
      tr->Record(k == 0 ? "index.rd_gbg.flat" : "index.rd_gbg.tree", t0,
                 t0 + forced_s[k]);
      ++res.attempted;
      if (Digest(r) != auto_digest[i]) {
        ++res.failed;
        res.Fail(std::string("RD-GBG with ") +
                 gbx::IndexStrategyName(forced[k]) + " differs from kAuto on " +
                 setup.gbabs_inputs[i].name);
      }
    }
    flat_s += forced_s[0];
    tree_s += forced_s[1];
    const gbx::Matrix scaled = gbx::MinMaxScaler().FitTransform(ds.x());
    const gbx::IndexStrategy resolved = gbx::ResolveRdGbgIndexStrategy(
        gbx::IndexStrategy::kAuto, ds.size(), ds.num_features(), ctx.nproc,
        &scaled);
    const bool is_tree = resolved != gbx::IndexStrategy::kFlat;
    auto_tree += is_tree ? 1 : 0;
    // kAuto "picks the faster" when its own time is within 10 % of the
    // faster forced strategy (run-to-run noise is about that wide).
    auto_fastest +=
        auto_s[i] <= 1.1 * std::min(forced_s[0], forced_s[1]) ? 1 : 0;
    std::fprintf(stderr,
                 "index: %-8s n=%d d=%d auto=%s %.4f s, flat %.4f s, "
                 "tree %.4f s\n",
                 setup.gbabs_inputs[i].name.c_str(), ds.size(),
                 ds.num_features(), gbx::IndexStrategyName(resolved),
                 auto_s[i], forced_s[0], forced_s[1]);
  }
  res.Set("index.rd_gbg_s.flat", flat_s, "s");
  res.Set("index.rd_gbg_s.tree", tree_s, "s");
  res.Set("index.auto_tree_share", static_cast<double>(auto_tree) / probe,
          "share");
  res.Set("index.auto_fastest_share",
          static_cast<double>(auto_fastest) / probe, "share");

  // simd: the squared-distance kernel over each input's scaled features,
  // one query row against all rows per call.
  double sq_ns = 0.0, sq_rows = 0.0, sq_bytes = 0.0, sq_calls = 0.0;
  for (const NamedDataset& d : setup.gbabs_inputs) {
    const gbx::Matrix scaled = gbx::MinMaxScaler().FitTransform(d.data.x());
    const gbx::SoaMatrix soa = gbx::SoaMatrix::FromMatrix(scaled);
    const int rows = scaled.rows();
    std::vector<double> out(static_cast<std::size_t>(rows));
    const double t0 = Now();
    int calls = 0;
    // At least 20 ms per input so the clock's resolution does not show.
    while (Now() - t0 < 0.02) {
      for (int k = 0; k < 16; ++k, ++calls) {
        gbx::simd::SquaredDistanceBatch(scaled.Row(calls % rows), soa, 0,
                                        rows, out.data());
      }
    }
    const double t1 = Now();
    tr->Record("simd.sqdist", t0, t1);
    std::fprintf(stderr, "simd: %-8s d=%-3d sqdist %.3f ns/row\n",
                 d.name.c_str(), scaled.cols(),
                 (t1 - t0) * 1e9 / (static_cast<double>(calls) * rows));
    sq_ns += (t1 - t0) * 1e9;
    sq_rows += static_cast<double>(calls) * rows;
    // Computed bytes moved per call: every row's d doubles read, one
    // double written per row.
    sq_bytes += static_cast<double>(rows) * (scaled.cols() + 1) * 8.0;
    sq_calls += 1.0;
  }
  res.Set("simd.sqdist_ns_per_row", sq_ns / sq_rows, "ns");
  res.Set("simd.sqdist_bytes_per_call", sq_bytes / sq_calls, "B");
  res.Set("simd.level", static_cast<double>(gbx::simd::Active()), "level");
  std::fprintf(stderr, "simd: active level %s\n", gbx::simd::ActiveName());
}

}  // namespace gbxbench
