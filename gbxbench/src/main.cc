// gbxbench: the repository's benchmark. One process runs one workload:
//
//   gbxbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Untraced (--trace 0) it measures the end-to-end metrics: set-up time,
// GBABS pass time, open-loop serving latency and the highest rate that
// meets the serving SLO, and peak memory. Traced (--trace 1) it runs the
// same phases once more with spans around every library call and probes
// each layer on its own, then reports the per-layer metrics and writes
// the spans to DIR/traces/. Either way it checks every output (GBABS
// digests across passes, kFlat == kAuto granulations, every served label
// against the in-process classifier) and prints one JSON object as the
// last line of standard output. Human-readable detail goes to stderr.
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "common/log.h"
#include "stats.h"

namespace gbxbench {
namespace {

// The gated end-to-end metrics (BENCHMARK.json "end_to_end"). The p99 at
// the nominal rate and the error rate are printed with them on stderr but
// not gated: p99 jumps far past any bound when a run meets host
// contention (see README.md), and the error rate is 0, which no bound can
// be a share of; failures are the result's "failed" count.
const char* const kEndToEnd[] = {"gbabs_s", "p50_ms", "max_qps_at_slo",
                                 "setup_s", "peak_rss_mb"};

bool IsEndToEnd(const std::string& name) {
  for (const char* e : kEndToEnd) {
    if (name == e) return true;
  }
  return false;
}

// Set-up repeats at least this often, and until it has taken this long,
// so its median is steady even when one set-up takes milliseconds.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 400;
constexpr double kMinSetupTotalS = 1.0;

int Usage() {
  std::fprintf(stderr,
               "usage: gbxbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR]\nworkloads:");
  for (const WorkloadSpec& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace
}  // namespace gbxbench

int main(int argc, char** argv) {
  using namespace gbxbench;
  std::string workload, out_dir = ".bench_build";
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = std::atoll(v);
    } else if (flag == "--seconds") {
      seconds = std::atof(v);
    } else if (flag == "--trace") {
      trace = std::atoi(v);
    } else if (flag == "--out") {
      out_dir = v;
    } else {
      return Usage();
    }
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (argc % 2 != 1 || spec == nullptr || seed < 0 || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }

  // The library's per-publish and per-start info lines would drown the
  // benchmark's own report.
  gbx::logging::SetMinLogLevel(gbx::logging::LogLevel::kError);
  Tracer tracer(trace == 1);
  Result res;
  RunContext ctx;
  ctx.spec = spec;
  ctx.seed = static_cast<std::uint64_t>(seed);
  ctx.seconds = seconds;
  ctx.nproc = OnlineCpus();
  // Thread budget: the load driver (this thread), the server's event loop
  // and its predict workers share the CPUs while serving, with the
  // library pool pinned to the calling thread; GBABS passes and set-up
  // name nproc threads explicitly.
  ctx.server_workers = ctx.nproc - 2;
  ctx.tracer = &tracer;
  ctx.result = &res;
  std::fprintf(stderr,
               "gbxbench: workload %s seed %lld, %.1f s, trace %d; %d CPUs: "
               "1 client + 1 event loop + %d server workers, library pool %d "
               "offline / 1 serving\n",
               spec->name.c_str(), seed, seconds, trace, ctx.nproc,
               ctx.server_workers, ctx.nproc);
  if (ctx.server_workers < 1) {
    std::fprintf(stderr, "gbxbench: needs at least 3 CPUs\n");
    return 1;
  }

  PinLibraryThreads(1, ctx.nproc);

  // Set-up, repeated; the last one is kept.
  Setup setup;
  std::vector<double> setup_s;
  const int setups_min = tracer.enabled() ? 1 : kMinSetups;
  double setup_total = 0.0;
  while (static_cast<int>(setup_s.size()) < setups_min ||
         (!tracer.enabled() && setup_total < kMinSetupTotalS &&
          static_cast<int>(setup_s.size()) < kMaxSetups)) {
    const double t0 = Now();
    setup = RunSetup(ctx);
    setup_s.push_back(Now() - t0);
    setup_total += setup_s.back();
  }
  res.Set("setup_s", Median(setup_s), "s");
  std::fprintf(stderr, "setup: %zu runs, median %.6f s\n", setup_s.size(),
               Median(setup_s));

  // The first GBABS pass; offline workloads serve its granulations.
  GbabsPasses gbabs(ctx, setup);
  const double first_start = Now();
  gbabs.Run(0.0);
  const double first_s = Now() - first_start;
  if (!spec->fit_in_setup) PublishFromGranulations(ctx, gbabs.first(), &setup);
  if (tracer.enabled()) ProbeOfflineLayers(ctx, setup, gbabs);
  const std::vector<Query> queries = BuildQueries(setup);

  if (res.correct) {
    ServingSession serving(ctx, setup, queries);
    if (serving.ok()) {
      // Fixed-rate windows and further GBABS passes alternate; the traced
      // run takes its windows in one go and no further passes.
      const int rounds = tracer.enabled() ? 1 : spec->rounds;
      const int windows = serving.TotalWindows();
      const double slice =
          std::max(0.0, spec->gbabs_share * seconds - first_s) / rounds;
      for (int r = 0; r < rounds; ++r) {
        serving.Windows(windows / rounds + (r < windows % rounds ? 1 : 0));
        if (!tracer.enabled()) gbabs.Run(slice);
      }
      serving.Finish();
    }
  }
  res.Set("gbabs_s", gbabs.PassSeconds(), "s");
  std::fprintf(stderr, "gbabs: %zu datasets x %d passes, %.6f s per pass\n",
               setup.gbabs_inputs.size(), gbabs.passes(), gbabs.PassSeconds());
  if (tracer.enabled() && res.correct) {
    ProbeServingLayers(ctx, setup, queries);
    const double setups = static_cast<double>(setup_s.size());
    const double models = static_cast<double>(setup.models.size());
    res.Set("gbknn.fit_s", tracer.Sum("gbknn.fit").seconds / setups, "s");
    res.Set("model_io.load_s", tracer.Sum("model_io.load").seconds / setups,
            "s");
    res.Set("registry.publish_ms",
            tracer.Sum("registry.publish").seconds * 1e3 / setups / models,
            "ms");
    res.Set("trace.spans", static_cast<double>(tracer.size()), "count");
    const std::string dir = out_dir + "/traces";
    ::mkdir(out_dir.c_str(), 0755);
    ::mkdir(dir.c_str(), 0755);
    const std::string path =
        dir + "/" + spec->name + "-seed" + std::to_string(seed) + ".json";
    if (!tracer.WriteJson(path)) {
      res.Fail("cannot write " + path);
    } else {
      std::fprintf(stderr, "trace: %lld spans -> %s\n",
                   static_cast<long long>(tracer.size()), path.c_str());
    }
  }
  res.Set("peak_rss_mb", PeakRssMb(), "MB");
  const Reported reported = [&](const std::string& name) {
    return IsEndToEnd(name) != tracer.enabled();
  };
  CheckResult(&res, reported);
  for (const std::string& p : res.problems) {
    std::fprintf(stderr, "gbxbench: FAILED CHECK: %s\n", p.c_str());
  }
  const auto get = [&](const char* name) {
    const auto it = res.metrics.find(name);
    return it == res.metrics.end() ? std::nan("") : it->second.first;
  };
  std::fprintf(stderr,
               "gbxbench: %s. gbabs_s %.6g s | p50_ms %.6g ms | p99_ms %.6g "
               "ms (median of %.0f windows of %.0f samples) | max_qps_at_slo "
               "%.6g 1/s | error_rate %.6g (%lld failed of %lld) | setup_s "
               "%.6g s | peak_rss_mb %.6g MB\n",
               res.correct ? "correct" : "NOT correct", get("gbabs_s"),
               get("p50_ms"), get("client.p99_ms"), get("client.p99_windows"),
               get("client.p99_samples"),
               get("max_qps_at_slo"),
               res.attempted > 0
                   ? static_cast<double>(res.failed) / res.attempted
                   : 0.0,
               static_cast<long long>(res.failed),
               static_cast<long long>(res.attempted), get("setup_s"),
               get("peak_rss_mb"));
  std::printf("%s\n", ResultJson(res, reported).c_str());
  return 0;
}
