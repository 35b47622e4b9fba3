// The serving phase (p50_ms, max_qps_at_slo, p99) and the traced probes
// of the layers under it: ml (GB-kNN predict), simd (surface scores),
// protocol (payload parse/format), engine (InferenceEngine in-process)
// and server (client p50 minus engine p50, Server::Stats()).
#include <dirent.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "simd/simd.h"
#include "stats.h"

namespace gbxbench {

namespace {

// Client connections the single load-driver thread multiplexes.
constexpr int kConnections = 4;
// How long a run waits for replies after the last request was due.
constexpr double kDrainLimitS = 5.0;
// Unrecorded requests at the nominal rate before each window, so that
// connections, engines and caches settle after a move to another CPU.
//
// The windows that give p50 run the load driver, the event loop and the
// workers on a single CPU, the driver yielding it whenever a server
// thread is ready. Spread over the CPUs, every request wakes a halted
// vCPU two or three times (event loop, worker, batch timer), and on a
// shared host such a wake-up waits for the hypervisor: p50 at 2000 qps
// then read 0.42-1.0 ms on unchanged code, rising with the host's steal
// time. On one busy CPU the wake-ups stay inside the guest and p50 holds
// within a few percent. The CPU changes every window, because the vCPUs
// of a shared host differ in speed. The rate ladder uses every CPU.
constexpr double kLeadInS = 0.05;
// Each latency window and ladder rung holds at least this many requests,
// so p99 has at least 10 samples beyond it. Rungs last at least 0.5 s.
constexpr double kMinRequestsPerWindow = 1000.0;

double Ms(double seconds) { return seconds * 1e3; }

/// CPU ticks consumed so far by each thread of this process.
std::map<int, long long> ThreadCpuTicks() {
  std::map<int, long long> out;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (dirent* e = ::readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(std::string("/proc/self/task/") + e->d_name + "/stat");
    std::string line;
    std::getline(in, line);
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::vector<std::string> fields;
    std::size_t pos = close + 2;
    while (pos < line.size()) {
      const std::size_t sp = line.find(' ', pos);
      fields.push_back(line.substr(pos, sp - pos));
      if (sp == std::string::npos) break;
      pos = sp + 1;
    }
    if (fields.size() < 13) continue;
    out[std::atoi(e->d_name)] =
        std::atoll(fields[11].c_str()) + std::atoll(fields[12].c_str());
  }
  ::closedir(dir);
  return out;
}

/// Restricts each thread in `tids` (0: the calling thread) to `mask`.
void SetAffinity(const std::vector<int>& tids, const cpu_set_t& mask) {
  for (const int tid : tids) ::sched_setaffinity(tid, sizeof(mask), &mask);
}

struct Window {
  std::vector<double> ok_ms;  // latency from the due time, ok replies
  std::vector<double> lateness_ms;
  std::int64_t sent = 0, ok = 0, shed = 0, other_failed = 0;
};

Window Summarize(const std::vector<Record>& recs, std::size_t begin,
                 std::size_t end) {
  Window w;
  for (std::size_t i = begin; i < end; ++i) {
    const Record& r = recs[i];
    ++w.sent;
    w.lateness_ms.push_back(Ms(r.sent - r.due));
    if (r.outcome == Outcome::kOk) {
      ++w.ok;
      w.ok_ms.push_back(Ms(r.done - r.due));
    } else if (r.outcome == Outcome::kShed) {
      ++w.shed;
    } else {
      ++w.other_failed;
    }
  }
  return w;
}

std::int64_t CountWrongLabels(const std::vector<Record>& recs) {
  return std::count_if(recs.begin(), recs.end(), [](const Record& r) {
    return r.outcome == Outcome::kWrongLabel;
  });
}

/// Model index and row of query j in the round-robin pool.
std::pair<std::size_t, int> QuerySource(const Setup& setup, std::size_t j) {
  const std::size_t m = setup.models.size();
  const ServedModel& model = setup.models[j % m];
  return {j % m, static_cast<int>((j / m) %
                                  static_cast<std::size_t>(model.queries.rows()))};
}

}  // namespace

struct ServingSession::Impl {
  Impl(const RunContext& c, const Setup& setup,
       const std::vector<Query>& q)
      : ctx(c), queries(q), server(setup.registry, [&] {
          gbx::ServerOptions options;
          options.num_workers = c.server_workers;
          return options;
        }()) {}

  /// Adds the threads that used CPU since `before` to `threads_used`.
  void CountThreads(const std::map<int, long long>& before) {
    for (const auto& [tid, ticks] : ThreadCpuTicks()) {
      const auto it = before.find(tid);
      if (ticks > (it == before.end() ? 0 : it->second)) {
        threads_used.insert(tid);
      }
    }
  }

  /// Sends `count` requests at `rate`, starting now; accounts them.
  std::vector<Record> Send(double rate, std::int64_t count, bool shed_fails) {
    Result& res = *ctx.result;
    std::vector<Record> recs =
        client.Run(rate, Now() + 0.005, count, queries, offset, kDrainLimitS);
    offset += recs.size();
    const Window w = Summarize(recs, 0, recs.size());
    sent += w.sent;
    ok += w.ok;
    failed += w.shed + w.other_failed;
    res.attempted += w.sent;
    // Shed replies above the saturation rate are what the ladder looks
    // for, not errors; everything else that is not "ok" is one.
    res.failed += w.other_failed + (shed_fails ? w.shed : 0);
    if (shed_fails && w.shed + w.other_failed > 0) {
      res.Fail(std::to_string(w.shed + w.other_failed) + " of " +
               std::to_string(w.sent) + " requests failed at " +
               std::to_string(rate) + " qps, the nominal rate");
    }
    if (CountWrongLabels(recs) > 0) {
      res.Fail("server replies differ from in-process GbKnnClassifier::Predict");
    }
    return recs;
  }

  const RunContext& ctx;
  const std::vector<Query>& queries;
  gbx::Server server;
  /// The threads this process ran before the server started (the driver
  /// and the library pool); every later one is the server's.
  std::vector<int> ServerThreads() const {
    std::vector<int> out;
    for (const auto& [tid, ticks] : ThreadCpuTicks()) {
      if (pre_server_tids.count(tid) == 0) out.push_back(tid);
    }
    return out;
  }

  std::set<int> pre_server_tids;
  // The process's CPU mask, and the CPU the next window runs on.
  cpu_set_t all_cpus;
  std::vector<int> cpus;
  std::size_t next_cpu = 0;
  OpenLoopClient client;
  std::size_t offset = 0;
  std::int64_t sent = 0, ok = 0, failed = 0;
  std::set<int> threads_used;
  // Per fixed-rate window: latencies of ok replies, and the generator's
  // lateness for every request.
  std::vector<Window> windows;
};

ServingSession::ServingSession(const RunContext& ctx, const Setup& setup,
                               const std::vector<Query>& queries)
    : impl_(std::make_unique<Impl>(ctx, setup, queries)) {
  Result& res = *ctx.result;
  for (const auto& [tid, ticks] : ThreadCpuTicks()) {
    impl_->pre_server_tids.insert(tid);
  }
  const gbx::Status started = impl_->server.Start();
  if (!started.ok()) {
    res.Fail("server start: " + started.ToString());
    return;
  }
  CPU_ZERO(&impl_->all_cpus);
  ::sched_getaffinity(0, sizeof(impl_->all_cpus), &impl_->all_cpus);
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &impl_->all_cpus)) impl_->cpus.push_back(c);
  }
  const gbx::Status connected =
      impl_->client.Connect(impl_->server.port(), kConnections);
  if (!connected.ok()) {
    res.Fail("connect: " + connected.ToString());
    return;
  }
  ok_ = true;
}

ServingSession::~ServingSession() { impl_->server.Stop(); }

int ServingSession::TotalWindows() const {
  const RunContext& ctx = impl_->ctx;
  const double window_s = kMinRequestsPerWindow / ctx.spec->nominal_qps;
  const int windows = static_cast<int>(
      std::lround(ctx.spec->nominal_share * ctx.seconds / window_s));
  return std::max(5, windows) | 1;
}

void ServingSession::Windows(int count) {
  Impl& im = *impl_;
  const double rate = im.ctx.spec->nominal_qps;
  const std::int64_t per_window =
      static_cast<std::int64_t>(kMinRequestsPerWindow);
  const auto before = ThreadCpuTicks();
  std::vector<int> pinned;
  for (int w = 0; w < count; ++w) {
    // Each window runs the driver and every server thread on one CPU, the
    // next one round the machine each time (see kLeadInS).
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(im.cpus[im.next_cpu++ % im.cpus.size()], &one);
    pinned = im.ServerThreads();
    pinned.push_back(0);  // the load driver
    SetAffinity(pinned, one);
    im.Send(rate, static_cast<std::int64_t>(rate * kLeadInS), true);
    const auto recs = im.Send(rate, per_window, true);
    im.windows.push_back(Summarize(recs, 0, recs.size()));
    Tracer* tr = im.ctx.tracer;
    if (tr->enabled()) {
      for (const Record& r : recs) {
        const std::int64_t id = tr->Record("client.request", r.due, r.done);
        tr->Record("client.send_lateness", r.due, r.sent, id);
      }
    }
  }
  im.CountThreads(before);
  SetAffinity(pinned, im.all_cpus);
}

void ServingSession::Finish() {
  Impl& im = *impl_;
  const RunContext& ctx = im.ctx;
  Result& res = *ctx.result;
  // p50 pools every reply; p99 is the median of the windows' tail
  // percentiles, so one scheduler hiccup moves one window.
  std::vector<double> all_ok, window_tails, window_samples, lateness;
  double min_tail_pct = 99.0;
  for (const Window& win : im.windows) {
    const Tail tail = TailPercentile(win.ok_ms);
    window_tails.push_back(tail.value);
    window_samples.push_back(static_cast<double>(tail.samples));
    min_tail_pct = std::min(min_tail_pct, tail.percentile);
    all_ok.insert(all_ok.end(), win.ok_ms.begin(), win.ok_ms.end());
    lateness.insert(lateness.end(), win.lateness_ms.begin(),
                    win.lateness_ms.end());
  }
  const double p50 = Median(all_ok);
  std::fprintf(stderr, "serve: window p50s (ms):");
  for (const Window& win : im.windows) {
    std::fprintf(stderr, " %.3f", Median(win.ok_ms));
  }
  std::fprintf(stderr, "\n");
  const double p99 = Median(window_tails);
  const Tail late = TailPercentile(lateness);
  const double late_p50 = Median(lateness);
  const Slo slo;
  if (late_p50 > slo.max_median_lateness_ms) {
    res.Fail("load generator fell behind its schedule (median lateness " +
             std::to_string(late_p50) + " ms)");
  }
  std::fprintf(stderr,
               "serve: %.0f qps, %zu windows of %.0f requests: %zu ok, "
               "p50 %.4f ms, p%.0f %.4f ms (median of windows), "
               "generator lateness p50 %.4f ms p%.0f %.4f ms\n",
               ctx.spec->nominal_qps, im.windows.size(), kMinRequestsPerWindow,
               all_ok.size(), p50, min_tail_pct, p99, late_p50,
               late.percentile, late.value);

  // The ladder: climb from the nominal rung until the SLO fails.
  std::vector<Rung> log;
  const auto before = ThreadCpuTicks();
  const auto run_rung = [&](double r) {
    const std::int64_t n = static_cast<std::int64_t>(
        std::ceil(std::max(kMinRequestsPerWindow, 0.5 * r)));
    const auto rung_recs = im.Send(r, n, false);
    const Window w = Summarize(rung_recs, 0, rung_recs.size());
    std::vector<double> ok_done;
    for (const Record& rec : rung_recs) {
      if (rec.outcome == Outcome::kOk) ok_done.push_back(rec.done);
    }
    Rung g;
    g.offered_qps = r;
    g.sent = w.sent;
    g.ok = w.ok;
    g.failed = w.shed + w.other_failed;
    g.latency = TailPercentile(w.ok_ms);
    g.achieved_qps = AchievedQps(std::move(ok_done), w.sent,
                                 rung_recs.front().due, r);
    g.lateness_p50_ms = Median(w.lateness_ms);
    g.lateness_p99_ms = TailPercentile(w.lateness_ms).value;
    std::fprintf(stderr,
                 "ladder: offered %8.1f qps achieved %8.1f, p%.0f %.3f ms, "
                 "sent %lld ok %lld failed %lld, lateness p50 %.3f p99 %.3f "
                 "ms -> %s\n",
                 r, g.achieved_qps, g.latency.percentile, g.latency.value,
                 static_cast<long long>(g.sent), static_cast<long long>(g.ok),
                 static_cast<long long>(g.failed), g.lateness_p50_ms,
                 g.lateness_p99_ms, RungPasses(g, slo) ? "pass" : "fail");
    return g;
  };
  const double max_qps = MaxQpsAtSlo(
      LadderRungAtOrBelow(ctx.spec->nominal_qps), run_rung, slo, &log);
  im.CountThreads(before);
  const gbx::ServerStats stats = im.server.Stats();
  im.server.Stop();
  const int threads = static_cast<int>(im.threads_used.size());
  if (threads > ctx.nproc) {
    res.Fail("serving used " + std::to_string(threads) + " threads on " +
             std::to_string(ctx.nproc) + " CPUs");
  }
  std::fprintf(stderr,
               "serve: max_qps_at_slo %.1f after %zu rungs; %d threads used "
               "(1 client + 1 event loop + %d workers planned)\n",
               max_qps, log.size(), threads, ctx.server_workers);
  res.Set("p50_ms", p50, "ms");
  res.Set("max_qps_at_slo", max_qps, "1/s");
  res.Set("trace.p50_ms", p50, "ms");
  res.Set("client.p99_ms", p99, "ms");
  // p99 is a median of per-window tails: its sample count is a window's.
  res.Set("client.p99_samples", Median(window_samples), "count");
  res.Set("client.p99_windows", static_cast<double>(im.windows.size()),
          "count");
  res.Set("client.lateness_p99_ms", late.value, "ms");
  res.Set("client.sent", static_cast<double>(im.sent), "count");
  res.Set("client.ok", static_cast<double>(im.ok), "count");
  res.Set("client.failed", static_cast<double>(im.failed), "count");
  res.Set("client.threads_used", threads, "count");
  res.Set("server.queue_peak", static_cast<double>(stats.queue_peak), "count");
  res.Set("server.requests_shed", static_cast<double>(stats.requests_shed),
          "count");
  res.Set("server.deadlines_expired",
          static_cast<double>(stats.deadlines_expired), "count");
}

void ProbeServingLayers(const RunContext& ctx, const Setup& setup,
                        const std::vector<Query>& queries) {
  Result& res = *ctx.result;
  Tracer* tr = ctx.tracer;
  const std::size_t models = setup.models.size();

  // The served classifiers, as the server runs them (library pool pinned
  // to the calling thread).
  std::vector<std::shared_ptr<const gbx::ServedModel>> snapshots;
  for (const ServedModel& m : setup.models) {
    snapshots.push_back(setup.registry->Get(m.name));
  }

  // ml: single Predict and 64-row PredictBatch.
  {
    const double t0 = Now();
    std::size_t j = 0;
    for (; Now() - t0 < 0.3 || j < queries.size(); ++j) {
      const auto [m, row] = QuerySource(setup, j % queries.size());
      snapshots[m]->engine->classifier().Predict(
          setup.models[m].queries.Row(row));
    }
    const double t1 = Now();
    tr->Record("gbknn.predict", t0, t1);
    res.Set("gbknn.predict_us", (t1 - t0) * 1e6 / j, "us");
    std::int64_t batched = 0;
    for (std::size_t k = 0; k < models; ++k) {
      const ServedModel& m = setup.models[k];
      gbx::Matrix batch(64, m.queries.cols());
      for (int r = 0; r < 64; ++r) {
        const double* x = m.queries.Row(r % m.queries.rows());
        std::copy(x, x + m.queries.cols(), batch.Row(r));
      }
      const double b0 = Now();
      const double share = 0.3 / static_cast<double>(models);
      while (Now() - b0 < share) {
        snapshots[k]->engine->classifier().PredictBatch(batch);
        batched += 64;
      }
    }
    const double t2 = Now();
    tr->Record("gbknn.predict_batch", t1, t2);
    res.Set("gbknn.predict_batch_us_per_query", (t2 - t1) * 1e6 / batched,
            "us");
  }

  // simd: the GB-kNN surface-score kernel over each model's centers.
  {
    double ns = 0.0, rows = 0.0;
    for (const ServedModel& m : setup.models) {
      const gbx::GranularBallSet& balls = m.reference->balls();
      const int count = balls.size();
      gbx::Matrix centers(count, m.queries.cols());
      std::vector<double> radii(static_cast<std::size_t>(count));
      for (int i = 0; i < count; ++i) {
        const gbx::GranularBall& b = balls.ball(i);
        std::copy(b.center.begin(), b.center.end(), centers.Row(i));
        radii[static_cast<std::size_t>(i)] = b.radius;
      }
      const gbx::SoaMatrix soa = gbx::SoaMatrix::FromMatrix(centers);
      const gbx::Matrix scaled = m.reference->scaler().Transform(m.queries);
      std::vector<double> out(static_cast<std::size_t>(count));
      const double t0 = Now();
      int calls = 0;
      while (Now() - t0 < 0.02) {
        for (int k = 0; k < 16; ++k, ++calls) {
          gbx::simd::SurfaceScores(scaled.Row(calls % scaled.rows()), soa,
                                   radii.data(), 0, count, out.data());
        }
      }
      const double t1 = Now();
      tr->Record("simd.surface", t0, t1);
      ns += (t1 - t0) * 1e9;
      rows += static_cast<double>(calls) * count;
    }
    res.Set("simd.surface_ns_per_row", ns / rows, "ns");
  }

  // protocol: parse every prepared payload, format every query row.
  {
    std::string model;
    std::vector<double> x;
    double timeout_ms = 0.0;
    const double t0 = Now();
    std::size_t parsed = 0;
    for (; Now() - t0 < 0.2 || parsed < queries.size(); ++parsed) {
      const gbx::Status st = gbx::ParsePredictPayload(
          queries[parsed % queries.size()].payload, &model, &timeout_ms, &x);
      if (!st.ok()) {
        ++res.failed;
        res.Fail("ParsePredictPayload rejected a prepared payload");
        break;
      }
    }
    const double t1 = Now();
    std::size_t formatted = 0, bytes = 0;
    for (; Now() - t1 < 0.2 || formatted < queries.size(); ++formatted) {
      const auto [m, row] = QuerySource(setup, formatted % queries.size());
      const ServedModel& sm = setup.models[m];
      bytes += gbx::FormatPredictPayload(models == 1 ? std::string() : sm.name,
                                         sm.queries.Row(row),
                                         sm.queries.cols())
                   .size();
    }
    const double t2 = Now();
    tr->Record("protocol.parse", t0, t1);
    tr->Record("protocol.format", t1, t2);
    res.Set("protocol.parse_us", (t1 - t0) * 1e6 / parsed, "us");
    res.Set("protocol.format_us", (t2 - t1) * 1e6 / formatted, "us");
    res.Set("protocol.payload_bytes", static_cast<double>(bytes) / formatted,
            "B");
  }

  // engine: InferenceEngine::Predict in-process at the nominal rate, from
  // as many threads as the server has workers: the server's path minus
  // sockets, framing and the event loop. As in the p50 windows, every
  // thread runs on one CPU, which this thread keeps busy, yielding it,
  // until the callers are done.
  {
    std::int64_t req0 = 0, batch0 = 0;
    for (const auto& snap : snapshots) {
      const gbx::InferenceEngineStats s = snap->engine->Stats();
      req0 += s.requests;
      batch0 += s.batches;
    }
    const double rate = ctx.spec->nominal_qps;
    const double dur = std::max(2.0, 2 * kMinRequestsPerWindow / rate);
    const std::int64_t n = static_cast<std::int64_t>(rate * dur);
    const int workers = ctx.server_workers;
    struct Sample {
      double latency_ms = 0.0;
      gbx::PredictTiming timing;
      bool ok = false;
    };
    std::vector<Sample> samples(static_cast<std::size_t>(n));
    cpu_set_t saved, one;
    CPU_ZERO(&saved);
    ::sched_getaffinity(0, sizeof(saved), &saved);
    CPU_ZERO(&one);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved)) {
        CPU_SET(c, &one);
        break;
      }
    }
    SetAffinity({0}, one);
    std::atomic<int> running{workers};
    const double start = Now() + 0.01;
    std::vector<std::thread> threads;
    for (int t = 0; t < workers; ++t) {
      threads.emplace_back([&, t] {
        for (std::int64_t i = t; i < n; i += workers) {
          const double due = start + static_cast<double>(i) / rate;
          std::this_thread::sleep_until(At(due));
          const std::size_t j = static_cast<std::size_t>(i) % queries.size();
          const auto [m, row] = QuerySource(setup, j);
          Sample& s = samples[static_cast<std::size_t>(i)];
          // Timed from the call, not from `due`: a sleeping thread wakes
          // up to the timer slack (50 us) late, which the busy-polling
          // load driver does not.
          const double called = Now();
          const gbx::StatusOr<int> label = snapshots[m]->engine->Predict(
              setup.models[m].queries.Row(row), setup.models[m].queries.cols(),
              &s.timing);
          const double done = Now();
          s.latency_ms = Ms(done - called);
          s.ok = label.ok() && *label == queries[j].expected;
          const std::int64_t id = tr->Record("engine.predict", called, done);
          const double begin = done - s.timing.total_ms / 1e3;
          const double assembled = begin + s.timing.batch_assembly_ms / 1e3;
          tr->Record("engine.batch_assembly", begin, assembled, id);
          tr->Record("engine.compute", assembled,
                     assembled + s.timing.compute_ms / 1e3, id);
        }
        running.fetch_sub(1);
      });
    }
    while (running.load() > 0) ::sched_yield();
    for (std::thread& t : threads) t.join();
    SetAffinity({0}, saved);
    std::vector<double> lat;
    double assembly = 0.0, compute = 0.0, batch = 0.0;
    for (const Sample& s : samples) {
      ++res.attempted;
      if (!s.ok) {
        ++res.failed;
        continue;
      }
      lat.push_back(s.latency_ms);
      assembly += s.timing.batch_assembly_ms;
      compute += s.timing.compute_ms;
      batch += s.timing.batch_size;
    }
    std::int64_t req1 = 0, batch1 = 0;
    for (const auto& snap : snapshots) {
      const gbx::InferenceEngineStats s = snap->engine->Stats();
      req1 += s.requests;
      batch1 += s.batches;
    }
    if (lat.size() < samples.size()) {
      res.Fail("InferenceEngine::Predict differs from GbKnnClassifier");
    }
    const double count = std::max<double>(1.0, static_cast<double>(lat.size()));
    const double engine_p50 = Median(lat);
    res.Set("engine.p50_ms", engine_p50, "ms");
    res.Set("engine.batch_assembly_ms", assembly / count, "ms");
    res.Set("engine.compute_ms", compute / count, "ms");
    res.Set("engine.batch_size", batch / count, "count");
    res.Set("engine.requests", static_cast<double>(req1 - req0), "count");
    res.Set("engine.batches", static_cast<double>(batch1 - batch0), "count");
    res.Set("server.overhead_ms", res.metrics.at("trace.p50_ms").first - engine_p50,
            "ms");
  }
}

}  // namespace gbxbench
