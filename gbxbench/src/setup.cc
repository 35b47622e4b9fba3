// Workload table, data generation, model set-up and query pools.
#include <pthread.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <string>
#include <utility>

#include "bench.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "data/paper_suite.h"
#include "data/scaler.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "serve/model_io.h"
#include "serve/protocol.h"

namespace gbxbench {

namespace {

// Serving models vote over the 3 nearest balls, as gbx_loadgen --self
// does; offline workloads serve their granulation with the same rule.
constexpr int kVotingBalls = 3;
// Query rows drawn per served model when the workload has no held-out
// split (offline workloads query their own training rows).
constexpr int kQueriesPerModel = 512;

std::vector<NamedDataset> MakeSuite(std::uint64_t seed) {
  // The 13 Table I stand-ins, capped at 4000 samples: the paper's
  // Table II protocol, d from 2 to 256.
  std::vector<NamedDataset> out;
  for (int i = 0; i < 13; ++i) {
    out.push_back({gbx::PaperDatasetSpecs()[i].id,
                   gbx::MakePaperDataset(i, 4000, seed)});
  }
  return out;
}

std::vector<NamedDataset> MakeLowDim(std::uint64_t seed) {
  // Heavily overlapping blobs in d=4 (the bench_granulation overlap
  // geometry at d=4): kAuto resolves RD-GBG to the DynamicKdTree pass and
  // the rounds x |U| term dominates. The cluster layout is drawn once from
  // a fixed stream and each seed samples 30000 of its points: GBABS time
  // depends strongly on how much a draw of cluster centers overlaps
  // (+-15 % between layouts), which would otherwise swamp what the
  // benchmark is after.
  constexpr int kPool = 120000;
  constexpr int kSamples = 30000;
  gbx::BlobsConfig cfg;
  cfg.num_samples = kPool;
  cfg.num_features = 4;
  cfg.num_classes = 4;
  cfg.clusters_per_class = 3;
  cfg.center_spread = 4.0;
  cfg.cluster_std = 1.2;
  gbx::Pcg32 layout(20250101);
  const gbx::Dataset pool = gbx::MakeGaussianBlobs(cfg, &layout);
  std::vector<int> rows(kPool);
  std::iota(rows.begin(), rows.end(), 0);
  gbx::Pcg32 rng(seed, 5);
  std::shuffle(rows.begin(), rows.end(), rng);
  rows.resize(kSamples);
  return {{"blobs", pool.Subset(rows)}};
}

std::pair<std::string, int> ServedPaperDataset(const std::string& workload) {
  // serve-small: S5 (banana, 2 features) -> ~90 balls, so request cost is
  // queueing and transport. serve-large: S13 (256 features) -> ~2000
  // balls, so the surface-score scan and payload parsing dominate.
  return workload == "serve-small" ? std::make_pair(std::string("S5"), 400)
                                   : std::make_pair(std::string("S13"), 3000);
}

/// Serializes `model`, loads the artifact back and publishes it.
void PublishModel(const RunContext& ctx, const std::string& name,
                  const gbx::GbKnnClassifier& model,
                  gbx::ModelRegistry* registry, std::int64_t parent) {
  Tracer* tr = ctx.tracer;
  std::string text;
  {
    ScopedSpan s(tr, "model_io.save", parent);
    text = gbx::ModelToString(model);
  }
  gbx::StatusOr<gbx::LoadedModel> loaded = gbx::Status::Internal("unset");
  {
    ScopedSpan s(tr, "model_io.load", parent);
    loaded = gbx::ModelFromString(text);
  }
  if (!loaded.ok()) {
    ctx.result->Fail("model_io round trip of " + name + ": " +
                     loaded.status().ToString());
    return;
  }
  ScopedSpan s(tr, "registry.publish", parent);
  const auto published = registry->Publish(name, std::move(loaded).value());
  if (!published.ok()) {
    ctx.result->Fail("publish " + name + ": " +
                     published.status().ToString());
  }
}

/// Registry name of a model served alongside `count - 1` others: a single
/// model is the server's default route, several are addressed "@NAME".
std::string RouteName(const std::string& name, std::size_t count) {
  return count == 1 ? std::string("default") : name;
}

gbx::Matrix SampleRows(const gbx::Dataset& ds, int count, std::uint64_t seed) {
  gbx::Pcg32 rng(seed, 7);
  gbx::Matrix out(count, ds.num_features());
  for (int i = 0; i < count; ++i) {
    const double* row =
        ds.row(static_cast<int>(rng.NextBounded(static_cast<std::uint32_t>(
            ds.size()))));
    for (int j = 0; j < ds.num_features(); ++j) out.At(i, j) = row[j];
  }
  return out;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {.name = "gbabs-suite",
       .nominal_qps = 1000.0,
       .gbabs_share = 0.5,
       .nominal_share = 0.25,
       .rounds = 1,
       .index_probe_inputs = 13},
      {.name = "gbabs-lowdim",
       .nominal_qps = 2000.0,
       .gbabs_share = 0.5,
       .nominal_share = 0.15,
       .rounds = 3},
      {.name = "serve-small",
       .fit_in_setup = true,
       .nominal_qps = 2000.0,
       .gbabs_share = 0.15,
       .nominal_share = 0.45,
       .rounds = 6,
       .draws = 16},
      {.name = "serve-large",
       .fit_in_setup = true,
       .nominal_qps = 1000.0,
       .gbabs_share = 0.25,
       .nominal_share = 0.35,
       .rounds = 4,
       .draws = 3},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

void PinLibraryThreads(int threads, int nproc) {
  ::setenv("GBX_THREADS", std::to_string(threads).c_str(), 1);
  gbx::ParallelForRange(nproc, 1, nproc, [](int, int) {});
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&saved_);
  if (::pthread_getaffinity_np(::pthread_self(), sizeof(saved_), &saved_) !=
      0) {
    return;  // cpus_ stays empty: Next() does nothing
  }
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) {
    ::pthread_setaffinity_np(::pthread_self(), sizeof(saved_), &saved_);
  }
}

void CpuRotation::Next() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  ::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one);
}

Setup RunSetup(const RunContext& ctx) {
  Tracer* tr = ctx.tracer;
  ScopedSpan root(tr, "setup");
  Setup setup;
  const std::string& name = ctx.spec->name;
  {
    ScopedSpan s(tr, "setup.data", root.id());
    if (name == "gbabs-suite") {
      setup.gbabs_inputs = MakeSuite(ctx.seed);
    } else if (name == "gbabs-lowdim") {
      setup.gbabs_inputs = MakeLowDim(ctx.seed);
    } else {
      const auto [id, cap] = ServedPaperDataset(name);
      for (int k = 0; k < ctx.spec->draws; ++k) {
        const std::uint64_t draw_seed =
            ctx.seed * static_cast<std::uint64_t>(ctx.spec->draws) +
            static_cast<std::uint64_t>(k);
        const gbx::Dataset ds = gbx::MakePaperDataset(id, cap, draw_seed);
        gbx::Pcg32 split_rng(draw_seed, 3);
        gbx::TrainTestSplitResult split =
            gbx::TrainTestSplit(ds, 0.3, &split_rng);
        const std::string draw = k == 0 ? id : id + "." + std::to_string(k);
        setup.gbabs_inputs.push_back({draw, std::move(split.train)});
        if (k == 0) setup.query_rows.push_back(split.test.x());
      }
    }
  }
  if (!ctx.spec->fit_in_setup) {
    for (const NamedDataset& d : setup.gbabs_inputs) {
      setup.query_rows.push_back(SampleRows(d.data, kQueriesPerModel, ctx.seed));
    }
    return setup;
  }
  setup.registry = std::make_shared<gbx::ModelRegistry>();
  const NamedDataset& train = setup.gbabs_inputs.front();
  gbx::RdGbgConfig gbg;
  gbg.num_threads = ctx.nproc;
  auto model = std::make_unique<gbx::GbKnnClassifier>(gbg, kVotingBalls);
  {
    ScopedSpan s(tr, "gbknn.fit", root.id());
    model->Fit(train.data, nullptr);
  }
  PublishModel(ctx, RouteName(train.name, 1), *model, setup.registry.get(),
               root.id());
  setup.models.push_back({RouteName(train.name, 1), std::move(model),
                          setup.query_rows.front()});
  return setup;
}

void PublishFromGranulations(const RunContext& ctx,
                             const std::vector<gbx::GbabsResult>& runs,
                             Setup* setup) {
  ScopedSpan root(ctx.tracer, "publish");
  setup->registry = std::make_shared<gbx::ModelRegistry>();
  const std::size_t count = setup->gbabs_inputs.size();
  for (std::size_t i = 0; i < count; ++i) {
    const gbx::Dataset& ds = setup->gbabs_inputs[i].data;
    gbx::MinMaxScaler scaler;
    scaler.Fit(ds.x());
    auto model = std::make_unique<gbx::GbKnnClassifier>(gbx::RdGbgConfig{},
                                                        kVotingBalls);
    {
      // The granulation RunGbabs built is exactly the one Fit would
      // build with the same config, so restoring it is the fit.
      ScopedSpan s(ctx.tracer, "gbknn.fit", root.id());
      model->Restore(runs[i].gbg.balls, std::move(scaler), ds.num_classes());
    }
    const std::string route = RouteName(setup->gbabs_inputs[i].name, count);
    PublishModel(ctx, route, *model, setup->registry.get(), root.id());
    setup->models.push_back({route, std::move(model), setup->query_rows[i]});
  }
}

std::vector<Query> BuildQueries(const Setup& setup) {
  // Round-robin over the models so every stretch of the schedule mixes
  // them in the same proportion.
  std::vector<Query> out;
  const std::size_t models = setup.models.size();
  int rows = 0;
  for (const ServedModel& m : setup.models) {
    rows = std::max(rows, m.queries.rows());
  }
  for (int r = 0; r < rows; ++r) {
    for (const ServedModel& m : setup.models) {
      const double* x = m.queries.Row(r % m.queries.rows());
      Query q;
      q.payload = gbx::FormatPredictPayload(
          models == 1 ? std::string() : m.name, x, m.queries.cols());
      q.frame = gbx::EncodeFrame(q.payload);
      q.expected = m.reference->Predict(x);
      out.push_back(std::move(q));
    }
  }
  return out;
}

}  // namespace gbxbench
