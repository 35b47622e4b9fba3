// Shared types of the gbxbench driver: the workload table, the result the
// run prints, and the phases main() sequences.
#ifndef GBXBENCH_BENCH_H_
#define GBXBENCH_BENCH_H_

#include <sched.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client.h"
#include "core/gbabs.h"
#include "data/dataset.h"
#include "ml/gb_knn.h"
#include "result.h"
#include "serve/registry.h"
#include "trace.h"

namespace gbxbench {

/// One named workload. The offline ones time GBABS on the paper's data
/// and serve the GB-kNN their own granulation defines; the serving ones
/// fit a model at set-up and spend most of the run under open-loop load.
struct WorkloadSpec {
  std::string name;
  /// Fit, serialize, load and publish the model during set-up (serving
  /// workloads); otherwise the served models are restored from the
  /// first GBABS pass's granulations.
  bool fit_in_setup = false;
  /// Requests per second of the fixed-rate phase that gives p50/p99.
  double nominal_qps = 1000.0;
  /// Shares of --seconds given to GBABS passes and to the fixed-rate
  /// windows; the rate ladder takes what it needs after them.
  double gbabs_share = 0.5;
  double nominal_share = 0.2;
  /// The windows and the GBABS passes after the first alternate in this
  /// many rounds, so both sample the machine across the whole run: its
  /// speed drifts by 20 % or more over seconds on a shared host.
  int rounds = 1;
  /// Serving workloads: independent draws of the served dataset the GBABS
  /// passes sample (the model is fitted on the first). A small dataset's
  /// GBABS time varies by ~30 % from draw to draw; several per run keep
  /// one run's figure close to the next one's.
  int draws = 1;
  /// GBABS inputs the traced run granulates with each strategy forced
  /// (forced flat on 30000 low-dimensional rows alone takes ~20 s).
  int index_probe_inputs = 1;
};

const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& Workloads();

struct NamedDataset {
  std::string name;
  gbx::Dataset data;
};

/// A served model: its registry name, the in-process classifier replies
/// are checked against, and the requests the load driver sends it.
struct ServedModel {
  std::string name;
  std::unique_ptr<gbx::GbKnnClassifier> reference;
  gbx::Matrix queries;  // raw (unscaled) query rows
};

/// What set-up hands to the timed phases.
struct Setup {
  std::vector<NamedDataset> gbabs_inputs;  // what the GBABS passes sample
  std::vector<gbx::Matrix> query_rows;      // per GBABS input or model
  std::vector<ServedModel> models;          // filled by set-up or later
  std::shared_ptr<gbx::ModelRegistry> registry;
};

struct RunContext {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int nproc = 1;
  int server_workers = 1;
  Tracer* tracer = nullptr;
  Result* result = nullptr;
};

/// Sets the library pool size (GBX_THREADS) of calls that do not name
/// one, and starts the pool's workers for calls that name `nproc`, so
/// that no worker starts later under a CpuRotation's mask. Called once,
/// before any other thread starts.
void PinLibraryThreads(int threads, int nproc);

/// Moves the calling thread round the CPUs the process may use, one CPU
/// per Next(), and gives it back its own CPU mask when destroyed. The
/// vCPUs of a shared host differ in speed by up to ~70 % (their hardware
/// siblings run other tenants' work), and the scheduler keeps a thread on
/// one of them, so a serial phase would otherwise run at the speed of
/// whichever CPU it landed on. Threads started meanwhile would inherit
/// the one-CPU mask: start none.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// --- set-up (setup.cc) ---
/// Generates the workload's data and, for serving workloads, fits,
/// serializes, loads and publishes the model.
Setup RunSetup(const RunContext& ctx);
/// Builds each model's query pool, payloads and expected labels.
std::vector<Query> BuildQueries(const Setup& setup);
/// Restores served GB-kNN models from GBABS granulations (offline
/// workloads), round-trips them through model_io and publishes them.
void PublishFromGranulations(const RunContext& ctx,
                             const std::vector<gbx::GbabsResult>& runs,
                             Setup* setup);

// --- GBABS passes and the layers under them (offline.cc) ---
class GbabsPasses {
 public:
  GbabsPasses(const RunContext& ctx, const Setup& setup);

  /// Runs whole passes over every input until `seconds` have elapsed, at
  /// least one. Every pass's output must match the first pass's.
  void Run(double seconds);
  /// The first pass's results (the granulations offline workloads serve).
  const std::vector<gbx::GbabsResult>& first() const { return first_; }
  /// One pass's time: the sum over inputs of each one's 10th percentile
  /// over passes.
  double PassSeconds() const;
  int passes() const { return static_cast<int>(seconds_.front().size()); }

 private:
  const RunContext& ctx_;
  const Setup& setup_;
  gbx::GbabsConfig config_;
  std::vector<gbx::GbabsResult> first_;
  std::vector<std::vector<double>> seconds_;  // per input, per pass
};

/// Traced per-layer probes of core, index and simd.
void ProbeOfflineLayers(const RunContext& ctx, const Setup& setup,
                        const GbabsPasses& untraced);

// --- serving and the layers under it (serving.cc) ---
/// An in-process Server over the published models and the load driver.
class ServingSession {
 public:
  ServingSession(const RunContext& ctx, const Setup& setup,
                 const std::vector<Query>& queries);
  ~ServingSession();
  ServingSession(const ServingSession&) = delete;
  ServingSession& operator=(const ServingSession&) = delete;

  bool ok() const { return ok_; }
  /// Fixed-rate windows of the workload's run, in total.
  int TotalWindows() const;
  /// `count` windows at the nominal rate, each after an unrecorded
  /// lead-in, with the driver and the server's threads on one CPU, the
  /// next CPU each window.
  void Windows(int count);
  /// Reports p50 (and p99) over every window, climbs the rate ladder,
  /// and stops the server.
  void Finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  bool ok_ = false;
};

/// Traced per-layer probes of ml, simd surface scores, protocol, engine
/// and server overhead. Runs after ServingSession::Finish.
void ProbeServingLayers(const RunContext& ctx, const Setup& setup,
                        const std::vector<Query>& queries);

}  // namespace gbxbench

#endif  // GBXBENCH_BENCH_H_
