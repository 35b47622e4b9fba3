#include "index/index_strategy.h"

namespace gbx {

namespace {
// RD-GBG thresholds, measured with bench_granulation's strategy axis
// (1 core, 2.1 GHz). They come from Gaussian-blob geometries: the
// overlapping regime (many small balls — the paper's hard case) has the
// KD-tree ahead 9.6× at (n=20k, d=2) and 3.6× at d=4; the
// well-separated regime (few huge balls, so candidates consume whole
// clusters from the stream) only clearly favors the tree at d<=2, and at
// d<=4 from ~20k points. kAuto must not lose on either regime, so it
// takes the intersection. The flat scan also parallelizes over the
// thread pool while a tree query is serial, so the d<=4 tier (3.6×
// single-thread margin) only engages up to kRdGbgTreeMaxThreads
// workers; the d<=2 tier's ~9× margin outruns typical thread scaling
// and stays on.
constexpr int kRdGbgTreeMaxDimsLow = 2;    // KD-tree from kRdGbgTreeMinPoints
constexpr int kRdGbgTreeMaxDimsHigh = 4;   // KD-tree from kRdGbgTreeBigPoints
constexpr int kRdGbgTreeMinPoints = 4096;
constexpr int kRdGbgTreeBigPoints = 16384;
constexpr int kRdGbgTreeMaxThreads = 4;  // for the d<=4 tier only
// r_conf surface pass: the flat gap scan is O(B) per candidate but
// parallelized; a BallSurfaceIndex query is serial and sublinear.
// Measured (bench_index_dynamic BM_SurfaceGapDrain, 1 core): the index
// is ahead of the serial flat scan from ~2k balls at every measured d
// (4.0× at 2k / 7.3× at 8k / 19× at 32k for d=2; 1.8× / 1.4× / 2.5×
// for d=10), so one worker switches early; big pools amortize the flat
// scan better, so the threshold scales with the worker count.
constexpr int kSurfaceMinBallsSerial = 512;
constexpr int kSurfaceMinBallsPerThread = 512;
// GB-kNN center scan (KNearestSurface): the KD-tree tier is measured at
// ~4k balls for d<=16 on clustered blob centers (2.6× ahead at 16k
// balls, d=8; behind from d=16 on isotropic centers but ahead on
// low-intrinsic-dimension centers — the 16-d cap keeps the iid loss
// bounded to the ~1.6× measured at d=16). Past d=16 the flat SIMD scan
// wins or ties every measured row.
//
// Thread-awareness, re-measured under GBX_THREADS ∈ {1, 4, 8}
// (bench_index_dynamic BM_GbKnnPredict): unlike RD-GBG — where the flat
// scan parallelizes *inside* the serial candidate loop and a tree query
// cannot — batch prediction fans out over queries for every strategy,
// so the tree's margin (2.3× at 15.6k balls, d=10) is invariant in the
// worker count and the entry bar must NOT rise with it (a ×threads bar
// measurably hands kAuto a 2× loss at GBX_THREADS=4 on that grid).
constexpr int kCenterTreeMinBalls = 4096;
constexpr int kCenterTreeMaxDims = 16;
}  // namespace

const char* IndexStrategyName(IndexStrategy strategy) {
  switch (strategy) {
    case IndexStrategy::kAuto:
      return "auto";
    case IndexStrategy::kFlat:
      return "flat";
    case IndexStrategy::kTree:
      return "tree";
    case IndexStrategy::kSampled:
      return "sampled";
  }
  return "auto";
}

bool ParseIndexStrategy(const std::string& text, IndexStrategy* out) {
  if (text == "auto") {
    *out = IndexStrategy::kAuto;
  } else if (text == "flat") {
    *out = IndexStrategy::kFlat;
  } else if (text == "tree") {
    *out = IndexStrategy::kTree;
  } else if (text == "sampled") {
    *out = IndexStrategy::kSampled;
  } else {
    return false;
  }
  return true;
}

IndexStrategy ResolveRdGbgIndexStrategy(IndexStrategy requested, int n,
                                        int dims, int num_threads,
                                        const Matrix* /*points*/) {
  // Granulation is always exact: an approximate candidate scan would
  // change the balls — and therefore the model bytes — so a kSampled
  // request degrades to kAuto here and only takes effect at inference
  // (GB-kNN's center scan).
  if (requested == IndexStrategy::kSampled) requested = IndexStrategy::kAuto;
  if (requested != IndexStrategy::kAuto) return requested;
  const bool kd_tree =
      (dims <= kRdGbgTreeMaxDimsLow && n >= kRdGbgTreeMinPoints) ||
      (dims <= kRdGbgTreeMaxDimsHigh && n >= kRdGbgTreeBigPoints &&
       num_threads <= kRdGbgTreeMaxThreads);
  return kd_tree ? IndexStrategy::kTree : IndexStrategy::kFlat;
}

int ResolveRdGbgSurfaceThreshold(IndexStrategy requested, int num_threads) {
  switch (requested) {
    case IndexStrategy::kFlat:
      return kSurfaceIndexNever;
    case IndexStrategy::kTree:
      return 0;
    case IndexStrategy::kAuto:
    case IndexStrategy::kSampled:  // exact during granulation, like kAuto
      break;
  }
  if (num_threads <= 1) return kSurfaceMinBallsSerial;
  return kSurfaceMinBallsPerThread * num_threads;
}

IndexStrategy ResolveCenterIndexStrategy(IndexStrategy requested,
                                         int num_balls, int dims) {
  if (requested != IndexStrategy::kAuto) return requested;
  if (num_balls >= kCenterTreeMinBalls && dims <= kCenterTreeMaxDims) {
    return IndexStrategy::kTree;
  }
  return IndexStrategy::kFlat;
}

}  // namespace gbx
