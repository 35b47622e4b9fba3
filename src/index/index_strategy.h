// Strategy knob for the neighbor-scan hot paths: a parallel flat scan or
// a (dynamic) KD-tree. kAuto resolves per workload from the point count
// and the dimensionality — the tree wins asymptotically at large n but
// loses to the cache-friendly flat scan for small n, and axis-aligned-box
// pruning degrades toward a linear scan as dimensionality grows
// (distance concentration) — so each call site picks from its own
// measured crossover surface. Every strategy produces bit-identical
// results (enforced by thread_determinism_test); the knob trades
// wall-clock only, which is why it is runtime state and never persisted
// into model artifacts.
#ifndef GBX_INDEX_INDEX_STRATEGY_H_
#define GBX_INDEX_INDEX_STRATEGY_H_

#include <string>

#include "common/matrix.h"

namespace gbx {

enum class IndexStrategy {
  kAuto,  // resolve from n and dims at the call site
  kFlat,  // exhaustive scan (parallelized where the call site supports it)
  kTree,  // DynamicKdTree (axis-aligned box pruning)
  // Approximate candidate tier: scan a seeded fixed-permutation prefix
  // of the points instead of all of them, sized by an explicit recall
  // knob (GbKnnClassifier::set_recall_target). The ONLY strategy that
  // may return different results from kFlat — and only at recall < 1;
  // at the default recall 1.0 it is bit-identical to the exact scan.
  // Inference-only: granulation resolves kSampled to the exact scan
  // (training must produce the same artifact bytes whatever the knob),
  // and kAuto never picks it — approximation is strictly opt-in.
  kSampled,
};

/// "auto", "flat", "tree", or "sampled".
const char* IndexStrategyName(IndexStrategy strategy);

/// Parses "auto" / "flat" / "tree" / "sampled" (exact match). Returns
/// false and leaves `*out` untouched on anything else.
bool ParseIndexStrategy(const std::string& text, IndexStrategy* out);

/// Resolution for RD-GBG's per-candidate neighbor pass over the shrinking
/// undivided set: KD-tree at d<=2 from ~4k samples; at d<=4 from ~16k
/// but only up to 4 worker threads, because the flat scan it replaces
/// parallelizes over the pool while a tree query is serial; flat
/// otherwise. Thresholds in index_strategy.cc. `num_threads` is the
/// resolved worker count (common/parallel.h). The trailing point-matrix
/// parameter is ignored; it is kept so existing callers compile.
IndexStrategy ResolveRdGbgIndexStrategy(IndexStrategy requested, int n,
                                        int dims, int num_threads,
                                        const Matrix* /*points*/ = nullptr);

/// The ball count at which GenerateRdGbg's conflict-radius (r_conf) pass
/// switches from the flat parallel gap scan to the incremental
/// BallSurfaceIndex, or kSurfaceIndexNever to stay flat for the whole
/// run. kFlat never switches; kTree switches immediately (the explicit
/// request is also what drives the bit-identity test axes through the
/// index); kAuto switches once enough balls have accumulated that the
/// index's sublinear query beats the parallelized O(B) scan — sooner on
/// one worker than on many, since the flat scan parallelizes and an
/// index query is serial.
int ResolveRdGbgSurfaceThreshold(IndexStrategy requested, int num_threads);
inline constexpr int kSurfaceIndexNever = 0x7fffffff;

/// Resolution for GB-kNN's per-query scan over ball centers
/// (KNearestSurface): KD-tree from ~4k balls up to d=16, flat otherwise.
/// The crossover is thread-invariant — batch prediction parallelizes
/// over queries for every strategy — so unlike the RD-GBG resolver the
/// bar does not scale with the worker count (rationale in
/// index_strategy.cc). Crossovers measured by bench_index_dynamic.
IndexStrategy ResolveCenterIndexStrategy(IndexStrategy requested,
                                         int num_balls, int dims);

}  // namespace gbx

#endif  // GBX_INDEX_INDEX_STRATEGY_H_
