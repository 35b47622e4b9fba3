// Granular-ball nearest-neighbor classifier (GB-kNN, after Xia et al.,
// Information Sciences 2019 [22] — the original granular-ball classifier).
// Training granulates the data with RD-GBG; prediction assigns the label
// of the ball whose *surface* is nearest to the query:
//     d(x, gb) = ||x - c|| - r.
// Because balls are pure and noise was removed during granulation, GB-kNN
// inherits RD-GBG's noise robustness, and inference touches m balls
// instead of N samples. This is an extension beyond the paper's five
// evaluation classifiers, exercising the GranularBallSet as a model.
#ifndef GBX_ML_GB_KNN_H_
#define GBX_ML_GB_KNN_H_

#include <memory>

#include "core/rd_gbg.h"
#include "data/scaler.h"
#include "index/dynamic_kd_tree.h"
#include "ml/classifier.h"

namespace gbx {

class GbKnnClassifier : public Classifier {
 public:
  /// `k` balls vote; k = 1 reproduces the classic GB-kNN rule.
  explicit GbKnnClassifier(RdGbgConfig gbg = {}, int k = 1);

  void Fit(const Dataset& train, Pcg32* rng) override;
  int Predict(const double* x) const override;
  /// Queries are independent, so batch prediction fans out over the
  /// shared thread pool (RdGbgConfig::num_threads; <= 0 = GBX_THREADS or
  /// hardware). Output is identical to the serial per-query loop.
  std::vector<int> PredictBatch(const Matrix& x) const override;
  std::string name() const override { return "GB-kNN"; }

  /// Per-call recall variants: predict as if set_recall_target(recall)
  /// were in effect, WITHOUT touching the fitted-model knob — the
  /// serving engine threads a per-request recall through these so a
  /// degradation controller can lower quality for some requests while
  /// concurrent full-quality requests are in flight (the member knob is
  /// not safe to flip mid-prediction; these are, being pure reads).
  /// `recall` must be in (0, 1]. Only the kSampled tier interprets it:
  /// under every exact strategy the override is ignored and the result
  /// is bit-identical to Predict/PredictBatch, as it is at recall 1.0
  /// (the prefix is everything). Prefixes nest, so the same monotone
  /// recall contract as set_recall_target applies per call.
  int PredictWithRecall(const double* x, double recall) const;
  std::vector<int> PredictBatchWithRecall(const Matrix& x,
                                          double recall) const;
  /// True when a per-call recall override below 1.0 would change the
  /// scan (i.e. the sampled tier is the resolved backend).
  bool SupportsRecallOverride() const {
    return resolved_ == IndexStrategy::kSampled;
  }

  /// Restores a fitted state without re-granulating (model
  /// deserialization; see serve/model_io.h). `balls` must be non-empty,
  /// `scaler` fitted over the same dimensionality, and `num_classes`
  /// must cover every ball label. Predictions after Restore are
  /// bit-identical to the classifier the state was captured from.
  void Restore(GranularBallSet balls, MinMaxScaler scaler, int num_classes);

  bool fitted() const { return !balls_.empty(); }
  int k() const { return k_; }
  int num_classes() const { return num_classes_; }
  const RdGbgConfig& config() const { return gbg_config_; }
  /// The seed the last granulation actually ran with: the configured
  /// seed, or the rng-derived one when Fit received a non-null rng.
  /// Model artifacts persist it as provenance (serve/model_io.h).
  std::uint64_t effective_seed() const { return effective_seed_; }
  const MinMaxScaler& scaler() const { return scaler_; }

  /// Number of balls in the fitted model (0 before Fit).
  int num_balls() const { return balls_.size(); }
  const GranularBallSet& balls() const { return balls_; }

  /// Chooses how Predict scans the ball centers: kFlat is the exhaustive
  /// per-query scan (SIMD surface-score kernel over the SoA center
  /// layout, parallelized over the pool for large ball sets), kTree a
  /// KD-tree over the centers, built once at Fit/Restore and shared by
  /// Predict / PredictBatch / the serving engine; kAuto resolves by ball
  /// count and dimensionality; kSampled scans a seeded fixed-permutation
  /// prefix sized by set_recall_target. Every EXACT strategy returns
  /// bit-identical predictions — the tree ranks balls by the flat
  /// scan's exact (score, index) order via KNearestSurface, whose
  /// subtree bound is a certain score lower bound — and kSampled at
  /// recall 1.0 scans everything, so it is bit-identical too (the pair
  /// total order makes the permuted fill converge to the same top-k).
  /// The knob is pure runtime state: model artifacts never persist it,
  /// and a model saved under one strategy predicts identically under
  /// the other exact ones (tests/roundtrip_fuzz_test.cc). Re-resolves
  /// and rebuilds/drops the backend immediately when fitted; a no-op
  /// when `strategy` is already set. NOT safe to call concurrently with
  /// in-flight Predict/PredictBatch — flip the knob before serving
  /// starts (as gbx_serve does at load).
  void set_index_strategy(IndexStrategy strategy);
  IndexStrategy index_strategy() const { return gbg_config_.index_strategy; }
  /// What Predict will actually use: kTree when a center index is
  /// built, kSampled when the sampled tier is active, kFlat
  /// otherwise (always kFlat before Fit/Restore).
  IndexStrategy resolved_index_strategy() const;

  /// Target recall of the kSampled tier, in (0, 1]; default 1.0. The
  /// candidate prefix scanned per query is max(k, ceil(recall * m)) of
  /// the m balls — a uniform sample via the fixed permutation, so the
  /// expected fraction of the exact top-k recovered is >= recall, and
  /// prefixes nest: raising the knob can only add candidates, making
  /// measured recall monotone in it (tests/recall_test.cc). Ignored by
  /// every other strategy. Pure runtime state, never persisted; safe to
  /// change between (not during) predictions without a rebuild.
  void set_recall_target(double recall);
  double recall_target() const { return recall_target_; }

  /// The k (score, ball-index) pairs Predict votes over, ascending by
  /// the (score, index) total order. Exposes the candidate ranking so
  /// tests can measure the sampled tier's recall against the exact
  /// scan; `x` is an unscaled query like Predict's.
  std::vector<std::pair<double, int>> TopScoredBalls(const double* x,
                                                     int k) const;

 private:
  // Ball centers as a matrix, radii as per-center weights, and a
  // KD-tree over them serving the surface-distance query
  // (KNearestSurface). Heap-allocated as one block so the tree's
  // pointers into `centers`/`radii` survive moves of the classifier;
  // shared_ptr keeps the classifier copyable (the index is immutable
  // after construction, so sharing is safe — queries never mutate the
  // tree).
  struct CenterIndex {
    Matrix centers;
    std::vector<double> radii;
    DynamicKdTree tree;
    CenterIndex(Matrix centers_in, std::vector<double> radii_in)
        : centers(std::move(centers_in)),
          radii(std::move(radii_in)),
          tree(&centers, radii.data()) {}
    CenterIndex(const CenterIndex&) = delete;  // `tree` points into *this
    CenterIndex& operator=(const CenterIndex&) = delete;
  };

  // Flat-scan backend: centers and radii in the SoA blocked layout the
  // SIMD kernels stream (src/simd/simd.h). `order[t]` maps SoA row t
  // back to its ball index — identity (empty vector) for the exact
  // scan, a seeded fixed permutation under kSampled so every candidate
  // prefix is a uniform sample and prefixes nest (recall monotone in
  // the knob by construction, and the same across processes: the seed
  // derives from the ball count alone). shared_ptr for the same
  // copyability/move-stability reasons as CenterIndex.
  struct FlatCenters {
    SoaMatrix soa;
    std::vector<double> radii;
    std::vector<int> order;  // empty = identity
  };

  /// (Re)derives the resolved strategy and builds the center tree or
  /// the SoA flat backend. Called by Fit/Restore/set_index_strategy.
  void RebuildCenterIndex();
  /// The top-k (score, ball) pairs for a scaled query — the shared core
  /// of Predict and TopScoredBalls, dispatching on the resolved
  /// backend. `recall` sizes the sampled tier's candidate prefix
  /// (callers pass recall_target_ or a per-call override; ignored
  /// outside kSampled).
  std::vector<std::pair<double, int>> ScoredTopK(const std::vector<double>& q,
                                                 int k, double recall) const;
  int VoteOverNearest(const std::vector<std::pair<double, int>>& dists,
                      int k) const;

  RdGbgConfig gbg_config_;
  int k_;
  std::uint64_t effective_seed_;
  GranularBallSet balls_;
  MinMaxScaler scaler_;
  int num_classes_ = 0;
  std::shared_ptr<const CenterIndex> center_index_;
  std::shared_ptr<const FlatCenters> flat_centers_;
  IndexStrategy resolved_ = IndexStrategy::kFlat;
  double recall_target_ = 1.0;
};

}  // namespace gbx

#endif  // GBX_ML_GB_KNN_H_
