// Synthetic dataset generators. These stand in for the UCI/KEEL/Kaggle
// datasets of Table I (offline reproduction; see DESIGN.md §3): each
// generator controls the geometric properties the paper's methods react to
// — boundary shape/complexity, density, class count, dimensionality, and
// imbalance.
#ifndef GBX_DATA_SYNTHETIC_H_
#define GBX_DATA_SYNTHETIC_H_

#include <vector>

#include "common/rng.h"
#include "data/dataset.h"

namespace gbx {

/// Isotropic Gaussian blobs, optionally several clusters per class.
struct BlobsConfig {
  int num_samples = 1000;
  int num_features = 2;
  int num_classes = 2;
  /// Relative class frequencies; empty means balanced. Values are
  /// normalized internally.
  std::vector<double> class_weights;
  /// Cluster centers are drawn uniformly from [-spread, spread]^p.
  double center_spread = 4.0;
  /// Standard deviation of each blob.
  double cluster_std = 1.0;
  int clusters_per_class = 1;
};
Dataset MakeGaussianBlobs(const BlobsConfig& config, Pcg32* rng);

/// Two interleaved crescent ("banana") shaped classes in 2-D — the classic
/// geometry of the KEEL `banana` set (paper dataset S5).
struct BananaConfig {
  int num_samples = 1000;
  /// Gaussian jitter around each crescent.
  double noise_std = 0.15;
  /// Relative sizes of the two classes; empty means balanced.
  std::vector<double> class_weights;
};
Dataset MakeBanana(const BananaConfig& config, Pcg32* rng);

/// Concentric rings: q classes on circles of increasing radius. Boundaries
/// are closed curves, exercising the per-dimension borderline scan.
struct RingsConfig {
  int num_samples = 1000;
  int num_classes = 3;
  double ring_gap = 1.0;
  double noise_std = 0.1;
};
Dataset MakeConcentricRings(const RingsConfig& config, Pcg32* rng);

/// High-dimensional classification problem in the style of
/// sklearn.make_classification: class centroids are placed in an
/// `num_informative`-dimensional subspace at pairwise distance controlled
/// by class_sep; the remaining dimensions carry pure noise.
struct HighDimConfig {
  int num_samples = 1000;
  int num_features = 50;
  int num_informative = 10;
  int num_classes = 2;
  std::vector<double> class_weights;
  /// Multiplier on centroid separation; lower = harder, blurrier boundary.
  double class_sep = 1.0;
  double noise_std = 1.0;
  int clusters_per_class = 1;
};
Dataset MakeInformativeHighDim(const HighDimConfig& config, Pcg32* rng);

/// Applies a deterministic random orthogonal rotation — a composition of
/// Givens rotations over every coordinate pair, two passes — to the
/// feature matrix in place. Rotations preserve all pairwise distances,
/// so class geometry (and every distance-based algorithm's output on
/// it) is intact, but axis-aligned structure — informative subspaces,
/// per-dimension spreads — is mixed across all coordinates: the honest
/// stand-in for real tabular data whose correlations ignore the
/// coordinate system, and a hard case for axis-aligned (KD-tree)
/// pruning.
void RotateFeatures(Matrix* features, Pcg32* rng);

/// Converts relative weights (or balanced, if empty) into exact per-class
/// sample counts summing to `num_samples`. Every class receives >= 1
/// sample when num_samples >= num_classes.
std::vector<int> ClassCountsFromWeights(int num_samples, int num_classes,
                                        const std::vector<double>& weights);

/// Binary weights {IR, 1} -> multi-class geometric ladder whose
/// majority/minority ratio equals `imbalance_ratio`.
std::vector<double> GeometricWeights(int num_classes, double imbalance_ratio);

}  // namespace gbx

#endif  // GBX_DATA_SYNTHETIC_H_
