#include "ml/knn.h"

#include <algorithm>

namespace gbx {

KnnClassifier::KnnClassifier(int k) : k_(k) { GBX_CHECK_GE(k, 1); }

void KnnClassifier::Fit(const Dataset& train, Pcg32* rng) {
  (void)rng;  // deterministic
  Restore(train);
}

void KnnClassifier::Restore(Dataset train) {
  GBX_CHECK_GT(train.size(), 0);
  model_ = std::make_unique<const Model>(std::move(train));
}

const Dataset& KnnClassifier::train() const {
  static const Dataset kEmpty;
  return model_ != nullptr ? model_->train : kEmpty;
}

int KnnClassifier::Predict(const double* x) const {
  GBX_CHECK_MSG(fitted(),
                "kNN: Predict called before Fit/Restore (no KD-tree)");
  const Dataset& train = model_->train;
  const std::vector<Neighbor> nns = model_->tree.KNearest(x, k_);
  std::vector<int> votes(train.num_classes(), 0);
  for (const Neighbor& nb : nns) ++votes[train.label(nb.index)];
  // Majority vote; tie -> class of the nearest neighbor among tied classes.
  int best = -1;
  for (int c = 0; c < train.num_classes(); ++c) {
    if (best < 0 || votes[c] > votes[best]) best = c;
  }
  for (const Neighbor& nb : nns) {
    const int cls = train.label(nb.index);
    if (votes[cls] == votes[best]) return cls;
  }
  return best;
}

}  // namespace gbx
