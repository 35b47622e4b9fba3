// k-nearest-neighbors classifier (Cover & Hart, 1967) with scikit-learn's
// default k = 5 and uniform vote; the KD-tree accelerates queries. Ties
// break toward the class of the nearer neighbor, matching the behaviour of
// a distance-sorted majority vote.
#ifndef GBX_ML_KNN_H_
#define GBX_ML_KNN_H_

#include <memory>

#include "index/dynamic_kd_tree.h"
#include "ml/classifier.h"

namespace gbx {

class KnnClassifier : public Classifier {
 public:
  explicit KnnClassifier(int k = 5);

  void Fit(const Dataset& train, Pcg32* rng) override;
  int Predict(const double* x) const override;
  std::string name() const override { return "kNN"; }

  /// Restores a fitted state from a stored training set (model
  /// deserialization; see serve/model_io.h). Equivalent to Fit(train)
  /// — kNN's "model" is the training data plus the rebuilt KD-tree.
  void Restore(Dataset train);

  bool fitted() const { return model_ != nullptr; }
  int k() const { return k_; }
  /// The stored training set (empty before Fit/Restore).
  const Dataset& train() const;

 private:
  // The training set and the KD-tree over its features, heap-allocated
  // as one block so the tree's pointer into `train` survives moves of
  // the classifier.
  struct Model {
    Dataset train;
    DynamicKdTree tree;
    explicit Model(Dataset train_in)
        : train(std::move(train_in)), tree(&train.x()) {}
    Model(const Model&) = delete;  // `tree` points into *this
    Model& operator=(const Model&) = delete;
  };

  int k_;
  std::unique_ptr<const Model> model_;
};

}  // namespace gbx

#endif  // GBX_ML_KNN_H_
