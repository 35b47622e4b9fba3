#include "ml/knn.h"

#include <gtest/gtest.h>

#include "data/split.h"
#include "data/synthetic.h"
#include "ml/metrics.h"

namespace gbx {
namespace {

TEST(KnnTest, OneNearestNeighborMemorizes) {
  BlobsConfig cfg;
  cfg.num_samples = 100;
  cfg.num_classes = 3;
  Pcg32 gen(1);
  const Dataset ds = MakeGaussianBlobs(cfg, &gen);
  KnnClassifier knn(1);
  Pcg32 rng(2);
  knn.Fit(ds, &rng);
  const std::vector<int> pred = knn.PredictBatch(ds.x());
  EXPECT_DOUBLE_EQ(Accuracy(ds.y(), pred), 1.0);
}

TEST(KnnTest, MajorityVote) {
  // k=3: query near two class-1 points and one class-0 point.
  Matrix x = Matrix::FromRows({{0.0}, {1.0}, {1.1}, {10.0}});
  const Dataset ds(std::move(x), {0, 1, 1, 0});
  KnnClassifier knn(3);
  Pcg32 rng(3);
  knn.Fit(ds, &rng);
  const double q[] = {0.9};
  EXPECT_EQ(knn.Predict(q), 1);
}

TEST(KnnTest, TieBreaksTowardNearestClass) {
  // k=2 with one vote each: the nearer neighbor's class wins.
  Matrix x = Matrix::FromRows({{1.0}, {2.0}});
  const Dataset ds(std::move(x), {0, 1});
  KnnClassifier knn(2);
  Pcg32 rng(4);
  knn.Fit(ds, &rng);
  const double q0[] = {1.1};
  EXPECT_EQ(knn.Predict(q0), 0);
  const double q1[] = {1.9};
  EXPECT_EQ(knn.Predict(q1), 1);
}

TEST(KnnTest, GeneralizesOnSeparableBlobs) {
  BlobsConfig cfg;
  cfg.num_samples = 600;
  cfg.num_classes = 3;
  cfg.num_features = 4;
  cfg.center_spread = 8.0;
  cfg.cluster_std = 1.0;
  Pcg32 gen(5);
  const Dataset all = MakeGaussianBlobs(cfg, &gen);
  Pcg32 split_rng(6);
  const TrainTestSplitResult split = TrainTestSplit(all, 0.3, &split_rng);
  KnnClassifier knn;
  Pcg32 rng(7);
  knn.Fit(split.train, &rng);
  const double acc =
      Accuracy(split.test.y(), knn.PredictBatch(split.test.x()));
  EXPECT_GT(acc, 0.95);
}

TEST(KnnTest, KLargerThanTrainingSet) {
  Matrix x = Matrix::FromRows({{0.0}, {1.0}, {2.0}});
  const Dataset ds(std::move(x), {0, 0, 1});
  KnnClassifier knn(10);
  Pcg32 rng(8);
  knn.Fit(ds, &rng);
  const double q[] = {0.5};
  EXPECT_EQ(knn.Predict(q), 0);  // majority of all three
}

// The KD-tree points into the stored training set; a moved-to
// classifier must predict from its own copy, not the moved-from one.
TEST(KnnTest, PredictsAfterMove) {
  BlobsConfig cfg;
  cfg.num_samples = 200;
  cfg.num_classes = 3;
  Pcg32 gen(9);
  const Dataset ds = MakeGaussianBlobs(cfg, &gen);
  KnnClassifier a(3);
  Pcg32 rng(10);
  a.Fit(ds, &rng);
  const std::vector<int> expected = a.PredictBatch(ds.x());
  KnnClassifier b = std::move(a);
  EXPECT_EQ(b.PredictBatch(ds.x()), expected);
  KnnClassifier c(1);
  c = std::move(b);
  EXPECT_EQ(c.PredictBatch(ds.x()), expected);
}

TEST(KnnTest, DefaultKIsFive) { EXPECT_EQ(KnnClassifier().k(), 5); }

}  // namespace
}  // namespace gbx
