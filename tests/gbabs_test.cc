#include "core/gbabs.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "data/split.h"
#include "data/synthetic.h"
#include "ml/decision_tree.h"
#include "ml/metrics.h"

namespace gbx {
namespace {

Dataset Blobs(int n, int classes, std::uint64_t seed, double spread = 5.0,
              double std_dev = 0.8) {
  BlobsConfig cfg;
  cfg.num_samples = n;
  cfg.num_classes = classes;
  cfg.num_features = 2;
  cfg.center_spread = spread;
  cfg.cluster_std = std_dev;
  Pcg32 rng(seed);
  return MakeGaussianBlobs(cfg, &rng);
}

Dataset MakeGaussianBlobsForScanTest() {
  BlobsConfig cfg;
  cfg.num_samples = 400;
  cfg.num_classes = 3;
  cfg.num_features = 12;
  cfg.center_spread = 6.0;
  cfg.cluster_std = 0.9;
  Pcg32 rng(77);
  return MakeGaussianBlobs(cfg, &rng);
}

// The borderline scan as first written: a comparator that reads each
// ball's center while sorting, and std::set accumulators. It is the
// naive reference the key-sorted, flag-vector scan must reproduce.
std::vector<int> NaiveBorderlineIndices(const GranularBallSet& balls,
                                        std::vector<int>* borderline_ball_ids,
                                        int max_scan_dimensions) {
  const Matrix& x = balls.scaled_features();
  auto extreme = [&](const GranularBall& ball, int dim, bool want_max) {
    int best = ball.members[0];
    for (int idx : ball.members) {
      const double v = x.At(idx, dim);
      const double best_v = x.At(best, dim);
      if (want_max ? (v > best_v) : (v < best_v)) best = idx;
    }
    return best;
  };
  std::set<int> sampled;
  std::set<int> borderline;
  std::vector<int> order(balls.size());
  std::iota(order.begin(), order.end(), 0);
  for (int dim : BorderlineScanDimensions(balls, max_scan_dimensions)) {
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const double va = balls.ball(a).center[dim];
      const double vb = balls.ball(b).center[dim];
      if (va != vb) return va < vb;
      return a < b;
    });
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      const GranularBall& left = balls.ball(order[i]);
      const GranularBall& right = balls.ball(order[i + 1]);
      if (left.label == right.label) continue;
      borderline.insert(order[i]);
      borderline.insert(order[i + 1]);
      sampled.insert(extreme(left, dim, /*want_max=*/true));
      sampled.insert(extreme(right, dim, /*want_max=*/false));
    }
  }
  borderline_ball_ids->assign(borderline.begin(), borderline.end());
  return std::vector<int>(sampled.begin(), sampled.end());
}

// Coordinates from a small set that holds both zeros, so centers share
// coordinates and -0.0/0.0 ties reach the sort.
Matrix TieHeavyFeatures(int n, int p, Pcg32* rng) {
  static constexpr double kValues[] = {-1.0, -0.0, 0.0, 0.25, 0.5, 1.0};
  Matrix x(n, p);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < p; ++j) x.At(i, j) = kValues[rng->NextBounded(6)];
  }
  return x;
}

// A hand-made granulation over tie-heavy features: samples split into
// balls at random, each centered on a member, about a third of them
// radius-0 singletons like RD-GBG's orphans.
GranularBallSet RandomGranulation(std::uint64_t seed, int n, int p,
                                  int classes) {
  Pcg32 rng(seed);
  Matrix x = TieHeavyFeatures(n, p, &rng);
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(&order);
  std::vector<GranularBall> balls;
  for (int i = 0; i < n;) {
    const int size = rng.NextBounded(3) == 0
                         ? 1
                         : 1 + static_cast<int>(rng.NextBounded(6));
    GranularBall ball;
    ball.members.assign(order.begin() + i,
                        order.begin() + std::min(n, i + size));
    i += size;
    ball.center_index = ball.members.front();
    ball.center.assign(x.Row(ball.center_index),
                       x.Row(ball.center_index) + p);
    ball.radius = ball.size() == 1 ? 0.0 : 1.0;
    ball.label = static_cast<int>(rng.NextBounded(classes));
    balls.push_back(std::move(ball));
  }
  return GranularBallSet(std::move(balls), std::move(x), classes);
}

// RD-GBG's own granulation of tie-heavy data (unscaled, so the signed
// zeros survive into the centers): duplicate points, noise and orphans.
GranularBallSet TieHeavyRdGbg(std::uint64_t seed, int n, int p, int classes) {
  Pcg32 rng(seed);
  Matrix x = TieHeavyFeatures(n, p, &rng);
  std::vector<int> y(n);
  for (int& label : y) label = static_cast<int>(rng.NextBounded(classes));
  RdGbgConfig cfg;
  cfg.scale_features = false;
  cfg.seed = seed;
  return GenerateRdGbg(Dataset(std::move(x), std::move(y), classes), cfg)
      .balls;
}

TEST(GbabsBorderlineOracleTest, MatchesNaiveScan) {
  int signed_zero_ties = 0;
  int orphans = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const GranularBallSet granulations[] = {
        RandomGranulation(seed, 300, 5, 3),
        TieHeavyRdGbg(seed, 400, 4, 4)};
    for (const GranularBallSet& balls : granulations) {
      for (const GranularBall& ball : balls.balls()) {
        if (ball.radius == 0.0) ++orphans;
        if (ball.center[0] == 0.0 && std::signbit(ball.center[0])) {
          ++signed_zero_ties;
        }
      }
      for (int k : {0, 2}) {
        std::vector<int> ids;
        std::vector<int> naive_ids;
        const std::vector<int> sampled =
            SampleBorderlineIndices(balls, &ids, k);
        EXPECT_EQ(sampled, NaiveBorderlineIndices(balls, &naive_ids, k))
            << "seed=" << seed << " k=" << k;
        EXPECT_EQ(ids, naive_ids) << "seed=" << seed << " k=" << k;
      }
    }
  }
  // The inputs must really hold the cases the oracle is for.
  EXPECT_GT(signed_zero_ties, 0);
  EXPECT_GT(orphans, 0);
}

TEST(GbabsTest, SampledIsSubsetWithoutDuplicates) {
  const Dataset ds = Blobs(400, 3, 1);
  const GbabsResult result = RunGbabs(ds, GbabsConfig{});
  EXPECT_FALSE(result.sampled_indices.empty());
  std::set<int> unique(result.sampled_indices.begin(),
                       result.sampled_indices.end());
  EXPECT_EQ(unique.size(), result.sampled_indices.size());
  for (int idx : result.sampled_indices) {
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, ds.size());
  }
  EXPECT_EQ(result.sampled.size(),
            static_cast<int>(result.sampled_indices.size()));
  EXPECT_TRUE(std::is_sorted(result.sampled_indices.begin(),
                             result.sampled_indices.end()));
}

TEST(GbabsTest, SampledFeaturesAreOriginalUnscaled) {
  const Dataset ds = Blobs(200, 2, 2);
  const GbabsResult result = RunGbabs(ds, GbabsConfig{});
  for (std::size_t i = 0; i < result.sampled_indices.size(); ++i) {
    const int src = result.sampled_indices[i];
    for (int j = 0; j < ds.num_features(); ++j) {
      EXPECT_DOUBLE_EQ(result.sampled.feature(static_cast<int>(i), j),
                       ds.feature(src, j));
    }
    EXPECT_EQ(result.sampled.label(static_cast<int>(i)), ds.label(src));
  }
}

TEST(GbabsTest, SamplingRatioBelowOneOnSeparableData) {
  const Dataset ds = Blobs(600, 2, 3, /*spread=*/10.0, /*std_dev=*/0.5);
  const GbabsResult result = RunGbabs(ds, GbabsConfig{});
  EXPECT_GT(result.sampling_ratio, 0.0);
  EXPECT_LT(result.sampling_ratio, 0.7);
}

TEST(GbabsTest, BorderlineBallsAreFlaggedBallsOnly) {
  const Dataset ds = Blobs(300, 3, 4);
  const GbabsResult result = RunGbabs(ds, GbabsConfig{});
  EXPECT_FALSE(result.borderline_ball_ids.empty());
  for (int id : result.borderline_ball_ids) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, result.gbg.balls.size());
  }
  // Every sampled point belongs to some borderline ball.
  std::set<int> borderline_members;
  for (int id : result.borderline_ball_ids) {
    const GranularBall& ball = result.gbg.balls.ball(id);
    borderline_members.insert(ball.members.begin(), ball.members.end());
  }
  for (int idx : result.sampled_indices) {
    EXPECT_EQ(borderline_members.count(idx), 1u) << idx;
  }
}

TEST(GbabsTest, OneDimensionalBoundaryPicksFacingSamples) {
  // Two 1-D clusters: class 0 at {0, 0.1, ..., 0.5}, class 1 at
  // {2.0, ..., 2.5}. The boundary samples are 0.5 (max of the left ball)
  // and 2.0 (min of the right ball).
  Matrix x(12, 1);
  std::vector<int> y(12);
  for (int i = 0; i < 6; ++i) {
    x.At(i, 0) = 0.1 * i;
    y[i] = 0;
    x.At(6 + i, 0) = 2.0 + 0.1 * i;
    y[6 + i] = 1;
  }
  const Dataset ds(std::move(x), std::move(y));
  GbabsConfig cfg;
  cfg.gbg.density_tolerance = 3;
  const GbabsResult result = RunGbabs(ds, cfg);
  // The facing extremes (indices 5 and 6) must be sampled.
  EXPECT_TRUE(std::binary_search(result.sampled_indices.begin(),
                                 result.sampled_indices.end(), 5));
  EXPECT_TRUE(std::binary_search(result.sampled_indices.begin(),
                                 result.sampled_indices.end(), 6));
  // Deep-interior points (0 and 11) may only appear via singleton orphan
  // balls; on this clean geometry they should not be sampled.
  EXPECT_FALSE(std::binary_search(result.sampled_indices.begin(),
                                  result.sampled_indices.end(), 0));
  EXPECT_FALSE(std::binary_search(result.sampled_indices.begin(),
                                  result.sampled_indices.end(), 11));
}

TEST(GbabsTest, SingleClassFallsBackToCenters) {
  BlobsConfig cfg;
  cfg.num_samples = 80;
  cfg.num_classes = 1;
  Pcg32 rng(5);
  const Dataset ds = MakeGaussianBlobs(cfg, &rng);
  const GbabsResult result = RunGbabs(ds, GbabsConfig{});
  EXPECT_FALSE(result.sampled_indices.empty());
  EXPECT_TRUE(result.borderline_ball_ids.empty());
}

TEST(GbabsTest, Deterministic) {
  const Dataset ds = Blobs(250, 2, 6);
  GbabsConfig cfg;
  cfg.gbg.seed = 123;
  const GbabsResult a = RunGbabs(ds, cfg);
  const GbabsResult b = RunGbabs(ds, cfg);
  EXPECT_EQ(a.sampled_indices, b.sampled_indices);
  EXPECT_EQ(a.borderline_ball_ids, b.borderline_ball_ids);
}

class GbabsRhoTest : public ::testing::TestWithParam<int> {};

TEST_P(GbabsRhoTest, ValidAcrossDensityTolerances) {
  GbabsConfig cfg;
  cfg.gbg.density_tolerance = GetParam();
  const Dataset ds = Blobs(300, 3, 7);
  const GbabsResult result = RunGbabs(ds, cfg);
  EXPECT_GT(result.sampled.size(), 0);
  EXPECT_LE(result.sampled.size(), ds.size());
  EXPECT_TRUE(result.gbg.balls.CheckPurity(ds.y()));
}

INSTANTIATE_TEST_SUITE_P(RhoSweep, GbabsRhoTest,
                         ::testing::Values(3, 5, 7, 9, 11, 13, 15, 17, 19));

TEST(GbabsScanDimsTest, ZeroMeansAllDimensions) {
  const Dataset ds = Blobs(200, 2, 20);
  const GbabsResult full = RunGbabs(ds, GbabsConfig{});
  const std::vector<int> dims =
      BorderlineScanDimensions(full.gbg.balls, 0);
  ASSERT_EQ(dims.size(), 2u);
  EXPECT_EQ(dims[0], 0);
  EXPECT_EQ(dims[1], 1);
}

TEST(GbabsScanDimsTest, PicksHighVarianceDimensions) {
  // Dimension 1 carries all the structure; dimension 0 is nearly constant.
  Pcg32 gen(21);
  Matrix x(200, 3);
  std::vector<int> y(200);
  for (int i = 0; i < 200; ++i) {
    const int cls = i % 2;
    x.At(i, 0) = gen.NextGaussian() * 0.01;
    x.At(i, 1) = cls * 10.0 + gen.NextGaussian();
    x.At(i, 2) = gen.NextGaussian() * 0.01;
    y[i] = cls;
  }
  const Dataset ds(std::move(x), std::move(y));
  const RdGbgResult gbg = GenerateRdGbg(ds, RdGbgConfig{});
  const std::vector<int> dims = BorderlineScanDimensions(gbg.balls, 1);
  ASSERT_EQ(dims.size(), 1u);
  EXPECT_EQ(dims[0], 1);
}

TEST(GbabsScanDimsTest, SubsetScanSamplesSubsetOfFullScan) {
  const Dataset ds = MakeGaussianBlobsForScanTest();
  GbabsConfig full_cfg;
  GbabsConfig subset_cfg;
  subset_cfg.max_scan_dimensions = 3;
  subset_cfg.gbg = full_cfg.gbg;
  const GbabsResult full = RunGbabs(ds, full_cfg);
  const GbabsResult subset = RunGbabs(ds, subset_cfg);
  // Same granulation (same seed), fewer scan dimensions: the subset's
  // samples are contained in the full scan's samples.
  EXPECT_LE(subset.sampled_indices.size(), full.sampled_indices.size());
  for (int idx : subset.sampled_indices) {
    EXPECT_TRUE(std::binary_search(full.sampled_indices.begin(),
                                   full.sampled_indices.end(), idx));
  }
  EXPECT_FALSE(subset.sampled_indices.empty());
}

TEST(GbabsScanDimsTest, SubsetScanKeepsAccuracyOnHighDim) {
  const Dataset ds = MakeGaussianBlobsForScanTest();
  GbabsConfig subset_cfg;
  subset_cfg.max_scan_dimensions = 4;
  const GbabsResult subset = RunGbabs(ds, subset_cfg);
  Pcg32 rng(22);
  DecisionTreeClassifier dt;
  dt.Fit(subset.sampled, &rng);
  EXPECT_GT(Accuracy(ds.y(), dt.PredictBatch(ds.x())), 0.85);
}

TEST(GbabsTest, PreservesDecisionTreeAccuracyOnSeparableData) {
  // Lossless-compression sanity check (§V-C): training a DT on the GBABS
  // sample should roughly match training on the full data for clean,
  // separable blobs.
  const Dataset all = Blobs(900, 3, 8, /*spread=*/8.0, /*std_dev=*/0.8);
  Pcg32 split_rng(80);
  const TrainTestSplitResult split = TrainTestSplit(all, 0.33, &split_rng);
  const Dataset& train = split.train;
  const Dataset& test = split.test;
  const GbabsResult sampled = RunGbabs(train, GbabsConfig{});

  Pcg32 rng(9);
  DecisionTreeClassifier full_dt;
  full_dt.Fit(train, &rng);
  DecisionTreeClassifier sampled_dt;
  sampled_dt.Fit(sampled.sampled, &rng);

  const double full_acc = Accuracy(test.y(), full_dt.PredictBatch(test.x()));
  const double sampled_acc =
      Accuracy(test.y(), sampled_dt.PredictBatch(test.x()));
  EXPECT_GT(sampled_acc, full_acc - 0.08);
}

}  // namespace
}  // namespace gbx
