#include "core/rd_gbg.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "data/noise.h"
#include "data/paper_suite.h"
#include "data/scaler.h"
#include "data/synthetic.h"

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

// Core invariants of RD-GBG (§IV-B): purity 1.0, geometric containment,
// no overlap, disjoint membership, and completeness (every sample is
// either covered or eliminated as noise). Swept across datasets, seeds
// and density tolerances.
class RdGbgInvariantTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RdGbgInvariantTest, AllInvariantsHold) {
  const auto [n, rho, seed] = GetParam();
  const Dataset ds = Blobs(n, 3, seed);
  RdGbgConfig cfg;
  cfg.density_tolerance = rho;
  cfg.seed = seed * 1000 + 7;
  const RdGbgResult result = GenerateRdGbg(ds, cfg);

  EXPECT_TRUE(result.balls.CheckPurity(ds.y()));
  EXPECT_TRUE(result.balls.CheckContainment());
  EXPECT_TRUE(result.balls.CheckNonOverlap(1e-9));
  EXPECT_TRUE(result.balls.CheckDisjointMembership(ds.size()));
  EXPECT_DOUBLE_EQ(result.balls.HeterogeneousOverlapDepth(), 0.0);

  // Completeness: covered + noise partitions the dataset.
  std::set<int> covered;
  for (const GranularBall& ball : result.balls.balls()) {
    covered.insert(ball.members.begin(), ball.members.end());
  }
  for (int idx : result.noise_indices) {
    EXPECT_EQ(covered.count(idx), 0u);
    covered.insert(idx);
  }
  EXPECT_EQ(static_cast<int>(covered.size()), ds.size());
}

TEST_P(RdGbgInvariantTest, CentersAreSamplesWithBallLabel) {
  const auto [n, rho, seed] = GetParam();
  const Dataset ds = Blobs(n, 3, seed + 100);
  RdGbgConfig cfg;
  cfg.density_tolerance = rho;
  const RdGbgResult result = GenerateRdGbg(ds, cfg);
  for (const GranularBall& ball : result.balls.balls()) {
    ASSERT_GE(ball.center_index, 0);
    EXPECT_EQ(ds.label(ball.center_index), ball.label);
    // Center coordinates equal the (scaled) sample coordinates.
    const double* sx = result.balls.scaled_features().Row(ball.center_index);
    for (int j = 0; j < ds.num_features(); ++j) {
      EXPECT_DOUBLE_EQ(ball.center[j], sx[j]);
    }
    // The center is a member of its own ball.
    EXPECT_TRUE(std::binary_search(ball.members.begin(), ball.members.end(),
                                   ball.center_index));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RdGbgInvariantTest,
    ::testing::Combine(::testing::Values(60, 200, 500),
                       ::testing::Values(3, 5, 9),
                       ::testing::Values(1, 2)));

// The same invariants must hold on every generator family of the paper
// suite (banana, overlapping blobs, extreme-imbalance blobs, high-dim
// informative, many-class high-dim).
class RdGbgPaperSuiteTest : public ::testing::TestWithParam<int> {};

TEST_P(RdGbgPaperSuiteTest, InvariantsOnPaperDatasets) {
  const int index = GetParam();
  const Dataset ds = MakePaperDataset(index, /*max_samples=*/220,
                                      /*seed=*/55 + index);
  const RdGbgResult result = GenerateRdGbg(ds, RdGbgConfig{});
  EXPECT_TRUE(result.balls.CheckPurity(ds.y()));
  EXPECT_TRUE(result.balls.CheckContainment());
  EXPECT_TRUE(result.balls.CheckNonOverlap(1e-9));
  EXPECT_TRUE(result.balls.CheckDisjointMembership(ds.size()));
  EXPECT_EQ(result.balls.TotalCoveredSamples() +
                static_cast<int>(result.noise_indices.size()),
            ds.size());
}

INSTANTIATE_TEST_SUITE_P(AllPaperDatasets, RdGbgPaperSuiteTest,
                         ::testing::Range(0, 13));

TEST(RdGbgTest, Deterministic) {
  const Dataset ds = Blobs(200, 2, 5);
  RdGbgConfig cfg;
  cfg.seed = 99;
  const RdGbgResult a = GenerateRdGbg(ds, cfg);
  const RdGbgResult b = GenerateRdGbg(ds, cfg);
  ASSERT_EQ(a.balls.size(), b.balls.size());
  for (int i = 0; i < a.balls.size(); ++i) {
    EXPECT_EQ(a.balls.ball(i).members, b.balls.ball(i).members);
    EXPECT_DOUBLE_EQ(a.balls.ball(i).radius, b.balls.ball(i).radius);
  }
  EXPECT_EQ(a.noise_indices, b.noise_indices);
}

TEST(RdGbgTest, DifferentSeedsUsuallyDiffer) {
  const Dataset ds = Blobs(300, 2, 6);
  RdGbgConfig cfg_a;
  cfg_a.seed = 1;
  RdGbgConfig cfg_b;
  cfg_b.seed = 2;
  const RdGbgResult a = GenerateRdGbg(ds, cfg_a);
  const RdGbgResult b = GenerateRdGbg(ds, cfg_b);
  const bool same_count = a.balls.size() == b.balls.size();
  bool identical = same_count;
  if (same_count) {
    for (int i = 0; i < a.balls.size() && identical; ++i) {
      identical = a.balls.ball(i).members == b.balls.ball(i).members;
    }
  }
  EXPECT_FALSE(identical);
}

TEST(RdGbgTest, SingleClassProducesOneBigBallEventually) {
  // With one class there is no heterogeneous sample: the first center's
  // locally consistent radius spans the whole undivided set.
  BlobsConfig cfg;
  cfg.num_samples = 100;
  cfg.num_classes = 1;
  Pcg32 rng(7);
  const Dataset ds = MakeGaussianBlobs(cfg, &rng);
  const RdGbgResult result = GenerateRdGbg(ds, RdGbgConfig{});
  EXPECT_TRUE(result.noise_indices.empty());
  EXPECT_EQ(result.balls.TotalCoveredSamples(), 100);
  // Few balls: the diffusion covers nearly everything in one or two rounds.
  EXPECT_LE(result.balls.size(), 5);
}

TEST(RdGbgTest, DetectsPlantedNoise) {
  // Two far-apart compact blobs; flip a handful of labels deep inside each
  // blob. RD-GBG's center detection should eliminate a good share of them.
  const Dataset clean = Blobs(400, 2, 8, /*spread=*/10.0, /*std_dev=*/0.5);
  Dataset noisy = clean;
  Pcg32 noise_rng(9);
  const std::vector<int> flipped = InjectClassNoise(&noisy, 0.05, &noise_rng);
  ASSERT_FALSE(flipped.empty());

  const RdGbgResult result = GenerateRdGbg(noisy, RdGbgConfig{});
  // All detected noise must be genuinely flipped samples (no false
  // positives on this clean geometry)...
  int true_hits = 0;
  for (int idx : result.noise_indices) {
    if (std::binary_search(flipped.begin(), flipped.end(), idx)) ++true_hits;
  }
  EXPECT_EQ(true_hits, static_cast<int>(result.noise_indices.size()));
  // ...and a decent share of the planted noise is caught.
  EXPECT_GE(true_hits, static_cast<int>(flipped.size()) / 4);
}

TEST(RdGbgTest, BallsHoldManySamplesOnSeparableData) {
  const Dataset ds = Blobs(500, 2, 10, /*spread=*/10.0, /*std_dev=*/0.5);
  const RdGbgResult result = GenerateRdGbg(ds, RdGbgConfig{});
  // Representativeness: the granulation compresses the dataset.
  EXPECT_LT(result.balls.size(), ds.size() / 4);
}

TEST(RdGbgTest, OrphansAreRadiusZeroSingletons) {
  const Dataset ds = Blobs(300, 3, 11, /*spread=*/2.0, /*std_dev=*/1.5);
  const RdGbgResult result = GenerateRdGbg(ds, RdGbgConfig{});
  std::set<int> orphan_set(result.orphan_indices.begin(),
                           result.orphan_indices.end());
  int orphan_balls = 0;
  for (const GranularBall& ball : result.balls.balls()) {
    if (orphan_set.count(ball.center_index) > 0 && ball.size() == 1) {
      EXPECT_DOUBLE_EQ(ball.radius, 0.0);
      ++orphan_balls;
    }
  }
  EXPECT_EQ(orphan_balls, static_cast<int>(result.orphan_indices.size()));
}

TEST(RdGbgTest, RhoIsValidated) {
  const Dataset ds = Blobs(20, 2, 12);
  RdGbgConfig cfg;
  cfg.density_tolerance = 1;
  EXPECT_DEATH(GenerateRdGbg(ds, cfg), "GBX_CHECK");
}

TEST(RdGbgTest, TinyDataset) {
  const Dataset ds(Matrix::FromRows({{0, 0}, {0.1, 0}, {5, 5}, {5.1, 5}}),
                   {0, 0, 1, 1});
  const RdGbgResult result = GenerateRdGbg(ds, RdGbgConfig{});
  EXPECT_TRUE(result.balls.CheckPurity(ds.y()));
  EXPECT_EQ(result.balls.TotalCoveredSamples() +
                static_cast<int>(result.noise_indices.size()),
            4);
}

TEST(RdGbgTest, UnscaledModeKeepsOriginalCoordinates) {
  const Dataset ds = Blobs(100, 2, 13);
  RdGbgConfig cfg;
  cfg.scale_features = false;
  const RdGbgResult result = GenerateRdGbg(ds, cfg);
  EXPECT_TRUE(result.balls.CheckPurity(ds.y()));
  const GranularBall& ball = result.balls.ball(0);
  for (int j = 0; j < ds.num_features(); ++j) {
    EXPECT_DOUBLE_EQ(ball.center[j], ds.feature(ball.center_index, j));
  }
}

// Exact dist2 ties between the last homogeneous and the first
// heterogeneous neighbor (Eq. 3): CR must stay strictly below the
// heterogeneous distance, falling back to the previous distinct dist2,
// or to 0. Integer coordinates, left unscaled, make the ties exact.
// Group g centers a class-0 sample A at 100·g. Even groups add a class-0
// neighbor at +1 and a class-1 one at -1: a tie at dist2 = 1, so CR
// falls back to 0. Odd groups add class-0 neighbors at +1 and +2 and a
// class-1 one at -2: a tie at dist2 = 4, so CR falls back to 1. The
// homogeneous tied neighbor has the smaller index, so the (dist2, index)
// order puts it ahead of the heterogeneous one.
struct TiedNeighbors {
  Dataset data;
  std::vector<int> fallback_centers;  // the odd groups' A samples
};

TiedNeighbors MakeTiedNeighbors(int groups) {
  std::vector<double> coords;
  std::vector<int> labels;
  TiedNeighbors out;
  auto add = [&](double x, int label) {
    coords.push_back(x);
    labels.push_back(label);
  };
  for (int g = 0; g < groups; ++g) {
    const double a = 100.0 * g;
    if (g % 2 == 1) {
      out.fallback_centers.push_back(static_cast<int>(coords.size()));
    }
    add(a, 0);
    add(a + 1, 0);
    if (g % 2 == 0) {
      add(a - 1, 1);
    } else {
      add(a + 2, 0);
      add(a - 2, 1);
    }
  }
  Matrix x(static_cast<int>(coords.size()), 2, 0.0);
  for (int i = 0; i < x.rows(); ++i) x.At(i, 0) = coords[i];
  out.data = Dataset(std::move(x), std::move(labels));
  return out;
}

TEST(RdGbgTieTest, TiedHeterogeneousNeighborStaysOutsideTheBall) {
  const TiedNeighbors tied = MakeTiedNeighbors(24);
  const Dataset& ds = tied.data;
  int fallback_balls = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    for (IndexStrategy strategy : {IndexStrategy::kFlat, IndexStrategy::kTree}) {
      RdGbgConfig cfg;
      cfg.scale_features = false;
      cfg.seed = seed;
      cfg.num_threads = 1;
      cfg.index_strategy = strategy;
      const RdGbgResult result = GenerateRdGbg(ds, cfg);
      EXPECT_TRUE(result.balls.CheckPurity(ds.y()))
          << "seed=" << seed << " strategy=" << IndexStrategyName(strategy);
      EXPECT_TRUE(result.balls.CheckContainment());
      // An odd group's A gets radius 1 only from the fallback: with its
      // class-1 neighbor already removed as noise, CR reaches +2.
      for (const GranularBall& ball : result.balls.balls()) {
        if (ball.radius == 1.0 &&
            std::count(tied.fallback_centers.begin(),
                       tied.fallback_centers.end(), ball.center_index) > 0) {
          ++fallback_balls;
        }
      }
    }
  }
  // The tie must really be hit: some seed draws an odd group's A while
  // its tied heterogeneous neighbor is still in U.
  EXPECT_GT(fallback_balls, 0);
}

// A deliberately naive transcription of Algorithm 1: every round
// rebuilds T = U - L by class from scratch, every candidate fully sorts
// its (dist2, index) list over the current U, and r_conf folds
// EuclideanDistance - radius over every ball in order. No laziness, no
// index, no SIMD, no incremental bookkeeping. CR is written from its
// definition — the largest dist2 of the leading homogeneous run that is
// strictly below the first heterogeneous dist2 — not from the
// production loop's fallback.
RdGbgResult NaiveRdGbg(const Dataset& ds, const RdGbgConfig& cfg) {
  const int n = ds.size();
  const int p = ds.num_features();
  const int q = ds.num_classes();
  Matrix x =
      cfg.scale_features ? MinMaxScaler().FitTransform(ds.x()) : ds.x();
  const std::vector<int>& y = ds.y();
  enum class State { kInT, kLowDensity, kGone };
  std::vector<State> state(n, State::kInT);
  std::vector<GranularBall> balls;
  RdGbgResult out;
  Pcg32 rng(cfg.seed);
  for (;;) {
    std::vector<std::vector<int>> groups(q);
    for (int i = 0; i < n; ++i) {
      if (state[i] == State::kInT) groups[y[i]].push_back(i);
    }
    std::vector<int> order;
    for (int c = 0; c < q; ++c) {
      if (!groups[c].empty()) order.push_back(c);
    }
    if (order.empty()) break;
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return groups[a].size() > groups[b].size();
    });
    ++out.iterations;
    std::vector<int> candidates;
    for (int cls : order) {
      candidates.push_back(groups[cls][rng.NextBounded(
          static_cast<std::uint32_t>(groups[cls].size()))]);
    }
    for (int c : candidates) {
      if (state[c] != State::kInT) continue;
      const int label = y[c];
      std::vector<std::pair<double, int>> nb;
      for (int i = 0; i < n; ++i) {
        if (i != c && state[i] != State::kGone) {
          nb.emplace_back(SquaredDistance(x.Row(c), x.Row(i), p), i);
        }
      }
      std::sort(nb.begin(), nb.end());
      if (nb.empty()) {
        state[c] = State::kLowDensity;
        continue;
      }
      std::size_t begin = 0;
      if (y[nb[0].second] != label) {
        const int rho =
            std::min(cfg.density_tolerance, static_cast<int>(nb.size()));
        int h = 0;
        for (int i = 0; i < rho; ++i) h += y[nb[i].second] != label;
        if (h == rho) {
          state[c] = State::kGone;
          out.noise_indices.push_back(c);
          continue;
        }
        if (h > 1) {
          state[c] = State::kLowDensity;
          continue;
        }
        state[nb[0].second] = State::kGone;
        out.noise_indices.push_back(nb[0].second);
        begin = 1;
      }
      double first_het = std::numeric_limits<double>::infinity();
      for (std::size_t i = begin; i < nb.size(); ++i) {
        if (y[nb[i].second] != label) {
          first_het = nb[i].first;
          break;
        }
      }
      double cr2 = 0.0;
      for (std::size_t i = begin; i < nb.size() && nb[i].first < first_het;
           ++i) {
        cr2 = nb[i].first;
      }
      double r_conf = std::numeric_limits<double>::infinity();
      for (const GranularBall& b : balls) {
        r_conf = std::min(
            r_conf, EuclideanDistance(x.Row(c), b.center.data(), p) - b.radius);
      }
      r_conf = std::max(r_conf, 0.0);
      double r2 = cr2;
      if (cr2 > r_conf * r_conf) {
        r2 = 0.0;
        for (std::size_t i = begin;
             i < nb.size() && nb[i].first <= r_conf * r_conf; ++i) {
          r2 = nb[i].first;
        }
      }
      if (r2 <= 0.0) {
        state[c] = State::kLowDensity;
        continue;
      }
      GranularBall ball;
      ball.center.assign(x.Row(c), x.Row(c) + p);
      ball.center_index = c;
      ball.radius = std::sqrt(r2);
      ball.label = label;
      ball.members.push_back(c);
      state[c] = State::kGone;
      for (std::size_t i = begin; i < nb.size() && nb[i].first <= r2; ++i) {
        ball.members.push_back(nb[i].second);
        state[nb[i].second] = State::kGone;
      }
      balls.push_back(std::move(ball));
    }
  }
  for (int i = 0; i < n; ++i) {
    if (state[i] != State::kLowDensity) continue;
    GranularBall ball;
    ball.center.assign(x.Row(i), x.Row(i) + p);
    ball.center_index = i;
    ball.label = y[i];
    ball.members.push_back(i);
    balls.push_back(std::move(ball));
    out.orphan_indices.push_back(i);
  }
  std::sort(out.noise_indices.begin(), out.noise_indices.end());
  out.balls = GranularBallSet(std::move(balls), std::move(x), q);
  return out;
}

void ExpectSameGranulation(const RdGbgResult& want, const RdGbgResult& got) {
  ASSERT_EQ(want.iterations, got.iterations);
  ASSERT_EQ(want.noise_indices, got.noise_indices);
  ASSERT_EQ(want.orphan_indices, got.orphan_indices);
  ASSERT_EQ(want.balls.size(), got.balls.size());
  for (int i = 0; i < want.balls.size(); ++i) {
    const GranularBall& a = want.balls.ball(i);
    const GranularBall& b = got.balls.ball(i);
    ASSERT_EQ(a.members, b.members) << "ball " << i;
    ASSERT_EQ(a.center_index, b.center_index) << "ball " << i;
    ASSERT_EQ(a.label, b.label) << "ball " << i;
    ASSERT_EQ(a.center, b.center) << "ball " << i;
    const double ra = a.radius, rb = b.radius;
    ASSERT_EQ(ra, rb) << "ball " << i;
  }
}

// Small seeded inputs, tie-heavy ones included: label-noisy blobs over
// six unequal classes, coordinates from a five-value set (duplicate
// points, exact dist2 ties, unscaled), the tied-neighbor groups, and
// entries of magnitude 10^±8 with exact zeros, whose scaled distances
// tie at tiny dist2.
Dataset OracleInput(int which, std::uint64_t seed) {
  Pcg32 rng(seed);
  if (which == 0) {
    BlobsConfig cfg;
    cfg.num_samples = 300;
    cfg.num_features = 3;
    cfg.num_classes = 6;
    cfg.class_weights = {6.0, 4.0, 3.0, 2.0, 1.5, 1.0};
    cfg.center_spread = 3.0;
    Pcg32 noise_rng(seed + 1);
    return WithClassNoise(MakeGaussianBlobs(cfg, &rng), 0.3, &noise_rng);
  }
  if (which == 1) {
    static constexpr double kValues[] = {-1.0, 0.0, 0.5, 1.0, 3.0};
    Matrix x(250, 3);
    std::vector<int> y(250);
    for (int i = 0; i < 250; ++i) {
      for (int j = 0; j < 3; ++j) x.At(i, j) = kValues[rng.NextBounded(5)];
      y[i] = static_cast<int>(rng.NextBounded(3));
    }
    return Dataset(std::move(x), std::move(y), 3);
  }
  if (which == 2) return MakeTiedNeighbors(16).data;
  Matrix x(200, 4);
  std::vector<int> y(200);
  for (int i = 0; i < 200; ++i) {
    for (int j = 0; j < 4; ++j) {
      x.At(i, j) = rng.NextBounded(20) == 0
                       ? 0.0
                       : std::pow(10.0, rng.NextInt(-8, 8)) *
                             rng.NextGaussian();
    }
    y[i] = static_cast<int>(rng.NextBounded(3));
  }
  return Dataset(std::move(x), std::move(y), 3);
}

TEST(RdGbgOracleTest, MatchesNaiveAlgorithmOneOnEveryStrategy) {
  for (int which = 0; which < 4; ++which) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const Dataset ds = OracleInput(which, seed);
      RdGbgConfig cfg;
      cfg.seed = 10 * seed + which;
      cfg.scale_features = which == 0 || which == 3;
      const RdGbgResult want = NaiveRdGbg(ds, cfg);
      for (IndexStrategy strategy :
           {IndexStrategy::kFlat, IndexStrategy::kTree,
            IndexStrategy::kAuto}) {
        for (int threads : {1, 4}) {
          cfg.index_strategy = strategy;
          cfg.num_threads = threads;
          SCOPED_TRACE(::testing::Message()
                       << "input=" << which << " seed=" << seed
                       << " strategy=" << IndexStrategyName(strategy)
                       << " threads=" << threads);
          const RdGbgResult got = GenerateRdGbg(ds, cfg);
          ExpectSameGranulation(want, got);
          EXPECT_TRUE(got.balls.CheckPurity(ds.y()));
        }
      }
    }
  }
}

}  // namespace
}  // namespace gbx
