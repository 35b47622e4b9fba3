// The IndexStrategy resolution machinery: name/parse round-trips for
// every strategy, and the kAuto tier semantics — size and dimension
// gates and thread scaling.
#include <string>

#include <gtest/gtest.h>

#include "index/index_strategy.h"

namespace gbx {
namespace {

TEST(IndexStrategyTest, NameParseRoundTrip) {
  for (IndexStrategy s : {IndexStrategy::kAuto, IndexStrategy::kFlat,
                          IndexStrategy::kTree, IndexStrategy::kSampled}) {
    IndexStrategy parsed = IndexStrategy::kAuto;
    ASSERT_TRUE(ParseIndexStrategy(IndexStrategyName(s), &parsed))
        << IndexStrategyName(s);
    EXPECT_EQ(parsed, s);
  }
  IndexStrategy out = IndexStrategy::kTree;
  EXPECT_FALSE(ParseIndexStrategy("balltree", &out));
  EXPECT_FALSE(ParseIndexStrategy("Tree", &out));
  EXPECT_FALSE(ParseIndexStrategy("", &out));
  EXPECT_EQ(out, IndexStrategy::kTree) << "failed parse must not write";
}

TEST(ResolveRdGbgTest, ExplicitRequestsPassThrough) {
  for (IndexStrategy s : {IndexStrategy::kFlat, IndexStrategy::kTree}) {
    EXPECT_EQ(ResolveRdGbgIndexStrategy(s, 1, 1000, 64), s);
  }
}

TEST(ResolveRdGbgTest, UnconditionalKdTiersMatchPr4) {
  // d<=2 from 4096 points at any thread count.
  EXPECT_EQ(ResolveRdGbgIndexStrategy(IndexStrategy::kAuto, 4096, 2, 64),
            IndexStrategy::kTree);
  EXPECT_EQ(ResolveRdGbgIndexStrategy(IndexStrategy::kAuto, 4095, 2, 1),
            IndexStrategy::kFlat);
  // d<=4 from 16384 points, up to 4 workers.
  EXPECT_EQ(ResolveRdGbgIndexStrategy(IndexStrategy::kAuto, 16384, 4, 4),
            IndexStrategy::kTree);
  EXPECT_EQ(ResolveRdGbgIndexStrategy(IndexStrategy::kAuto, 16384, 4, 5),
            IndexStrategy::kFlat);
  // Past d=4 the flat scan wins at any size.
  EXPECT_EQ(ResolveRdGbgIndexStrategy(IndexStrategy::kAuto, 20000, 5, 1),
            IndexStrategy::kFlat);
}

TEST(ResolveSurfaceThresholdTest, PerStrategySemantics) {
  // kFlat never switches, an explicit tree switches immediately — that
  // is what routes the bit-identity suites through the index.
  EXPECT_EQ(ResolveRdGbgSurfaceThreshold(IndexStrategy::kFlat, 1),
            kSurfaceIndexNever);
  EXPECT_EQ(ResolveRdGbgSurfaceThreshold(IndexStrategy::kTree, 8), 0);
  // kAuto scales with the worker count (the flat scan parallelizes, an
  // index query is serial) and never disables entirely.
  const int serial = ResolveRdGbgSurfaceThreshold(IndexStrategy::kAuto, 1);
  const int pool = ResolveRdGbgSurfaceThreshold(IndexStrategy::kAuto, 8);
  EXPECT_GT(serial, 0);
  EXPECT_GE(pool, serial);
  EXPECT_LT(pool, kSurfaceIndexNever);
}

TEST(ResolveCenterTest, SizeAndDimsGate) {
  // Tree from 4096 balls up to d=16, flat otherwise.
  EXPECT_EQ(ResolveCenterIndexStrategy(IndexStrategy::kAuto, 4096, 10),
            IndexStrategy::kTree);
  EXPECT_EQ(ResolveCenterIndexStrategy(IndexStrategy::kAuto, 4095, 10),
            IndexStrategy::kFlat);
  EXPECT_EQ(ResolveCenterIndexStrategy(IndexStrategy::kAuto, 8000, 16),
            IndexStrategy::kTree);
  EXPECT_EQ(ResolveCenterIndexStrategy(IndexStrategy::kAuto, 8000, 17),
            IndexStrategy::kFlat);
  // Explicit requests pass through untouched.
  for (IndexStrategy s : {IndexStrategy::kFlat, IndexStrategy::kTree,
                          IndexStrategy::kSampled}) {
    EXPECT_EQ(ResolveCenterIndexStrategy(s, 1, 1000), s);
  }
}

}  // namespace
}  // namespace gbx
