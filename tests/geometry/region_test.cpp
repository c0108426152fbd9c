#include "geometry/region.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"

namespace ofl::geom {
namespace {

TEST(RegionTest, NormalizesOverlappingInput) {
  const std::vector<Rect> rects{{0, 0, 10, 10}, {5, 0, 15, 10}};
  const Region region(rects);
  EXPECT_EQ(region.area(), 150);
  EXPECT_TRUE(testutil::pairwiseDisjoint(region.rects()));
}

TEST(RegionTest, SetOperations) {
  const Region a(Rect{0, 0, 10, 10});
  const Region b(Rect{5, 5, 15, 15});
  EXPECT_EQ(a.unite(b).area(), 175);
  EXPECT_EQ(a.intersect(b).area(), 25);
  EXPECT_EQ(a.subtract(b).area(), 75);
  EXPECT_EQ(a.overlapArea(b), 25);
}

TEST(RegionTest, EmptyRegion) {
  const Region empty;
  const Region a(Rect{0, 0, 4, 4});
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.area(), 0);
  EXPECT_EQ(a.intersect(empty).area(), 0);
  EXPECT_EQ(a.unite(empty).area(), 16);
  EXPECT_EQ(a.subtract(empty).area(), 16);
  EXPECT_TRUE(Region(Rect{3, 3, 3, 9}).empty());  // degenerate rect
}

TEST(RegionTest, ClippedToWindow) {
  const Region a(std::vector<Rect>{{0, 0, 10, 10}, {20, 20, 30, 30}});
  const Region c = a.clipped({5, 5, 25, 25});
  EXPECT_EQ(c.area(), 25 + 25);
  for (const Rect& r : c.rects()) {
    EXPECT_TRUE(Rect(5, 5, 25, 25).contains(r));
  }
}

TEST(RegionTest, BboxCoversAll) {
  const Region a(std::vector<Rect>{{2, 3, 4, 5}, {10, 1, 12, 9}});
  EXPECT_EQ(a.bbox(), Rect(2, 1, 12, 9));
}

TEST(RegionTest, ShrunkOfRect) {
  const Region a(Rect{0, 0, 20, 20});
  const Region s = a.shrunk(3);
  EXPECT_EQ(s.area(), 14 * 14);
  EXPECT_EQ(s.bbox(), Rect(3, 3, 17, 17));
}

TEST(RegionTest, ShrunkEliminatesSlivers) {
  // A 20x20 square with a 4-wide corridor attached: eroding by 3 must
  // remove the corridor entirely (4 < 2*3 + 1).
  const Region a(std::vector<Rect>{{0, 0, 20, 20}, {20, 8, 40, 12}});
  const Region s = a.shrunk(3);
  EXPECT_EQ(s.area(), 14 * 14);
}

TEST(RegionTest, ShrunkZeroIsIdentity) {
  const Region a(std::vector<Rect>{{0, 0, 10, 10}, {20, 0, 25, 5}});
  EXPECT_EQ(a.shrunk(0), a);
}

TEST(RegionTest, ShrunkPointStaysInsideOriginal) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Rect> rects;
    for (int k = 0; k < 8; ++k) rects.push_back(testutil::randomRect(rng, 60, 25));
    const Region region(rects);
    const Region eroded = region.shrunk(2);
    // Erosion is anti-extensive and every eroded point keeps a 2-margin:
    // growing the eroded rects back by 2 must stay inside the original.
    for (Rect r : eroded.rects()) {
      r = r.expanded(2);
      EXPECT_EQ(Region(r).subtract(region).area(), 0) << "trial " << trial;
    }
  }
}

// erodedEmpty(d) must agree with shrunk(d).empty() everywhere; its fast
// path (one rect wider and taller than 2d) may only ever answer "no".

bool noRectPassesFastPath(const Region& region, Coord d) {
  for (const Rect& r : region.rects()) {
    if (r.width() > 2 * d && r.height() > 2 * d) return false;
  }
  return true;
}

TEST(RegionTest, ErodedEmptyOnEmptyRegionAndZeroDistance) {
  const Region empty;
  EXPECT_TRUE(empty.erodedEmpty(0));
  EXPECT_TRUE(empty.erodedEmpty(5));
  const Region sliver(Rect{0, 0, 1, 40});
  EXPECT_FALSE(sliver.erodedEmpty(0));
  EXPECT_EQ(sliver.erodedEmpty(0), sliver.shrunk(0).empty());
  EXPECT_TRUE(sliver.erodedEmpty(1));
}

TEST(RegionTest, ErodedEmptyThresholdIsTwoDPlusOne) {
  // A w x w square survives erosion by d exactly when w >= 2d + 1.
  for (Coord d = 1; d <= 6; ++d) {
    const Region fits(Rect{0, 0, 2 * d + 1, 2 * d + 1});
    const Region tooThin(Rect{0, 0, 2 * d, 100});
    EXPECT_FALSE(fits.erodedEmpty(d)) << "d " << d;
    EXPECT_TRUE(tooThin.erodedEmpty(d)) << "d " << d;
    EXPECT_EQ(fits.erodedEmpty(d), fits.shrunk(d).empty());
    EXPECT_EQ(tooThin.erodedEmpty(d), tooThin.shrunk(d).empty());
  }
}

TEST(RegionTest, ErodedEmptyFallsBackWhenOnlyTheUnionAdmitsTheSquare) {
  // A 20x20 square as 4-wide vertical slabs: no slab passes the fast
  // path for d = 3, yet the union keeps a 14x14 core.
  std::vector<Rect> slabs;
  for (Coord x = 0; x < 20; x += 4) slabs.push_back({x, 0, x + 4, 20});
  const Region slabbed = Region::fromDisjoint(slabs);
  ASSERT_TRUE(noRectPassesFastPath(slabbed, 3));
  EXPECT_FALSE(slabbed.erodedEmpty(3));
  EXPECT_FALSE(slabbed.shrunk(3).empty());

  // The same in canonical form: the sweep merges slabs along x only
  // while their y-extent agrees, so teeth on the square's top edge cut
  // the normalized decomposition into 1-wide columns.
  std::vector<Rect> comb{{0, 0, 20, 20}};
  for (Coord x = 1; x < 20; x += 2) comb.push_back({x, 20, x + 1, 22});
  const Region combed(comb);
  ASSERT_TRUE(noRectPassesFastPath(combed, 3));
  EXPECT_FALSE(combed.erodedEmpty(3));
  EXPECT_FALSE(combed.shrunk(3).empty());

  // Slabs whose union is itself too thin stay empty through the fallback.
  const Region thinSlabs = Region::fromDisjoint(
      std::vector<Rect>{{0, 0, 3, 6}, {3, 0, 6, 6}});
  ASSERT_TRUE(noRectPassesFastPath(thinSlabs, 3));
  EXPECT_TRUE(thinSlabs.erodedEmpty(3));
  EXPECT_TRUE(thinSlabs.shrunk(3).empty());
}

TEST(RegionTest, ErodedEmptyMatchesShrunkOnRandomRegions) {
  Rng rng(2015);
  int fallbacks = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Rect> rects;
    const int count = static_cast<int>(rng.uniformInt(0, 8));
    const Coord maxSide = rng.bernoulli(0.5) ? 8 : 25;  // slivers vs. blocks
    for (int k = 0; k < count; ++k) {
      rects.push_back(testutil::randomRect(rng, 60, maxSide));
    }
    const Region region(rects);
    // d = minWidth / 2 for even and odd minWidth, including 0 and 1.
    for (const Coord minWidth : {0, 1, 2, 5, 7, 9, 10, 13}) {
      const Coord d = minWidth / 2;
      if (noRectPassesFastPath(region, d)) ++fallbacks;
      EXPECT_EQ(region.erodedEmpty(d), region.shrunk(d).empty())
          << "trial " << trial << " minWidth " << minWidth;
    }
  }
  EXPECT_GT(fallbacks, 100);  // the fallback path is exercised too
}

}  // namespace
}  // namespace ofl::geom
