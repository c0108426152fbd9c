#include "layout/window_grid.hpp"

#include <gtest/gtest.h>

#include "geometry/boolean.hpp"

namespace ofl::layout {
namespace {

TEST(WindowGridTest, ExactDivision) {
  const WindowGrid grid({0, 0, 100, 60}, 20);
  EXPECT_EQ(grid.cols(), 5);
  EXPECT_EQ(grid.rows(), 3);
  EXPECT_EQ(grid.windowCount(), 15);
  EXPECT_EQ(grid.windowRect(0, 0), geom::Rect(0, 0, 20, 20));
  EXPECT_EQ(grid.windowRect(4, 2), geom::Rect(80, 40, 100, 60));
}

TEST(WindowGridTest, PartialEdgeWindowsClipped) {
  const WindowGrid grid({0, 0, 50, 50}, 20);
  EXPECT_EQ(grid.cols(), 3);
  EXPECT_EQ(grid.windowRect(2, 2), geom::Rect(40, 40, 50, 50));
  EXPECT_EQ(grid.windowRect(2, 2).area(), 100);
}

TEST(WindowGridTest, NonZeroOrigin) {
  const WindowGrid grid({-40, 100, 0, 140}, 20);
  EXPECT_EQ(grid.cols(), 2);
  EXPECT_EQ(grid.rows(), 2);
  EXPECT_EQ(grid.windowRect(0, 0), geom::Rect(-40, 100, -20, 120));
}

TEST(WindowGridTest, WindowRangeClamps) {
  const WindowGrid grid({0, 0, 100, 100}, 25);
  int i0, j0, i1, j1;
  grid.windowRange({-10, -10, 300, 30}, i0, j0, i1, j1);
  EXPECT_EQ(i0, 0);
  EXPECT_EQ(i1, 3);
  EXPECT_EQ(j0, 0);
  EXPECT_EQ(j1, 1);
}

TEST(WindowGridTest, BucketClippedSplitsAcrossWindows) {
  const WindowGrid grid({0, 0, 40, 40}, 20);
  const auto buckets = grid.bucketClipped({{10, 10, 30, 30}});
  // The rect spans all four windows.
  int nonEmpty = 0;
  geom::Area total = 0;
  for (const auto& bucket : buckets) {
    if (!bucket.empty()) {
      ++nonEmpty;
      for (const auto& r : bucket) total += r.area();
    }
  }
  EXPECT_EQ(nonEmpty, 4);
  EXPECT_EQ(total, 400);
}

TEST(WindowGridTest, BucketClipStaysInWindow) {
  const WindowGrid grid({0, 0, 60, 60}, 20);
  const auto buckets = grid.bucketClipped({{5, 5, 55, 55}, {0, 0, 60, 8}});
  for (int j = 0; j < grid.rows(); ++j) {
    for (int i = 0; i < grid.cols(); ++i) {
      const geom::Rect w = grid.windowRect(i, j);
      for (const auto& r :
           buckets[static_cast<std::size_t>(grid.flatIndex(i, j))]) {
        EXPECT_TRUE(w.contains(r));
      }
    }
  }
}

TEST(WindowGridTest, RangeBucketsEqualWholeGridBuckets) {
  // Edge-clipped last row/column, shapes outside the die and overlapping
  // shapes: every range's bucket must equal the whole-grid bucket of the
  // same window, clip for clip and in the same order.
  const WindowGrid grid({0, 0, 100, 90}, 30);
  const std::vector<geom::Rect> shapes{
      {-10, -10, 40, 5}, {5, 5, 95, 15}, {5, 5, 15, 95},  {50, 50, 80, 80},
      {70, 70, 120, 99}, {29, 0, 31, 90}, {60, 85, 61, 86}, {40, 40, 40, 60}};
  const auto whole = grid.bucketClipped(shapes);
  const int ranges[][4] = {{0, 0, 0, 0}, {1, 1, 2, 2}, {0, 0, 3, 2},
                           {3, 2, 3, 2}, {2, 0, 3, 1}};
  for (const auto& r : ranges) {
    const auto part = grid.bucketClipped(shapes, r[0], r[1], r[2], r[3]);
    ASSERT_EQ(part.size(), static_cast<std::size_t>((r[2] - r[0] + 1) *
                                                    (r[3] - r[1] + 1)));
    std::size_t a = 0;
    for (int j = r[1]; j <= r[3]; ++j) {
      for (int i = r[0]; i <= r[2]; ++i, ++a) {
        EXPECT_EQ(part[a],
                  whole[static_cast<std::size_t>(grid.flatIndex(i, j))])
            << "window (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(WindowGridTest, CoveredAreaCountsOverlapOnce) {
  const WindowGrid grid({0, 0, 20, 20}, 20);
  // Two crossing wires overlap in a 4x4 square.
  const auto areas =
      grid.coveredAreaPerWindow({{0, 8, 20, 12}, {8, 0, 12, 20}});
  ASSERT_EQ(areas.size(), 1u);
  EXPECT_EQ(areas[0], 20 * 4 + 20 * 4 - 16);
}

TEST(WindowGridTest, CoveredAreaSumsToGlobalUnion) {
  const WindowGrid grid({0, 0, 100, 100}, 30);
  const std::vector<geom::Rect> shapes{
      {5, 5, 95, 15}, {5, 5, 15, 95}, {50, 50, 80, 80}, {70, 70, 99, 99}};
  const auto areas = grid.coveredAreaPerWindow(shapes);
  geom::Area sum = 0;
  for (geom::Area a : areas) sum += a;
  EXPECT_EQ(sum, geom::unionArea(shapes));
}

}  // namespace
}  // namespace ofl::layout
