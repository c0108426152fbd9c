#include "layout/window_grid.hpp"

#include <algorithm>
#include <cassert>

#include "geometry/boolean.hpp"

namespace ofl::layout {

WindowGrid::WindowGrid(const geom::Rect& die, geom::Coord windowSize)
    : die_(die), windowSize_(std::max<geom::Coord>(windowSize, 1)) {
  cols_ = static_cast<int>((die.width() + windowSize_ - 1) / windowSize_);
  rows_ = static_cast<int>((die.height() + windowSize_ - 1) / windowSize_);
  cols_ = std::max(cols_, 1);
  rows_ = std::max(rows_, 1);
}

geom::Rect WindowGrid::windowRect(int i, int j) const {
  assert(i >= 0 && i < cols_ && j >= 0 && j < rows_);
  const geom::Coord xl = die_.xl + i * windowSize_;
  const geom::Coord yl = die_.yl + j * windowSize_;
  return {xl, yl, std::min(xl + windowSize_, die_.xh),
          std::min(yl + windowSize_, die_.yh)};
}

void WindowGrid::windowRange(const geom::Rect& r, int& i0, int& j0, int& i1,
                             int& j1) const {
  auto clampCol = [this](geom::Coord v) {
    return static_cast<int>(std::clamp<geom::Coord>(v, 0, cols_ - 1));
  };
  auto clampRow = [this](geom::Coord v) {
    return static_cast<int>(std::clamp<geom::Coord>(v, 0, rows_ - 1));
  };
  i0 = clampCol((r.xl - die_.xl) / windowSize_);
  j0 = clampRow((r.yl - die_.yl) / windowSize_);
  i1 = clampCol((r.xh - 1 - die_.xl) / windowSize_);
  j1 = clampRow((r.yh - 1 - die_.yl) / windowSize_);
  if (i1 < i0) i1 = i0;
  if (j1 < j0) j1 = j0;
}

std::vector<std::vector<geom::Rect>> WindowGrid::bucketClipped(
    const std::vector<geom::Rect>& rects) const {
  return bucketClipped(rects, 0, 0, cols_ - 1, rows_ - 1);
}

std::vector<std::vector<geom::Rect>> WindowGrid::bucketClipped(
    const std::vector<geom::Rect>& rects, int i0, int j0, int i1,
    int j1) const {
  const int rangeCols = i1 - i0 + 1;
  std::vector<std::vector<geom::Rect>> buckets(
      static_cast<std::size_t>(rangeCols) *
      static_cast<std::size_t>(j1 - j0 + 1));
  for (const geom::Rect& r : rects) {
    if (r.empty()) continue;
    int ri0, rj0, ri1, rj1;
    windowRange(r, ri0, rj0, ri1, rj1);
    for (int j = std::max(rj0, j0); j <= std::min(rj1, j1); ++j) {
      for (int i = std::max(ri0, i0); i <= std::min(ri1, i1); ++i) {
        const geom::Rect clip = r.intersection(windowRect(i, j));
        if (!clip.empty()) {
          buckets[static_cast<std::size_t>((j - j0) * rangeCols + (i - i0))]
              .push_back(clip);
        }
      }
    }
  }
  return buckets;
}

std::vector<geom::Area> WindowGrid::coveredAreaPerWindow(
    const std::vector<geom::Rect>& rects) const {
  const auto buckets = bucketClipped(rects);
  std::vector<geom::Area> areas(buckets.size(), 0);
  for (std::size_t w = 0; w < buckets.size(); ++w) {
    // Shapes within one window may overlap (e.g. crossing wires), so the
    // union area is required, not the plain sum.
    areas[w] = geom::unionArea(buckets[w]);
  }
  return areas;
}

}  // namespace ofl::layout
