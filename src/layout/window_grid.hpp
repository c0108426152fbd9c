// Fixed-dissection window grid (paper Fig. 1 / Fig. 2(b)).
//
// The die is divided into N columns x M rows of w x w square windows.
// Windows on the top/right edges may be clipped when the die is not an
// exact multiple of w; density always normalizes by the true window area.
#pragma once

#include <functional>
#include <vector>

#include "geometry/rect.hpp"

namespace ofl::layout {

class WindowGrid {
 public:
  WindowGrid() = default;
  WindowGrid(const geom::Rect& die, geom::Coord windowSize);

  int cols() const { return cols_; }                 // N
  int rows() const { return rows_; }                 // M
  int windowCount() const { return cols_ * rows_; }
  geom::Coord windowSize() const { return windowSize_; }
  const geom::Rect& die() const { return die_; }

  /// Window (i, j): column i in [0, N), row j in [0, M).
  geom::Rect windowRect(int i, int j) const;

  /// Flat index for (i, j); row-major over columns.
  int flatIndex(int i, int j) const { return j * cols_ + i; }

  /// Column/row range of windows a rect touches (clamped to the grid).
  void windowRange(const geom::Rect& r, int& i0, int& j0, int& i1,
                   int& j1) const;

  /// Buckets rects into windows, clipping each to the window boundary.
  /// Result is indexed by flatIndex.
  std::vector<std::vector<geom::Rect>> bucketClipped(
      const std::vector<geom::Rect>& rects) const;

  /// bucketClipped restricted to the windows [i0, i1] x [j0, j1], indexed
  /// row-major over that range. A window's bucket holds the same clips in
  /// the same (input) order as in the whole-grid result, since a clip
  /// depends only on the rect and the window.
  std::vector<std::vector<geom::Rect>> bucketClipped(
      const std::vector<geom::Rect>& rects, int i0, int j0, int i1,
      int j1) const;

  /// Per-window covered area of a (possibly overlapping) rect set; the
  /// basis of density analysis.
  std::vector<geom::Area> coveredAreaPerWindow(
      const std::vector<geom::Rect>& rects) const;

 private:
  geom::Rect die_;
  geom::Coord windowSize_ = 1;
  int cols_ = 0;
  int rows_ = 0;
};

}  // namespace ofl::layout
