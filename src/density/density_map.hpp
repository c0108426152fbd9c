// Per-window layout density for one layer (paper Section 2.2).
//
// d(i, j) = covered area of (wires U fills) clipped to window (i, j),
// divided by the window area. Stored column-major-agnostic as a flat
// vector indexed by WindowGrid::flatIndex.
#pragma once

#include <vector>

#include "layout/layout.hpp"
#include "layout/window_grid.hpp"

namespace ofl::density {

/// One window's density from its clipped shapes (a WindowGrid bucket):
/// covered area over the window's true area, 0 for an empty window.
/// computeFromShapes applies exactly this to every window.
double windowDensity(const std::vector<geom::Rect>& clips,
                     geom::Area windowArea);

class DensityMap {
 public:
  DensityMap() = default;
  DensityMap(int cols, int rows, std::vector<double> values);

  /// Densities of wires+fills of `layer` under `grid`.
  static DensityMap compute(const layout::Layout& layout, int layer,
                            const layout::WindowGrid& grid);

  /// Densities of an explicit shape list (e.g. wires only).
  static DensityMap computeFromShapes(const std::vector<geom::Rect>& shapes,
                                      const layout::WindowGrid& grid);

  int cols() const { return cols_; }
  int rows() const { return rows_; }
  int count() const { return cols_ * rows_; }

  double at(int i, int j) const {
    return values_[static_cast<std::size_t>(j * cols_ + i)];
  }
  double& at(int i, int j) {
    return values_[static_cast<std::size_t>(j * cols_ + i)];
  }
  const std::vector<double>& values() const { return values_; }

 private:
  int cols_ = 0;
  int rows_ = 0;
  std::vector<double> values_;
};

}  // namespace ofl::density
