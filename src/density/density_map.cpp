#include "density/density_map.hpp"

#include <cassert>

#include "geometry/boolean.hpp"

namespace ofl::density {

DensityMap::DensityMap(int cols, int rows, std::vector<double> values)
    : cols_(cols), rows_(rows), values_(std::move(values)) {
  assert(values_.size() == static_cast<std::size_t>(cols_) * rows_);
}

double windowDensity(const std::vector<geom::Rect>& clips,
                     geom::Area windowArea) {
  // Shapes within one window may overlap (e.g. crossing wires), so the
  // union area is required, not the plain sum.
  return windowArea > 0
             ? static_cast<double>(geom::unionArea(clips)) / windowArea
             : 0.0;
}

DensityMap DensityMap::compute(const layout::Layout& layout, int layer,
                               const layout::WindowGrid& grid) {
  std::vector<geom::Rect> shapes = layout.layer(layer).wires;
  const auto& fills = layout.layer(layer).fills;
  shapes.insert(shapes.end(), fills.begin(), fills.end());
  return computeFromShapes(shapes, grid);
}

DensityMap DensityMap::computeFromShapes(const std::vector<geom::Rect>& shapes,
                                         const layout::WindowGrid& grid) {
  const auto buckets = grid.bucketClipped(shapes);
  std::vector<double> values(buckets.size(), 0.0);
  for (int j = 0; j < grid.rows(); ++j) {
    for (int i = 0; i < grid.cols(); ++i) {
      const auto w = static_cast<std::size_t>(grid.flatIndex(i, j));
      values[w] = windowDensity(buckets[w], grid.windowRect(i, j).area());
    }
  }
  return DensityMap(grid.cols(), grid.rows(), std::move(values));
}

}  // namespace ofl::density
