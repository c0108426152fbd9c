#include "density/bounds.hpp"

#include <algorithm>

namespace ofl::density {

WindowBound computeWindowBound(double wireDensity, geom::Area windowArea,
                               const geom::Region& fillRegion,
                               const layout::DesignRules& rules) {
  // A region no legal fill can occupy contributes nothing: the test is
  // whether any point survives erosion by floor(minWidth/2) (conservative
  // for odd widths). If one does, usable is the whole region's area, else
  // 0 -- an all-or-nothing upper bound, not an area estimate.
  geom::Area usable = 0;
  if (windowArea > 0 && !fillRegion.erodedEmpty(rules.minWidth / 2)) {
    usable = fillRegion.area();
  }
  WindowBound bound;
  bound.lower = wireDensity;
  // The upper bound respects the foundry max-density rule unless the
  // wires alone already exceed it (the filler cannot remove wires).
  const double cap = std::max(rules.maxDensity, wireDensity);
  bound.upper =
      windowArea > 0
          ? std::min(cap, wireDensity +
                              static_cast<double>(usable) / windowArea)
          : wireDensity;
  return bound;
}

DensityBounds computeBounds(const layout::Layout& layout, int layer,
                            const layout::WindowGrid& grid,
                            const std::vector<geom::Region>& fillRegions,
                            const layout::DesignRules& rules) {
  return computeBounds(
      DensityMap::computeFromShapes(layout.layer(layer).wires, grid), grid,
      fillRegions, rules);
}

DensityBounds computeBounds(const DensityMap& wireDensity,
                            const layout::WindowGrid& grid,
                            const std::vector<geom::Region>& fillRegions,
                            const layout::DesignRules& rules) {
  DensityBounds bounds;
  const auto n = static_cast<std::size_t>(grid.windowCount());
  bounds.lower.resize(n);
  bounds.upper.resize(n);

  static const geom::Region kEmptyRegion;
  for (int j = 0; j < grid.rows(); ++j) {
    for (int i = 0; i < grid.cols(); ++i) {
      const auto w = static_cast<std::size_t>(grid.flatIndex(i, j));
      const geom::Region& region =
          w < fillRegions.size() ? fillRegions[w] : kEmptyRegion;
      const WindowBound b = computeWindowBound(
          wireDensity.at(i, j), grid.windowRect(i, j).area(), region, rules);
      bounds.lower[w] = b.lower;
      bounds.upper[w] = b.upper;
    }
  }
  return bounds;
}

}  // namespace ofl::density
