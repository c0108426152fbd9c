#include "layout/fill_region.hpp"

#include "geometry/boolean.hpp"

namespace ofl::layout {

geom::Region windowFillRegion(const geom::Rect& window,
                              const std::vector<geom::Rect>& blocked) {
  const std::vector<geom::Rect> windowRects{window};
  return geom::Region::fromDisjoint(
      geom::booleanOp(windowRects, blocked, geom::BoolOp::kSubtract));
}

// A wire near a window border blocks space in the adjacent window too,
// which bucketing the *inflated* shape captures.
std::vector<geom::Rect> inflatedWires(const Layout& layout, int layer,
                                      const DesignRules& rules) {
  std::vector<geom::Rect> inflated;
  inflated.reserve(layout.layer(layer).wires.size());
  for (const geom::Rect& w : layout.layer(layer).wires) {
    inflated.push_back(w.expanded(rules.minSpacing));
  }
  return inflated;
}

std::vector<geom::Region> computeFillRegions(
    const Layout& layout, int layer, const WindowGrid& grid,
    const DesignRules& rules,
    std::vector<std::vector<geom::Rect>>* blockedOut) {
  auto blocked = grid.bucketClipped(inflatedWires(layout, layer, rules));
  std::vector<geom::Region> regions(static_cast<std::size_t>(grid.windowCount()));
  for (int j = 0; j < grid.rows(); ++j) {
    for (int i = 0; i < grid.cols(); ++i) {
      const auto w = static_cast<std::size_t>(grid.flatIndex(i, j));
      regions[w] = windowFillRegion(grid.windowRect(i, j), blocked[w]);
    }
  }
  if (blockedOut != nullptr) *blockedOut = std::move(blocked);
  return regions;
}

geom::Region computeLayerFillRegion(const Layout& layout, int layer,
                                    const DesignRules& rules) {
  const std::vector<geom::Rect> dieRects{layout.die()};
  return geom::Region::fromDisjoint(
      geom::booleanOp(dieRects, inflatedWires(layout, layer, rules),
                      geom::BoolOp::kSubtract));
}

}  // namespace ofl::layout
