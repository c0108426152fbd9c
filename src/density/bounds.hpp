// Per-window density bounds l(i,j), u(i,j) (paper Section 3.1).
//
// Lower bound: existing wire density (fills only add area). Upper bound:
// wire density plus the fraction of the window covered by usable fill
// region. "Usable" discounts slivers narrower than the min fill width,
// which no legal fill can occupy.
#pragma once

#include <vector>

#include "density/density_map.hpp"
#include "geometry/region.hpp"
#include "layout/design_rules.hpp"
#include "layout/layout.hpp"
#include "layout/window_grid.hpp"

namespace ofl::density {

struct DensityBounds {
  std::vector<double> lower;  // l(i,j), flat-indexed
  std::vector<double> upper;  // u(i,j)
};

/// One window's [lower, upper] pair.
struct WindowBound {
  double lower = 0.0;
  double upper = 0.0;
};

/// Bound arithmetic for a single window: `wireDensity` is the window's
/// wire-only density, `windowArea` its true (edge-clipped) area,
/// `fillRegion` its free space. Both computeBounds and the sharded
/// engine's row-at-a-time pass call this, so the two paths agree by
/// construction.
WindowBound computeWindowBound(double wireDensity, geom::Area windowArea,
                               const geom::Region& fillRegion,
                               const layout::DesignRules& rules);

/// Bounds for one layer given its per-window fill regions (from
/// layout::computeFillRegions). Computes the layer's wire density map
/// itself; callers that already hold it use the overload below.
DensityBounds computeBounds(const layout::Layout& layout, int layer,
                            const layout::WindowGrid& grid,
                            const std::vector<geom::Region>& fillRegions,
                            const layout::DesignRules& rules);

/// Same bounds from the layer's wire-only density map
/// (DensityMap::computeFromShapes over its wires).
DensityBounds computeBounds(const DensityMap& wireDensity,
                            const layout::WindowGrid& grid,
                            const std::vector<geom::Region>& fillRegions,
                            const layout::DesignRules& rules);

}  // namespace ofl::density
