// Feasible fill region extraction (paper Fig. 3, "Initial Fill Regions").
//
// The fill region of a layer is the die area minus wires inflated by the
// min fill-to-wire spacing. Computed per window so each window carries its
// own free space for planning and candidate generation.
#pragma once

#include <vector>

#include "geometry/region.hpp"
#include "layout/design_rules.hpp"
#include "layout/layout.hpp"
#include "layout/window_grid.hpp"

namespace ofl::layout {

/// Per-window fill regions for one layer, indexed by WindowGrid::flatIndex.
/// The regions already honor fill-to-wire spacing and die clipping; they do
/// NOT yet honor min width/area (candidate generation handles that).
///
/// When `blockedOut` is given it receives the per-window inflated-wire
/// clips the regions were derived from, i.e. the exact rect sets with
/// region[w] == windowRect(w) minus the union of blockedOut[w]. Downstream
/// kernels use that identity to recompute region combinations from the few
/// source shapes instead of the many decomposed slabs (candidate
/// generation's shared-region kernel).
std::vector<geom::Region> computeFillRegions(
    const Layout& layout, int layer, const WindowGrid& grid,
    const DesignRules& rules,
    std::vector<std::vector<geom::Rect>>* blockedOut = nullptr);

/// One window's free space: `window` minus the union of `blocked`, the
/// window's inflated-wire clips. The per-window kernel of
/// computeFillRegions; the sharded engine and the ECO path call it on
/// buckets they build themselves, so all agree by construction.
geom::Region windowFillRegion(const geom::Rect& window,
                              const std::vector<geom::Rect>& blocked);

/// The layer's wires inflated by the fill-to-wire spacing, in input order:
/// the shapes whose per-window clips computeFillRegions reports as
/// `blockedOut`.
std::vector<geom::Rect> inflatedWires(const Layout& layout, int layer,
                                      const DesignRules& rules);

/// Whole-layer fill region (union over windows); used by baselines that do
/// not operate window-by-window.
geom::Region computeLayerFillRegion(const Layout& layout, int layer,
                                    const DesignRules& rules);

}  // namespace ofl::layout
