// Seeded random layout/library builders shared by the fuzzer and the test
// suites (tests/test_util.hpp, tests/gds/gds_fuzz_test.cpp forward here).
//
// Everything is deterministic from the caller's Rng: the same seed yields
// the same geometry on every platform, which is what lets a fuzz failure be
// replayed from nothing but its seed. The layouts deliberately mix the
// textures that stress fill insertion — long routing bars, square macro
// blocks and empty channels — at randomized scale.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "gds/gds_writer.hpp"
#include "layout/layout.hpp"

namespace ofl::testing {

class LayoutGen {
 public:
  /// Random rect fully inside [0, extent)^2 with edges in
  /// [1, min(maxEdge, extent)].
  static geom::Rect randomRect(Rng& rng, geom::Coord extent,
                               geom::Coord maxEdge);

  struct LibraryParams {
    int minCells = 1;
    int maxCells = 3;
    int maxShapesPerCell = 40;
    geom::Coord coordExtent = 100000;  // coords in [-extent, extent]
    geom::Coord maxEdge = 5000;
    int maxLayer = 8;  // GDS layer numbers 1..maxLayer
  };

  /// Random flat GDS library (multiple cells, random layers/datatypes);
  /// the GDS round-trip fuzz workload.
  static gds::Library randomLibrary(Rng& rng, const LibraryParams& params);
  static gds::Library randomLibrary(Rng& rng) {
    return randomLibrary(rng, LibraryParams{});
  }

  struct LayoutParams {
    geom::Coord minDieExtent = 1500;
    geom::Coord maxDieExtent = 3600;
    int minLayers = 1;
    int maxLayers = 3;
    int minWiresPerLayer = 0;
    int maxWiresPerLayer = 40;
    geom::Coord wireWidthMin = 16;
    geom::Coord wireWidthMax = 60;
    /// Mean bar length as a fraction of the die extent (bars are clipped
    /// to the die).
    double barLengthFraction = 0.4;
    /// Probability a shape is a square-ish block instead of a bar.
    double blockProbability = 0.25;
  };

  /// Random multi-layer wire layout (no fills): horizontal/vertical bars
  /// plus occasional blocks, all inside a random die anchored at (0, 0).
  static layout::Layout randomLayout(Rng& rng, const LayoutParams& params);
  static layout::Layout randomLayout(Rng& rng) {
    return randomLayout(rng, LayoutParams{});
  }
};

}  // namespace ofl::testing
