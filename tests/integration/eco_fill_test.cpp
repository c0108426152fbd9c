// ECO incremental fill tests: after a local wire change, runIncremental
// must repair only the affected windows, preserve everything else
// bit-exactly, and restore DRC cleanliness and density quality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "contest/benchmark_generator.hpp"
#include "density/density_map.hpp"
#include "density/metrics.hpp"
#include "fill/fill_engine.hpp"
#include "layout/drc_checker.hpp"

namespace ofl {
namespace {

class EcoFillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setLogLevel(LogLevel::kWarn);
    spec_ = contest::BenchmarkGenerator::spec("tiny");
    chip_ = contest::BenchmarkGenerator::generate(spec_);
    options_.windowSize = spec_.windowSize;
    options_.rules = spec_.rules;
    fill::FillEngine(options_).run(chip_);
  }

  // Adds a wire block inside window (2, 2) and returns the changed rect.
  geom::Rect mutateWires() {
    const geom::Rect block{2 * 1200 + 200, 2 * 1200 + 200, 2 * 1200 + 800,
                           2 * 1200 + 800};
    // Remove wires overlapping the block so the input stays DRC-clean,
    // then place the block.
    for (int l = 0; l < chip_.numLayers(); ++l) {
      auto& wires = chip_.layer(l).wires;
      wires.erase(
          std::remove_if(wires.begin(), wires.end(),
                         [&](const geom::Rect& w) {
                           return w.expanded(spec_.rules.minSpacing)
                               .overlaps(block);
                         }),
          wires.end());
    }
    chip_.layer(0).wires.push_back(block);
    return block;
  }

  contest::BenchmarkSpec spec_;
  layout::Layout chip_{{}, 0};
  fill::FillEngineOptions options_;
};

TEST_F(EcoFillTest, PreservesFillsOutsideAffectedWindows) {
  // Record fills far from the change.
  std::vector<std::vector<geom::Rect>> farFills(
      static_cast<std::size_t>(chip_.numLayers()));
  const geom::Rect changed = mutateWires();
  const geom::Rect affectedArea =
      changed.expanded(spec_.rules.minSpacing + spec_.windowSize);
  for (int l = 0; l < chip_.numLayers(); ++l) {
    for (const auto& f : chip_.layer(l).fills) {
      if (!f.overlaps(affectedArea)) {
        farFills[static_cast<std::size_t>(l)].push_back(f);
      }
    }
  }
  fill::FillEngine(options_).runIncremental(chip_, changed);
  for (int l = 0; l < chip_.numLayers(); ++l) {
    for (const auto& f : farFills[static_cast<std::size_t>(l)]) {
      const auto& fills = chip_.layer(l).fills;
      EXPECT_TRUE(std::find(fills.begin(), fills.end(), f) != fills.end())
          << "layer " << l << " lost " << f.str();
    }
  }
}

TEST_F(EcoFillTest, RepairsDrcAfterWireChange) {
  const geom::Rect changed = mutateWires();
  // The new wire overlaps old fills: DRC is broken before the ECO pass.
  EXPECT_FALSE(layout::DrcChecker(spec_.rules).check(chip_, 5).empty());
  fill::FillEngine(options_).runIncremental(chip_, changed);
  const auto violations = layout::DrcChecker(spec_.rules).check(chip_, 10);
  for (const auto& v : violations) {
    ADD_FAILURE() << v.str();
  }
}

TEST_F(EcoFillTest, DensityQualityStaysClose) {
  const layout::WindowGrid grid(chip_.die(), spec_.windowSize);
  const geom::Rect changed = mutateWires();
  fill::FillEngine(options_).runIncremental(chip_, changed);
  for (int l = 0; l < chip_.numLayers(); ++l) {
    const auto after =
        density::computeMetrics(density::DensityMap::compute(chip_, l, grid));
    // The block raised one window's floor; sigma may grow but must stay
    // far below the unfilled layout's (~0.06).
    EXPECT_LT(after.sigma, 0.03) << "layer " << l;
  }
}

TEST_F(EcoFillTest, MuchCheaperThanFullRerun) {
  const geom::Rect changed = mutateWires();
  const fill::FillReport eco =
      fill::FillEngine(options_).runIncremental(chip_, changed);
  // The tiny suite has 8x8 windows; the change touches ~1-4 of them, so
  // the ECO candidate count must be a small fraction of a full run's.
  layout::Layout fresh = contest::BenchmarkGenerator::generate(spec_);
  const fill::FillReport full = fill::FillEngine(options_).run(fresh);
  EXPECT_LT(eco.candidateCount * 4, full.candidateCount);
}

TEST_F(EcoFillTest, WindowCacheSkipsUnchangedWindowsByteIdentically) {
  // With a WindowCache attached, the full run deposits per-window results
  // and its target plans; the ECO pass must then serve every window whose
  // sizing inputs are unchanged from the cache -- and produce EXACTLY the
  // fills of an identical ECO pass that recomputes every window
  // (ecoWindowReuse = false is the A/B switch for that contract).
  fill::WindowCache cache;
  fill::FillEngineOptions cachedOptions = options_;
  cachedOptions.windowCache = &cache;
  layout::Layout cachedChip = contest::BenchmarkGenerator::generate(spec_);
  fill::FillEngine(cachedOptions).run(cachedChip);
  ASSERT_GT(cache.size(), 0u);

  // Same wire edit on the cached chip as mutateWires() applies to chip_.
  // Declare a change region one window wider than the edit: the ring
  // windows get re-solved with unchanged wires, which is exactly the case
  // the cache must serve.
  chip_ = cachedChip;
  const geom::Rect changed = mutateWires().expanded(spec_.windowSize);
  layout::Layout recomputeChip = chip_;

  const fill::FillReport served =
      fill::FillEngine(cachedOptions).runIncremental(chip_, changed);
  EXPECT_GT(served.ecoWindowsSkipped, 0u);

  fill::FillEngineOptions recomputeOptions = cachedOptions;
  recomputeOptions.ecoWindowReuse = false;
  const fill::FillReport recomputed =
      fill::FillEngine(recomputeOptions).runIncremental(recomputeChip,
                                                        changed);
  EXPECT_EQ(recomputed.ecoWindowsSkipped, 0u);

  for (int l = 0; l < chip_.numLayers(); ++l) {
    EXPECT_EQ(chip_.layer(l).fills, recomputeChip.layer(l).fills)
        << "layer " << l << " diverged between served and recomputed ECO";
  }

  // Quality and DRC must hold on the served result like any ECO pass.
  EXPECT_TRUE(layout::DrcChecker(spec_.rules).check(chip_, 5).empty());
  const layout::WindowGrid grid(chip_.die(), spec_.windowSize);
  for (int l = 0; l < chip_.numLayers(); ++l) {
    const auto after =
        density::computeMetrics(density::DensityMap::compute(chip_, l, grid));
    EXPECT_LT(after.sigma, 0.03) << "layer " << l;
  }
}

TEST_F(EcoFillTest, NoChangeIsNoOp) {
  // An ECO over an empty region (no wire edits) must keep the solution
  // essentially intact outside the designated windows and stay DRC-clean.
  std::size_t before = chip_.fillCount();
  fill::FillEngine(options_).runIncremental(chip_, {0, 0, 10, 10});
  EXPECT_TRUE(layout::DrcChecker(spec_.rules).check(chip_, 5).empty());
  // Fill count may differ slightly in the one re-filled corner window.
  EXPECT_NEAR(static_cast<double>(chip_.fillCount()),
              static_cast<double>(before), 60.0);
}

// ---- ECO golden digests ---------------------------------------------------
//
// runIncremental's output pinned to recorded per-layer fill digests over a
// fixed multi-edit sequence. The other ECO tests check properties
// (preservation, DRC, density closeness); these pin the exact bytes, so an
// optimisation of the ECO path must reproduce the previous implementation.
// The die is the tiny suite's widened by half a window, so the top and
// right window rows are edge-clipped.

struct EcoEdit {
  int layer;
  geom::Rect changed;   // declared change region passed to runIncremental
  geom::Coord dx, dy;   // shift applied to wires inside `changed`
};

struct EcoMode {
  bool pinned;  // WindowCache attached to the base run and every ECO
  int threads;
};

void PrintTo(const EcoMode& mode, std::ostream* os) {
  *os << (mode.pinned ? "pinned" : "legacy") << ", " << mode.threads
      << " threads";
}

// Shifts every wire of `edit.layer` that lies inside `edit.changed` before
// and after the move; returns how many changed position.
std::size_t applyEcoEdit(layout::Layout& chip, const EcoEdit& edit) {
  std::size_t moved = 0;
  for (geom::Rect& w : chip.layer(edit.layer).wires) {
    const geom::Rect shifted{w.xl + edit.dx, w.yl + edit.dy, w.xh + edit.dx,
                             w.yh + edit.dy};
    if (shifted != w && edit.changed.contains(w) &&
        edit.changed.contains(shifted)) {
      w = shifted;
      ++moved;
    }
  }
  return moved;
}

std::uint64_t fillDigest(const std::vector<geom::Rect>& fills) {
  Fnv1a64 h;
  h.u64(fills.size());
  for (const geom::Rect& f : fills) {
    h.i64(f.xl);
    h.i64(f.yl);
    h.i64(f.xh);
    h.i64(f.yh);
  }
  return h.digest();
}

class EcoGoldenTest : public ::testing::TestWithParam<EcoMode> {
 protected:
  static constexpr geom::Coord kW = 1200;  // window size
  static constexpr geom::Coord kS = 10;    // minSpacing of the tiny rules

  // Rect [i0, i1) x [j0, j1) in (possibly fractional) window units.
  static geom::Rect span(double i0, double j0, double i1, double j1) {
    auto at = [](double units) { return static_cast<geom::Coord>(units * kW); };
    return {at(i0), at(j0), at(i1), at(j1)};
  }

  static std::vector<EcoEdit> edits() {
    return {
        // One interior window.
        {0, span(2, 3, 3, 4).expanded(-2 * kS), 2 * kS, 0},
        // 2x2 windows around a window corner.
        {1, span(4.5, 1.5, 5.5, 2.5), 0, -2 * kS},
        // 3x3 windows.
        {2, span(1.5, 4.5, 3.5, 6.5), -2 * kS, 0},
        // Bottom-left die corner: touches two die edges, 1x2 windows.
        {0, {0, 0, kW - 2 * kS, 2 * kW - 2 * kS}, 0, 2 * kS},
        // Top-right corner: the edge-clipped windows of the widened die.
        {2, {7 * kW + 2 * kS, 7 * kW + 2 * kS, 8 * kW + kW / 2,
             8 * kW + kW / 2}, -2 * kS, -2 * kS},
        // A declared change whose layer moves no wire.
        {1, span(6, 5, 7, 6).expanded(-2 * kS), 0, 0},
        // Re-edit an already re-filled window on another layer.
        {1, span(2, 3, 3, 4).expanded(-2 * kS), 0, 2 * kS},
    };
  }

  // Per-layer fill digests after each edit: [edit][layer].
  static std::vector<std::vector<std::uint64_t>> runSequence(
      const EcoMode& mode) {
    contest::BenchmarkSpec spec = contest::BenchmarkGenerator::spec("tiny");
    spec.die = {0, 0, 8 * kW + kW / 2, 8 * kW + kW / 2};
    layout::Layout chip = contest::BenchmarkGenerator::generate(spec);
    fill::WindowCache cache;
    fill::FillEngineOptions options;
    options.windowSize = spec.windowSize;
    options.rules = spec.rules;
    options.numThreads = mode.threads;
    if (mode.pinned) options.windowCache = &cache;
    fill::FillEngine engine(options);
    engine.run(chip);

    std::vector<std::vector<std::uint64_t>> digests;
    for (const EcoEdit& edit : edits()) {
      const std::size_t moved = applyEcoEdit(chip, edit);
      EXPECT_EQ(moved == 0, edit.dx == 0 && edit.dy == 0);
      engine.runIncremental(chip, edit.changed);
      std::vector<std::uint64_t> layers;
      for (int l = 0; l < chip.numLayers(); ++l) {
        layers.push_back(fillDigest(chip.layer(l).fills));
      }
      digests.push_back(std::move(layers));
    }
    return digests;
  }
};

// Recorded from the whole-layout ECO implementation (legacy: frozen
// current-density sweep; pinned: WindowCache target plans).
const std::vector<std::vector<std::uint64_t>> kLegacyDigests = {
    {6018427524647586345ull, 14849989528363380158ull, 9215776800468135613ull},
    {17806344292948966536ull, 7999915573088379261ull, 14789778052727430073ull},
    {14675360598648406184ull, 9019245926272471995ull, 8758754038076294355ull},
    {10090774126064065517ull, 14093868532602055811ull, 18117996746848957544ull},
    {12279209473910372405ull, 9765109606275914343ull, 15782630003255831567ull},
    {3617900455008653377ull, 4482439479589624300ull, 5841567730708728475ull},
    {11361053616866727873ull, 12609241771562103489ull, 14264341664615184832ull},
};
const std::vector<std::vector<std::uint64_t>> kPinnedDigests = {
    {9262373193189062134ull, 15637051037769870880ull, 14175157110841325543ull},
    {9611747941334974942ull, 6963252936661509683ull, 13916451020848567363ull},
    {7514788877146081719ull, 11646765657483720522ull, 13985505492923906379ull},
    {9949524301393735630ull, 3925686259041460332ull, 4413437989148024270ull},
    {4265926165045444126ull, 11308635449650322659ull, 18223906744065051581ull},
    {2642022951825392390ull, 8481224504423026211ull, 86133287553141137ull},
    {4581271187868588035ull, 11511280892928356240ull, 11772667085054797483ull},
};

TEST_P(EcoGoldenTest, FillDigestsMatchRecorded) {
  const EcoMode mode = GetParam();
  const auto digests = runSequence(mode);
  const auto& expected = mode.pinned ? kPinnedDigests : kLegacyDigests;
  std::string got;  // printed on mismatch in the table's own syntax
  for (const auto& layers : digests) {
    got += "    {";
    for (const std::uint64_t d : layers) got += std::to_string(d) + "ull, ";
    got += "},\n";
  }
  ASSERT_EQ(digests.size(), expected.size()) << "digests:\n" << got;
  for (std::size_t e = 0; e < digests.size(); ++e) {
    EXPECT_EQ(digests[e], expected[e]) << "edit " << e << "; digests:\n"
                                       << got;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, EcoGoldenTest,
    ::testing::Values(EcoMode{false, 1}, EcoMode{false, 4},
                      EcoMode{true, 1}, EcoMode{true, 4}),
    [](const ::testing::TestParamInfo<EcoMode>& info) {
      return std::string(info.param.pinned ? "Pinned" : "Legacy") +
             std::to_string(info.param.threads) + "Threads";
    });

}  // namespace
}  // namespace ofl
