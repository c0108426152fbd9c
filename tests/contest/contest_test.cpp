#include <gtest/gtest.h>

#include "contest/benchmark_generator.hpp"
#include "contest/evaluator.hpp"
#include "contest/score_table.hpp"
#include "common/rng.hpp"
#include "density/bounds.hpp"
#include "gds/gds_writer.hpp"
#include "layout/fill_region.hpp"
#include "layout/drc_checker.hpp"
#include "layout/window_grid.hpp"

namespace ofl::contest {
namespace {

TEST(ScoreTableTest, ScoreFunctionEqn4) {
  const ScoreCoefficients c{0.2, 10.0};
  EXPECT_DOUBLE_EQ(c.score(0.0), 1.0);
  EXPECT_DOUBLE_EQ(c.score(5.0), 0.5);
  EXPECT_DOUBLE_EQ(c.score(10.0), 0.0);
  EXPECT_DOUBLE_EQ(c.score(25.0), 0.0);  // clamped at zero
}

TEST(ScoreTableTest, AlphasMatchPublishedTable2) {
  for (const char* suite : {"s", "b", "m"}) {
    const ScoreTable t = scoreTableFor(suite);
    EXPECT_DOUBLE_EQ(t.overlay.alpha, 0.2);
    EXPECT_DOUBLE_EQ(t.variation.alpha, 0.2);
    EXPECT_DOUBLE_EQ(t.line.alpha, 0.2);
    EXPECT_DOUBLE_EQ(t.outlier.alpha, 0.15);
    EXPECT_DOUBLE_EQ(t.size.alpha, 0.05);
    EXPECT_DOUBLE_EQ(t.runtime.alpha, 0.15);
    EXPECT_DOUBLE_EQ(t.memory.alpha, 0.05);
  }
}

TEST(BenchmarkGeneratorTest, DeterministicPerSeed) {
  const BenchmarkSpec spec = BenchmarkGenerator::spec("s");
  const layout::Layout a = BenchmarkGenerator::generate(spec);
  const layout::Layout b = BenchmarkGenerator::generate(spec);
  ASSERT_EQ(a.wireCount(), b.wireCount());
  for (int l = 0; l < a.numLayers(); ++l) {
    EXPECT_EQ(a.layer(l).wires, b.layer(l).wires);
  }
}

TEST(BenchmarkGeneratorTest, GenerateStreamEmitsExactlyGenerateInOrder) {
  // generate() is a thin wrapper over generateStream(); the streamed
  // emission (layer-major, wire order) is what `openfill generate --stream`
  // and bench_scale write, so the two must stay in lockstep.
  const BenchmarkSpec spec = BenchmarkGenerator::spec("s");
  const layout::Layout batch = BenchmarkGenerator::generate(spec);

  int lastLayer = 0;
  std::vector<std::vector<geom::Rect>> streamed(
      static_cast<std::size_t>(spec.numLayers));
  BenchmarkGenerator::generateStream(
      spec, [&](int l, const geom::Rect& wire) {
        EXPECT_GE(l, lastLayer);  // layer-major emission order
        lastLayer = l;
        streamed[static_cast<std::size_t>(l)].push_back(wire);
      });

  ASSERT_EQ(batch.numLayers(), spec.numLayers);
  for (int l = 0; l < batch.numLayers(); ++l) {
    EXPECT_EQ(streamed[static_cast<std::size_t>(l)], batch.layer(l).wires)
        << "layer " << l;
  }
}

TEST(BenchmarkGeneratorTest, XlSpecIsContestScale) {
  const BenchmarkSpec xl = BenchmarkGenerator::spec("xl");
  const BenchmarkSpec m = BenchmarkGenerator::spec("m");
  EXPECT_EQ(xl.name, "xl");
  EXPECT_GT(xl.die.area(), m.die.area());
  // xl is generated and filled streamingly; pin the die so BENCH_scale
  // numbers stay comparable across runs.
  EXPECT_EQ(xl.die.xh - xl.die.xl, 160 * 1200);
}

TEST(BenchmarkGeneratorTest, SuiteSizesOrdered) {
  const auto s = BenchmarkGenerator::generate(BenchmarkGenerator::spec("s"));
  const auto b = BenchmarkGenerator::generate(BenchmarkGenerator::spec("b"));
  EXPECT_GT(s.wireCount(), 1000u);
  EXPECT_GT(b.wireCount(), s.wireCount());
}

TEST(BenchmarkGeneratorTest, WiresAreDrcCleanAndInDie) {
  const BenchmarkSpec spec = BenchmarkGenerator::spec("s");
  const layout::Layout chip = BenchmarkGenerator::generate(spec);
  for (int l = 0; l < chip.numLayers(); ++l) {
    for (const auto& w : chip.layer(l).wires) {
      EXPECT_TRUE(chip.die().contains(w)) << w.str();
      EXPECT_GE(w.width(), spec.rules.minWidth);
      EXPECT_GE(w.height(), spec.rules.minWidth);
    }
  }
}

TEST(BenchmarkGeneratorTest, DensityIsNonUniform) {
  const BenchmarkSpec spec = BenchmarkGenerator::spec("s");
  const layout::Layout chip = BenchmarkGenerator::generate(spec);
  const layout::WindowGrid grid(chip.die(), spec.windowSize);
  const auto areas = grid.coveredAreaPerWindow(chip.layer(0).wires);
  geom::Area lo = areas[0];
  geom::Area hi = areas[0];
  for (geom::Area a : areas) {
    lo = std::min(lo, a);
    hi = std::max(hi, a);
  }
  // Hotspots and channels must differ substantially for the benchmark to
  // exercise the density metrics.
  EXPECT_GT(static_cast<double>(hi),
            3.0 * std::max<double>(static_cast<double>(lo), 1.0));
}

TEST(EvaluatorTest, EmptyLayoutScoresPerfectDensity) {
  layout::Layout chip({0, 0, 1000, 1000}, 2);
  const Evaluator eval(500, scoreTableFor("s"), layout::DesignRules{});
  const RawMetrics raw = eval.measure(chip);
  EXPECT_DOUBLE_EQ(raw.variation, 0.0);
  EXPECT_DOUBLE_EQ(raw.line, 0.0);
  EXPECT_DOUBLE_EQ(raw.outlier, 0.0);
  EXPECT_DOUBLE_EQ(raw.overlay, 0.0);
  EXPECT_EQ(raw.fillCount, 0u);
}

TEST(EvaluatorTest, FileSizeEqualsStreamSizeOfToGds) {
  // measure() sizes the flat GDS in closed form from the rect counts; it
  // must equal what serializing toGds() would write.
  const Evaluator eval(500, scoreTableFor("s"), layout::DesignRules{});
  Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    const int layers = static_cast<int>(rng.uniformInt(0, 4));
    layout::Layout chip({0, 0, 1000, 1000}, layers);
    for (int l = 0; l < layers; ++l) {
      const auto wires = rng.uniformInt(0, 30);
      const auto fills = rng.uniformInt(0, 30);
      for (std::int64_t k = 0; k < wires + fills; ++k) {
        const auto x = static_cast<geom::Coord>(rng.uniformInt(-50, 950));
        const auto y = static_cast<geom::Coord>(rng.uniformInt(-50, 950));
        auto& bucket = k < wires ? chip.layer(l).wires : chip.layer(l).fills;
        bucket.push_back({x, y, x + 40, y + 30});
      }
    }
    const long long expected = gds::Writer::streamSize(chip.toGds());
    EXPECT_EQ(chip.gdsStreamSize(), expected);
    EXPECT_EQ(eval.measure(chip).fileSizeMB,
              static_cast<double>(expected) / 1e6);
  }
}

TEST(EvaluatorTest, OverlayCountsOnlyFillInduced) {
  layout::Layout chip({0, 0, 1000, 1000}, 2);
  // Pre-existing wire-wire overlap must NOT be charged.
  chip.layer(0).wires.push_back({0, 0, 100, 100});
  chip.layer(1).wires.push_back({0, 0, 100, 100});
  const Evaluator eval(500, scoreTableFor("s"), layout::DesignRules{});
  EXPECT_DOUBLE_EQ(eval.measure(chip).overlay, 0.0);

  // A fill overlapping the upper wire IS charged.
  chip.layer(0).fills.push_back({200, 200, 300, 300});
  chip.layer(1).wires.push_back({250, 200, 350, 300});
  EXPECT_DOUBLE_EQ(eval.measure(chip).overlay, 50.0 * 100.0);
}

TEST(EvaluatorTest, FillFillOverlayCounted) {
  layout::Layout chip({0, 0, 1000, 1000}, 2);
  chip.layer(0).fills.push_back({0, 0, 100, 100});
  chip.layer(1).fills.push_back({50, 0, 150, 100});
  const Evaluator eval(500, scoreTableFor("s"), layout::DesignRules{});
  EXPECT_DOUBLE_EQ(eval.measure(chip).overlay, 50.0 * 100.0);
}

TEST(EvaluatorTest, OverlaySpanningWindowBorderCountedOnce) {
  layout::Layout chip({0, 0, 1000, 1000}, 2);
  chip.layer(0).fills.push_back({400, 400, 600, 600});  // crosses border 500
  chip.layer(1).wires.push_back({400, 400, 600, 600});
  const Evaluator eval(500, scoreTableFor("s"), layout::DesignRules{});
  EXPECT_DOUBLE_EQ(eval.measure(chip).overlay, 200.0 * 200.0);
}

TEST(EvaluatorTest, QualityAndScoreComposition) {
  ScoreTable t = scoreTableFor("s");
  const Evaluator eval(500, t, layout::DesignRules{});
  RawMetrics raw;  // all-zero raws -> every quality score is 1
  const ScoreBreakdown s = eval.score(raw, /*runtime=*/0.0, /*memory=*/0.0);
  EXPECT_NEAR(s.quality, 0.2 + 0.2 + 0.2 + 0.15 + 0.05, 1e-12);
  EXPECT_NEAR(s.total, 1.0, 1e-12);

  // Runtime at beta zeroes the runtime term only.
  const ScoreBreakdown s2 = eval.score(raw, t.runtime.beta, 0.0);
  EXPECT_NEAR(s2.total, 1.0 - 0.15, 1e-12);
  EXPECT_NEAR(s2.quality, s.quality, 1e-12);
}

TEST(EvaluatorTest, OverlayMapLocalizesCoupling) {
  layout::Layout chip({0, 0, 1000, 1000}, 2);
  // Fill-over-wire overlap only in the lower-left window.
  chip.layer(0).fills.push_back({100, 100, 300, 300});
  chip.layer(1).wires.push_back({200, 100, 400, 300});
  const Evaluator eval(500, scoreTableFor("s"), layout::DesignRules{});
  const density::DensityMap map = eval.overlayMap(chip, 0);
  ASSERT_EQ(map.cols(), 2);
  ASSERT_EQ(map.rows(), 2);
  EXPECT_NEAR(map.at(0, 0), 100.0 * 200 / (500.0 * 500), 1e-12);
  EXPECT_DOUBLE_EQ(map.at(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(map.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(map.at(1, 1), 0.0);
}

TEST(EvaluatorTest, OverlayMapSumsToRawOverlay) {
  layout::Layout chip({0, 0, 1000, 1000}, 2);
  chip.layer(0).fills.push_back({100, 100, 700, 250});  // spans windows
  chip.layer(1).wires.push_back({0, 0, 1000, 1000});
  chip.layer(0).wires.push_back({0, 400, 900, 480});
  const Evaluator eval(500, scoreTableFor("s"), layout::DesignRules{});
  const RawMetrics raw = eval.measure(chip);
  const density::DensityMap map = eval.overlayMap(chip, 0);
  double sum = 0.0;
  for (int j = 0; j < map.rows(); ++j) {
    for (int i = 0; i < map.cols(); ++i) {
      sum += map.at(i, j) * 500.0 * 500.0;
    }
  }
  EXPECT_NEAR(sum, raw.overlay, 1e-6);
}

TEST(EvaluatorTest, OverlayMapLastLayerIsZero) {
  layout::Layout chip({0, 0, 1000, 1000}, 2);
  chip.layer(1).fills.push_back({0, 0, 100, 100});
  const Evaluator eval(500, scoreTableFor("s"), layout::DesignRules{});
  const density::DensityMap map = eval.overlayMap(chip, 1);
  for (double v : map.values()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(BoundsTest, MaxDensityRuleCapsUpperBound) {
  layout::Layout chip({0, 0, 100, 100}, 1);
  chip.layer(0).wires.push_back({0, 0, 100, 30});  // density 0.3
  const layout::WindowGrid grid(chip.die(), 100);
  layout::DesignRules rules;
  rules.minWidth = 4;
  rules.minSpacing = 4;
  rules.minArea = 16;
  rules.maxDensity = 0.55;
  const auto regions = layout::computeFillRegions(chip, 0, grid, rules);
  const auto bounds = density::computeBounds(chip, 0, grid, regions, rules);
  EXPECT_NEAR(bounds.upper[0], 0.55, 1e-12);
  // Wires above the cap: bound degrades gracefully to the wire density.
  rules.maxDensity = 0.2;
  const auto bounds2 = density::computeBounds(chip, 0, grid, regions, rules);
  EXPECT_NEAR(bounds2.upper[0], 0.3, 1e-12);
}

TEST(EvaluatorTest, DrcViolationsSurface) {
  layout::Layout chip({0, 0, 1000, 1000}, 1);
  layout::DesignRules rules;
  rules.minWidth = 10;
  rules.minArea = 150;
  chip.layer(0).fills.push_back({0, 0, 5, 100});  // too thin
  const Evaluator eval(500, scoreTableFor("s"), rules);
  EXPECT_GT(eval.measure(chip).drcViolations, 0u);
}

}  // namespace
}  // namespace ofl::contest
