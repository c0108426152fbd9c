// LayoutFuzzer: seed determinism, clean sweeps, repro round-trip, the
// shrinking minimizer against synthetic predicates, and replay of the
// committed corpus in tests/corpus/ (OFL_CORPUS_DIR).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "common/cancel.hpp"
#include "common/rng.hpp"
#include "verify/fuzzer.hpp"
#include "verify/layout_gen.hpp"
#include "verify/repro.hpp"

namespace ofl::verify {
namespace {

std::size_t wireCount(const FuzzCase& fuzzCase) {
  std::size_t n = 0;
  for (int l = 0; l < fuzzCase.layout.numLayers(); ++l) {
    n += fuzzCase.layout.layer(l).wires.size();
  }
  return n;
}

TEST(FuzzerGenerateTest, SameSeedSameCase) {
  const FuzzCase a = LayoutFuzzer::generate(42);
  const FuzzCase b = LayoutFuzzer::generate(42);
  EXPECT_EQ(writeRepro(a), writeRepro(b));
  const FuzzCase c = LayoutFuzzer::generate(43);
  EXPECT_NE(writeRepro(a), writeRepro(c));
}

TEST(FuzzerGenerateTest, CasesAreValid) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const FuzzCase fuzzCase = LayoutFuzzer::generate(seed);
    EXPECT_EQ(fuzzCase.seed, seed);
    EXPECT_FALSE(fuzzCase.layout.die().empty());
    EXPECT_GE(fuzzCase.layout.numLayers(), 1);
    EXPECT_GT(fuzzCase.engine.windowSize, 0);
    for (int l = 0; l < fuzzCase.layout.numLayers(); ++l) {
      for (const geom::Rect& w : fuzzCase.layout.layer(l).wires) {
        EXPECT_TRUE(fuzzCase.layout.die().contains(w));
      }
    }
  }
  // The shared rect helper with an edge bound above the extent: edges are
  // clamped to the extent, so every rect still fits.
  Rng rng(9);
  for (const geom::Coord extent : {1, 7, 60}) {
    const geom::Rect box{0, 0, extent, extent};
    for (int trial = 0; trial < 50; ++trial) {
      const geom::Rect r = testing::LayoutGen::randomRect(rng, extent, 80);
      EXPECT_FALSE(r.empty()) << "extent " << extent;
      EXPECT_TRUE(box.contains(r)) << "extent " << extent;
    }
  }
}

TEST(FuzzerRunTest, CleanSweepFindsNoFailures) {
  FuzzOptions options;
  options.firstSeed = 1;
  options.seeds = 12;
  options.checkDeterminism = false;  // 3x engine runs; keep the test fast
  const FuzzStats stats = LayoutFuzzer(options).run();
  EXPECT_EQ(stats.executed, 12);
  EXPECT_TRUE(stats.failures.empty());
  EXPECT_GT(stats.seconds, 0.0);
}

TEST(FuzzerRunTest, DeterminismCheckedSweep) {
  FuzzOptions options;
  options.firstSeed = 100;
  options.seeds = 3;
  options.checkDeterminism = true;
  const FuzzStats stats = LayoutFuzzer(options).run();
  EXPECT_EQ(stats.executed, 3);
  EXPECT_TRUE(stats.failures.empty());
}

TEST(ReproTest, RoundTripPreservesCase) {
  const FuzzCase original = LayoutFuzzer::generate(7);
  const std::string text = writeRepro(original);
  const auto parsed = readRepro(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seed, original.seed);
  EXPECT_EQ(parsed->layout.die(), original.layout.die());
  ASSERT_EQ(parsed->layout.numLayers(), original.layout.numLayers());
  for (int l = 0; l < original.layout.numLayers(); ++l) {
    EXPECT_EQ(parsed->layout.layer(l).wires, original.layout.layer(l).wires)
        << "layer " << l;
  }
  EXPECT_EQ(parsed->engine.windowSize, original.engine.windowSize);
  EXPECT_EQ(parsed->engine.rules.minWidth, original.engine.rules.minWidth);
  EXPECT_EQ(parsed->engine.rules.minSpacing, original.engine.rules.minSpacing);
  EXPECT_EQ(parsed->engine.rules.maxFillSize, original.engine.rules.maxFillSize);
  EXPECT_DOUBLE_EQ(parsed->engine.candidate.lambda,
                   original.engine.candidate.lambda);
  EXPECT_DOUBLE_EQ(parsed->engine.candidate.gamma,
                   original.engine.candidate.gamma);
  EXPECT_EQ(parsed->engine.candidate.uniformCells,
            original.engine.candidate.uniformCells);
  EXPECT_DOUBLE_EQ(parsed->engine.sizer.eta, original.engine.sizer.eta);
  EXPECT_EQ(parsed->engine.sizer.backend, original.engine.sizer.backend);
  EXPECT_EQ(parsed->engine.sizer.iterations, original.engine.sizer.iterations);
  // Re-serializing the parsed case is byte-stable.
  EXPECT_EQ(writeRepro(*parsed), text);
}

TEST(ReproTest, RejectsMalformedInput) {
  EXPECT_FALSE(readRepro("").has_value());
  EXPECT_FALSE(readRepro("not-a-repro v1\n").has_value());
  EXPECT_FALSE(readRepro("openfill-repro v1\nseed 1\n").has_value());  // no die
  EXPECT_FALSE(
      readRepro("openfill-repro v1\ndie 0 0 0 0\nlayers 1\nwindow 10\n")
          .has_value());  // empty die
}

TEST(ReproTest, ToleratesCommentsAndUnknownKeys) {
  const FuzzCase original = LayoutFuzzer::generate(9);
  std::string text = writeRepro(original);
  text += "# trailing comment\nfuture-key 1 2 3\n";
  const auto parsed = readRepro(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seed, original.seed);
}

TEST(ReproTest, FileRoundTrip) {
  const FuzzCase original = LayoutFuzzer::generate(11);
  const std::string path =
      (std::filesystem::temp_directory_path() / "ofl_repro_test.repro")
          .string();
  ASSERT_TRUE(writeReproFile(path, original));
  const auto parsed = readReproFile(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(writeRepro(*parsed), writeRepro(original));
  EXPECT_FALSE(readReproFile("/nonexistent/path.repro").has_value());
}

TEST(MinimizerTest, ShrinksToSingleCulpritWire) {
  // Synthetic bug: the case "fails" iff layer 0 still contains a wire
  // overlapping a magic hotspot. ddmin should discard everything else.
  FuzzCase fuzzCase = LayoutFuzzer::generate(5);
  const geom::Rect hotspot{100, 100, 160, 160};
  fuzzCase.layout.layer(0).wires.push_back(hotspot);
  const auto failing = [&hotspot](const FuzzCase& candidate) {
    if (candidate.layout.numLayers() < 1) return false;
    const auto& wires = candidate.layout.layer(0).wires;
    return std::any_of(wires.begin(), wires.end(), [&](const geom::Rect& w) {
      return w.overlaps(hotspot);
    });
  };
  ASSERT_TRUE(failing(fuzzCase));

  const FuzzCase minimized = LayoutFuzzer::minimize(fuzzCase, failing, 400);
  EXPECT_TRUE(failing(minimized));
  EXPECT_LT(wireCount(minimized), wireCount(fuzzCase));
  EXPECT_LE(wireCount(minimized), 2u);
  EXPECT_EQ(minimized.layout.numLayers(), 1);
  // The die is cropped around the surviving wires.
  EXPECT_LE(minimized.layout.die().area(), fuzzCase.layout.die().area());
}

TEST(MinimizerTest, AlwaysFailingPredicateShrinksToTiny) {
  const FuzzCase fuzzCase = LayoutFuzzer::generate(6);
  const auto alwaysFails = [](const FuzzCase&) { return true; };
  const FuzzCase minimized =
      LayoutFuzzer::minimize(fuzzCase, alwaysFails, 400);
  EXPECT_EQ(wireCount(minimized), 0u);
  EXPECT_EQ(minimized.layout.numLayers(), 1);
}

TEST(MinimizerTest, RespectsEvaluationBudget) {
  const FuzzCase fuzzCase = LayoutFuzzer::generate(8);
  int evaluations = 0;
  const auto countingPredicate = [&evaluations](const FuzzCase&) {
    ++evaluations;
    return true;
  };
  (void)LayoutFuzzer::minimize(fuzzCase, countingPredicate, 10);
  EXPECT_LE(evaluations, 10);
}

TEST(FuzzerFailureTest, EngineThrowSurfacesAsEngineRunFailure) {
  // A pre-cancelled token makes FillEngine::run throw CancelledError at
  // its first checkpoint; check() must catch it and report a failed
  // "engine-run" outcome instead of propagating.
  FuzzCase fuzzCase = LayoutFuzzer::generate(3);
  CancelToken cancelled;
  cancelled.cancel();
  fuzzCase.engine.cancel = &cancelled;
  const FuzzOutcome outcome = LayoutFuzzer::check(fuzzCase, false);
  EXPECT_FALSE(outcome.passed);
  EXPECT_EQ(outcome.check, "engine-run");
}

TEST(CorpusTest, CommittedReprosReplayClean) {
  const std::filesystem::path corpus(OFL_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::exists(corpus)) << corpus;
  int replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (entry.path().extension() != ".repro") continue;
    SCOPED_TRACE(entry.path().string());
    const auto fuzzCase = readReproFile(entry.path().string());
    ASSERT_TRUE(fuzzCase.has_value());
    const FuzzOutcome outcome = LayoutFuzzer::check(*fuzzCase, true);
    EXPECT_TRUE(outcome.passed)
        << outcome.check << ": " << outcome.detail;
    ++replayed;
  }
  // The corpus ships with at least one case; an empty directory would
  // silently skip the replay.
  EXPECT_GE(replayed, 1);
}

}  // namespace
}  // namespace ofl::verify
