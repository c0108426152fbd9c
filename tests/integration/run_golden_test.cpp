// FillEngine::run pinned to recorded per-layer fill digests. The other
// engine tests check properties (DRC, density, cross-thread equality);
// this one pins the exact output on suite s and on generated layouts, so a
// refactor or optimisation of the fill pipeline must reproduce the bytes
// of the implementation the digests were recorded from.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "contest/benchmark_generator.hpp"
#include "fill/fill_engine.hpp"
#include "verify/layout_gen.hpp"

namespace ofl {
namespace {

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

std::vector<std::uint64_t> runDigests(layout::Layout chip,
                                      fill::FillEngineOptions options,
                                      int threads) {
  options.numThreads = threads;
  fill::FillEngine(options).run(chip);
  std::vector<std::uint64_t> layers;
  for (int l = 0; l < chip.numLayers(); ++l) {
    layers.push_back(fillDigest(chip.layer(l).fills));
  }
  return layers;
}

// Suite s under its own window size and rules.
std::vector<std::uint64_t> suiteDigests(int threads) {
  const contest::BenchmarkSpec spec = contest::BenchmarkGenerator::spec("s");
  fill::FillEngineOptions options;
  options.windowSize = spec.windowSize;
  options.rules = spec.rules;
  return runDigests(contest::BenchmarkGenerator::generate(spec), options,
                    threads);
}

// Generated layouts dense enough that per-window neighbour sets cross the
// spatial-index threshold, so both the indexed and the small-input brute
// scans run.
std::vector<std::uint64_t> generatedDigests(std::uint64_t seed, int threads) {
  Rng rng(seed);
  testing::LayoutGen::LayoutParams params;
  params.minDieExtent = 1200;
  params.maxDieExtent = 2400;
  params.minLayers = 2;
  params.maxLayers = 3;
  params.minWiresPerLayer = 20;
  params.maxWiresPerLayer = 90;
  fill::FillEngineOptions options;
  options.windowSize = 600;
  options.rules.minWidth = 10;
  options.rules.minSpacing = 10;
  options.rules.minArea = 150;
  options.rules.maxFillSize = 200;
  return runDigests(testing::LayoutGen::randomLayout(rng, params), options,
                    threads);
}

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5, 6};

// Recorded from the engine with the std::map sweep, the brute-scan
// configs and the full-refresh pivot option still present: [case][layer],
// suite s first, then one row per entry of kSeeds.
const std::vector<std::vector<std::uint64_t>> kDigests = {
    {12174481153934066739ull, 5333349110408793887ull, 13965373748761612029ull},
    {2538164623915691987ull, 9764439000661660318ull},
    {8874105144291314487ull, 9567361913218123561ull, 15932506096612109820ull},
    {14914402748949612235ull, 8460511560325093479ull},
    {18386629427960615394ull, 8536508328137482329ull},
    {6868284906062438492ull, 5824495989893523728ull},
    {17145549842901435324ull, 13418599404170333594ull, 6823351814053542498ull},
};

class RunGoldenTest : public ::testing::TestWithParam<int> {};

TEST_P(RunGoldenTest, FillDigestsMatchRecorded) {
  setLogLevel(LogLevel::kWarn);
  const int threads = GetParam();
  std::vector<std::vector<std::uint64_t>> digests = {suiteDigests(threads)};
  for (const std::uint64_t seed : kSeeds) {
    digests.push_back(generatedDigests(seed, threads));
  }
  std::string got;  // printed on mismatch in the table's own syntax
  for (const auto& layers : digests) {
    got += "    {";
    for (const std::uint64_t d : layers) got += std::to_string(d) + "ull, ";
    got += "},\n";
  }
  ASSERT_EQ(digests.size(), kDigests.size()) << "digests:\n" << got;
  for (std::size_t c = 0; c < digests.size(); ++c) {
    EXPECT_EQ(digests[c], kDigests[c]) << "case " << c << "; digests:\n"
                                       << got;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, RunGoldenTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param) + "Threads";
                         });

}  // namespace
}  // namespace ofl
