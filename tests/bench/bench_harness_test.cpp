// Tests for the shared benchmark harness (src/bench/): statistics
// determinism, MAD outlier rejection, bootstrap CI behaviour, the
// BENCH_*.json schema round-trip through bench/report, warmup
// suppression, the bench-compare regression verdicts + exit codes, and
// the committed baselines the CI regression gate compares against.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "bench/report.hpp"
#include "bench/stats.hpp"
#include "cli/args.hpp"
#include "cli/commands.hpp"

namespace ofl::bench {
namespace {

namespace fs = std::filesystem;

TEST(BenchStatsTest, ComputeStatsIsDeterministic) {
  const std::vector<double> samples = {1.0, 1.2, 0.9, 1.1, 1.05, 0.95};
  const SeriesStats a = computeStats(samples);
  const SeriesStats b = computeStats(samples);
  // Bit-identical, not approximately equal: the bootstrap RNG is seeded.
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.ciLo, b.ciLo);
  EXPECT_EQ(a.ciHi, b.ciHi);
  EXPECT_EQ(a.rejectedOutliers, b.rejectedOutliers);
}

TEST(BenchStatsTest, PlantedSpikeIsRejected) {
  // 9 well-behaved samples near 1.0 plus one 50x spike (a GC pause, a
  // scheduler preemption): the spike must not drag the mean.
  std::vector<double> samples = {1.00, 1.02, 0.98, 1.01, 0.99,
                                 1.03, 0.97, 1.00, 1.01, 50.0};
  const SeriesStats s = computeStats(samples);
  EXPECT_EQ(s.rejectedOutliers, 1u);
  EXPECT_EQ(s.kept(), 9u);
  EXPECT_NEAR(s.mean, 1.0, 0.05);
  EXPECT_LT(s.max, 2.0);
}

TEST(BenchStatsTest, ZeroMadSkipsRejection) {
  // All-identical samples make MAD == 0; the modified z-score is
  // undefined there and nothing may be rejected.
  const std::vector<double> samples = {5.0, 5.0, 5.0, 7.0};
  const SeriesStats s = computeStats(samples);
  EXPECT_EQ(s.rejectedOutliers, 0u);
  EXPECT_EQ(s.kept(), 4u);
}

TEST(BenchStatsTest, TinySamplesAreNeverRejected) {
  const std::vector<double> samples = {1.0, 100.0};
  const SeriesStats s = computeStats(samples);
  EXPECT_EQ(s.rejectedOutliers, 0u);
}

TEST(BenchStatsTest, CiBracketsTheMeanOnKnownDistribution) {
  // Uniform-ish spread 1..40: the bootstrap CI must contain the sample
  // mean, sit inside [min, max], and be a proper interval.
  std::vector<double> samples;
  for (int i = 1; i <= 40; ++i) samples.push_back(static_cast<double>(i));
  const SeriesStats s = computeStats(samples);
  EXPECT_NEAR(s.mean, 20.5, 1e-9);
  EXPECT_LE(s.ciLo, s.mean);
  EXPECT_GE(s.ciHi, s.mean);
  EXPECT_LT(s.ciLo, s.ciHi);
  EXPECT_GE(s.ciLo, s.min);
  EXPECT_LE(s.ciHi, s.max);
  // ~95% CI of the mean of 40 uniform samples is a few units wide; it
  // must be much tighter than the full range.
  EXPECT_LT(s.ciHi - s.ciLo, 10.0);
}

TEST(BenchStatsTest, SingleSampleHasDegenerateCi) {
  const SeriesStats s = computeStats({3.25});
  EXPECT_EQ(s.mean, 3.25);
  EXPECT_EQ(s.ciLo, 3.25);
  EXPECT_EQ(s.ciHi, 3.25);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(BenchHarnessTest, WarmupRoundsRunButNeverRecord) {
  Harness::Options o;
  o.name = "unit";
  o.reps = 2;
  o.warmup = 1;
  Harness h(o);
  Series& s = h.series("t_s", "s");
  int executions = 0;
  h.runInterleaved({[&] {
    ++executions;
    s.record(1.0);
  }});
  // The body paid the cold round; the series did not see it.
  EXPECT_EQ(executions, 3);
  EXPECT_EQ(s.samples().size(), 2u);
}

TEST(BenchHarnessTest, SchemaRoundTripsThroughReport) {
  Harness::Options o;
  o.name = "unit";
  o.suite = "s";
  o.reps = 3;
  o.warmup = 0;
  Harness h(o);
  Series& wall = h.series("wall_s", "s");
  Series& speedup =
      h.series("speedup", "x", Direction::kHigherIsBetter, Scale::kRatio);
  h.runInterleaved({[&] {
    wall.record(1.5);
    speedup.record(2.0);
  }});
  h.param("fills", static_cast<std::int64_t>(1234));
  h.param("label", "round-trip");
  h.check("identical", true);
  h.check("budget_held", false);

  BenchDoc doc;
  std::string error;
  ASSERT_TRUE(BenchDoc::fromJson(h.json(), doc, error)) << error;
  EXPECT_EQ(doc.schema, "openfill-bench-v1");
  EXPECT_EQ(doc.benchmark, "unit");
  EXPECT_EQ(doc.suite, "s");
  EXPECT_EQ(doc.reps, 3);
  EXPECT_FALSE(doc.ok);  // one failed check
  EXPECT_GT(doc.peakRssMiB, 0.0);
  EXPECT_EQ(doc.fingerprint, h.machine().fingerprint());

  const SeriesDoc* w = doc.find("wall_s");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->samples.size(), 3u);
  EXPECT_EQ(w->mean, 1.5);
  EXPECT_FALSE(w->higherIsBetter);
  EXPECT_TRUE(w->wallClock);
  const SeriesDoc* r = doc.find("speedup");
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->higherIsBetter);
  EXPECT_FALSE(r->wallClock);

  // Key order through the JSON object is not guaranteed; look up by name.
  ASSERT_EQ(doc.checks.size(), 2u);
  bool sawIdentical = false, sawBudget = false;
  for (const auto& [name, ok] : doc.checks) {
    if (name == "identical") {
      sawIdentical = true;
      EXPECT_TRUE(ok);
    } else if (name == "budget_held") {
      sawBudget = true;
      EXPECT_FALSE(ok);
    }
  }
  EXPECT_TRUE(sawIdentical);
  EXPECT_TRUE(sawBudget);
}

// Writes a one-series artifact whose three samples sit around `center`.
std::string writeArtifact(const fs::path& dir, const std::string& file,
                          double center) {
  Harness::Options o;
  o.name = "cmp";
  o.reps = 3;
  o.warmup = 0;
  Harness h(o);
  Series& s = h.series("t_s", "s");
  h.runInterleaved({[&] { s.record(center); }});
  // Nudge one extra sample so the CI is a real (but tight) interval.
  s.record(center * 1.001);
  const fs::path p = dir / file;
  std::ofstream out(p);
  out << h.json();
  return p.string();
}

class BenchCompareTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "ofl_bench_cmp_test";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_F(BenchCompareTest, CleanRerunExitsZero) {
  const std::string base = writeArtifact(dir_, "base.json", 1.0);
  const std::string cur = writeArtifact(dir_, "cur.json", 1.0);
  const int rc = cli::run(cli::Args::parse(
      {"bench-compare", base, cur, "--fail-on-regression"}));
  EXPECT_EQ(rc, 0);
}

TEST_F(BenchCompareTest, InjectedSlowdownExitsNonzero) {
  const std::string base = writeArtifact(dir_, "base.json", 1.0);
  const std::string cur = writeArtifact(dir_, "cur.json", 2.0);
  const int rc = cli::run(cli::Args::parse(
      {"bench-compare", base, cur, "--fail-on-regression"}));
  EXPECT_NE(rc, 0);
  // Without the gate flag the verdict is reported but the exit is clean.
  EXPECT_EQ(cli::run(cli::Args::parse({"bench-compare", base, cur})), 0);
}

TEST_F(BenchCompareTest, CompareVerdictsRespectDirectionAndCi) {
  BenchDoc base, fast;
  std::string error;
  ASSERT_TRUE(
      BenchDoc::load(writeArtifact(dir_, "b.json", 1.0), base, error));
  ASSERT_TRUE(
      BenchDoc::load(writeArtifact(dir_, "f.json", 0.5), fast, error));
  const CompareResult slower = compare(base, fast, 0.05);
  ASSERT_EQ(slower.series.size(), 1u);
  EXPECT_EQ(slower.series[0].verdict, Verdict::kImproved);
  EXPECT_FALSE(slower.hasRegression());

  const CompareResult worse = compare(fast, base, 0.05);
  EXPECT_EQ(worse.series[0].verdict, Verdict::kRegressed);
  EXPECT_TRUE(worse.hasRegression());
}

TEST_F(BenchCompareTest, MissingSeriesCountsAsRegression) {
  BenchDoc base;
  std::string error;
  ASSERT_TRUE(
      BenchDoc::load(writeArtifact(dir_, "b.json", 1.0), base, error));
  BenchDoc current = base;
  current.series.clear();
  const CompareResult r = compare(base, current, 0.05);
  EXPECT_EQ(r.missing, 1u);
  EXPECT_TRUE(r.hasRegression());
}

// Writes an artifact with one exact ratio-scale counter: three identical
// samples, so its CI has zero width.
std::string writeCounterArtifact(const fs::path& dir, const std::string& file,
                                 const std::string& name, Direction direction,
                                 double value) {
  Harness::Options o;
  o.name = "cmp";
  o.reps = 3;
  o.warmup = 0;
  Harness h(o);
  Series& s = h.series(name, "count", direction, Scale::kRatio);
  h.runInterleaved({[&] { s.record(value); }});
  const fs::path p = dir / file;
  std::ofstream out(p);
  out << h.json();
  return p.string();
}

TEST_F(BenchCompareTest, ExactCounterRegressesOnAnyWorseMove) {
  const auto gate = [](const std::string& base, const std::string& cur) {
    return cli::run(cli::Args::parse({"bench-compare", base, cur,
                                      "--fail-on-regression", "--threshold",
                                      "0.10"}));
  };
  const auto lower = Direction::kLowerIsBetter;
  const std::string base =
      writeCounterArtifact(dir_, "b.json", "index-queries", lower, 1000);
  EXPECT_EQ(gate(base, writeCounterArtifact(dir_, "same.json",
                                            "index-queries", lower, 1000)),
            0);
  // +5% is inside the 10% threshold, but an exact counter has no noise.
  EXPECT_NE(gate(base, writeCounterArtifact(dir_, "up.json", "index-queries",
                                            lower, 1050)),
            0);
  EXPECT_EQ(gate(base, writeCounterArtifact(dir_, "down.json",
                                            "index-queries", lower, 950)),
            0);

  // Higher-is-better counters regress on any drop.
  const auto higher = Direction::kHigherIsBetter;
  const std::string warm =
      writeCounterArtifact(dir_, "w.json", "mcf-warm-starts", higher, 1408);
  EXPECT_NE(gate(warm, writeCounterArtifact(dir_, "w2.json", "mcf-warm-starts",
                                            higher, 1407)),
            0);

  // A zero baseline still gates.
  const std::string zero =
      writeCounterArtifact(dir_, "z.json", "fallbacks", lower, 0);
  EXPECT_NE(gate(zero, writeCounterArtifact(dir_, "z2.json", "fallbacks",
                                            lower, 2)),
            0);

  // The verdict names the move.
  BenchDoc b, c;
  std::string error;
  ASSERT_TRUE(BenchDoc::load(base, b, error)) << error;
  ASSERT_TRUE(BenchDoc::load((dir_ / "up.json").string(), c, error)) << error;
  const CompareResult r = compare(b, c, 0.10);
  ASSERT_EQ(r.series.size(), 1u);
  EXPECT_EQ(r.series[0].verdict, Verdict::kRegressed);
}

TEST_F(BenchCompareTest, NoisyRatioSeriesKeepsTheThreshold) {
  // A ratio series with a real CI still moves freely inside --threshold.
  const auto write = [&](const std::string& file, double center) {
    Harness::Options o;
    o.name = "cmp";
    o.reps = 3;
    o.warmup = 0;
    Harness h(o);
    Series& s = h.series("speedup", "x", Direction::kHigherIsBetter,
                         Scale::kRatio);
    h.runInterleaved({[&] { s.record(center); }});
    s.record(center * 1.001);
    const fs::path p = dir_ / file;
    std::ofstream out(p);
    out << h.json();
    return p.string();
  };
  const std::string base = write("b.json", 2.0);
  const std::string cur = write("c.json", 1.9);  // 5% worse
  EXPECT_EQ(cli::run(cli::Args::parse({"bench-compare", base, cur,
                                       "--fail-on-regression", "--threshold",
                                       "0.10"})),
            0);
}

// CI's perf-smoke job gates every bench named in its
// `for b in ...; do bench-compare bench/baselines/BENCH_$b.json ...` loop.
// A baseline missing from the repo makes that gate exit 2 on every run,
// so each one must be committed and parse as openfill-bench-v1.
TEST(BenchBaselinesTest, EveryBaselineTheCiGateNamesExistsAndParses) {
  const fs::path root = OFL_SOURCE_DIR;
  std::ifstream ci(root / ".github" / "workflows" / "ci.yml");
  ASSERT_TRUE(ci.good()) << "cannot read the CI workflow";
  std::vector<std::string> names;
  for (std::string line; std::getline(ci, line);) {
    const std::size_t loop = line.find("for b in ");
    const std::size_t body = line.find("; do");
    if (loop == std::string::npos || body == std::string::npos) continue;
    std::istringstream list(line.substr(loop + 9, body - loop - 9));
    for (std::string name; list >> name;) names.push_back(name);
  }
  ASSERT_FALSE(names.empty()) << "no baseline loop found in ci.yml";
  for (const std::string& name : names) {
    const fs::path path = root / "bench" / "baselines" /
                          ("BENCH_" + name + ".json");
    BenchDoc doc;
    std::string error;
    ASSERT_TRUE(BenchDoc::load(path.string(), doc, error))
        << path << ": " << error;
    EXPECT_EQ(doc.schema, "openfill-bench-v1") << path;
    EXPECT_EQ(doc.benchmark, name) << path;
    EXPECT_FALSE(doc.series.empty()) << path;
  }
}

}  // namespace
}  // namespace ofl::bench
