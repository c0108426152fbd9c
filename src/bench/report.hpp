// Reading and comparing BENCH_*.json artifacts (openfill-bench-v1).
//
// Backs two CLI surfaces:
//   openfill bench-compare A.json B.json --fail-on-regression --threshold P
//     — per-series regression verdict using the stored bootstrap CIs;
//   openfill bench-report DIR
//     — markdown/HTML trend table over a directory of accumulated
//       artifacts, flagging series whose current CI excludes the
//       baseline mean.
//
// Gating rules (see compare()): a series regresses when its mean moved
// in the worse direction by more than the threshold AND the current CI
// excludes the baseline mean — so ordinary 1-core container jitter
// (inside the CI) never trips the gate, while a real slowdown (CI fully
// past baseline) always does. Wall-clock series are only gated when
// both artifacts carry the same machine fingerprint; ratio series
// (speedups, hit rates, counts) gate everywhere. A ratio series whose
// baseline and current CIs both have zero width (an exact work counter)
// regresses on any move in its worse direction, threshold or not.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ofl::bench {

/// One parsed series from a BENCH artifact.
struct SeriesDoc {
  std::string name;
  std::string unit;
  bool higherIsBetter = false;
  bool wallClock = true;
  std::vector<double> samples;
  std::size_t rejectedOutliers = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double stddev = 0.0;
  double median = 0.0;
  double ciLo = 0.0;
  double ciHi = 0.0;
  double ciLevel = 0.95;
};

/// One parsed BENCH_*.json document.
struct BenchDoc {
  std::string schema;
  std::string benchmark;
  std::string suite;
  long long createdUnix = 0;
  int reps = 0;
  int warmup = 0;
  std::string fingerprint;  // machine cpu "/" cores
  std::string gitSha;
  double peakRssMiB = 0.0;
  bool ok = true;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<SeriesDoc> series;
  std::string sourcePath;  // where it was loaded from ("" for fromJson)

  const SeriesDoc* find(const std::string& name) const;

  /// Parses an openfill-bench-v1 document; on failure returns false and
  /// sets `error`.
  static bool fromJson(const std::string& text, BenchDoc& out,
                       std::string& error);
  static bool load(const std::string& path, BenchDoc& out,
                   std::string& error);
};

enum class Verdict {
  kOk,           // within threshold or CI overlaps baseline mean
  kImproved,     // moved the good way and CI excludes baseline mean
  kRegressed,    // moved the bad way past threshold, CI excludes baseline
  kSkipped,      // wall-clock series across differing machines
  kMissing,      // present in baseline, absent in current
};

struct SeriesComparison {
  std::string name;
  Verdict verdict = Verdict::kOk;
  double baselineMean = 0.0;
  double currentMean = 0.0;
  double relativeDelta = 0.0;  // signed, >0 means worse for the series
  std::string detail;          // human one-liner
};

struct CompareResult {
  std::vector<SeriesComparison> series;
  std::size_t regressions = 0;
  std::size_t improvements = 0;
  std::size_t skipped = 0;
  std::size_t missing = 0;
  bool checksFailed = false;  // current doc has a failed check

  bool hasRegression() const { return regressions > 0 || missing > 0; }
};

/// Compares `current` against `baseline`. `threshold` is the relative
/// mean delta (0.05 = 5%) that must be exceeded, in the series' worse
/// direction, before the CI test is even consulted.
CompareResult compare(const BenchDoc& baseline, const BenchDoc& current,
                      double threshold);

/// Renders a compare result as an aligned text table (stdout of
/// bench-compare).
std::string renderCompareText(const BenchDoc& baseline,
                              const BenchDoc& current,
                              const CompareResult& result);

/// Trend report over accumulated artifacts. Documents are grouped by
/// (benchmark, suite); within each group the oldest document is the
/// baseline and the newest is the current row. Markdown by default,
/// HTML when `html` is set.
std::string renderTrendReport(std::vector<BenchDoc> docs, double threshold,
                              bool html);

}  // namespace ofl::bench
