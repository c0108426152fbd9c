// Pipeline stage probe (docs/architecture.md, "Observability").
//
// obs::Stage is the one instrumentation primitive of the fill pipeline: an
// RAII scope that adds its thread-seconds and one call to its row of a
// fixed, process-global stage table and, when the site names a span,
// records that span through ScopedSpan. obs::count bumps the table's event
// counters. The table and the tracer each have their own switch, both OFF
// by default; a disabled probe costs one relaxed load per switch (a
// kernel-only probe, which names no span, skips the tracer's) and no
// clock reads.
//
// A stage's seconds are the SUM of the time every worker spent inside it
// (thread-seconds, not wall time), so on N threads a perfectly parallel
// stage shows up to N times the wall clock; calls disambiguates. The table
// renders as a human table or as JSON (`openfill fill --profile` /
// `--profile-json`), and MetricsRegistry::snapshot() reads it as the
// prof.<stage>.seconds|calls and prof.<counter> gauges.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "obs/trace.hpp"

namespace ofl::obs {

/// Rows of the stage table, in report order: engine stages, each followed
/// by the kernels nested inside it.
enum class StageId : int {
  kRegionPrep = 0,    // free-space regions + wire bucketing (engine stage 0)
  kDensityCompute,    // wire/current density map recomputation
  kBounds,            // per-window density bounds (Section 3.1)
  kPlanning,          // target-density planning (both rounds)
  kCandidates,        // per-window candidate generation (engine stage 2)
  kSharedRegion,      //   - Case I shared-region intersection (Fig. 4)
  kSlice,             //   - region slicing into candidate cells
  kOverlayScore,      //   - Eqn. 8 overlay scoring of even layers
  kRefine,            //   - hierarchical small-cell backfill
  kSizing,            // per-window fill sizing (engine stage 4)
  kOverlayMarginals,  //   - overlay marginals + close-pair search
  kMcfSolve,          //   - differential-LP / min-cost-flow solves
  kOutput,            // fill merge + layout output
  kCount
};

/// Event counters kept next to the stage rows.
enum class CounterId : int {
  kWindows = 0,        // window problems generated
  kCandidates,         // candidate fills emitted
  kIndexBuilds,        // spatial-index (re)builds
  kIndexQueries,       // spatial-index queries
  kMcfSolves,          // dual-LP solves
  kMcfNetworkReuses,   // solves that reused a cached network topology
  kMcfWarmStarts,      // solves warm-started from a previous basis
  kMcfEarlyExits,      // solves skipped via the sensitivity memo
  kEcoWindowsSkipped,  // ECO windows served from the window cache
  kCount
};

/// "region-prep", "mcf-solve", ... — the JSON key and metric name.
const char* stageName(StageId stage);
const char* counterName(CounterId counter);

class StageTable {
 public:
  static StageTable& instance();

  /// Collection switch. Probes are no-ops while disabled; enabling does
  /// NOT reset accumulated data (call reset() for a clean run).
  void setEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  static bool enabled() {
    return instance().enabled_.load(std::memory_order_relaxed);
  }

  void reset();

  void add(StageId stage, std::uint64_t nanos) {
    Row& row = rows_[static_cast<std::size_t>(stage)];
    row.calls.fetch_add(1, std::memory_order_relaxed);
    row.nanos.fetch_add(nanos, std::memory_order_relaxed);
  }
  void count(CounterId counter, std::uint64_t n) {
    counters_[static_cast<std::size_t>(counter)].fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t calls(StageId stage) const {
    return rows_[static_cast<std::size_t>(stage)].calls.load(
        std::memory_order_relaxed);
  }
  double seconds(StageId stage) const {
    return static_cast<double>(
               rows_[static_cast<std::size_t>(stage)].nanos.load(
                   std::memory_order_relaxed)) *
           1e-9;
  }
  std::uint64_t counter(CounterId counter) const {
    return counters_[static_cast<std::size_t>(counter)].load(
        std::memory_order_relaxed);
  }
  /// Aligned human-readable table (stage seconds, calls, counters).
  std::string human() const;
  /// {"stages": {name: {"seconds", "calls"}}, "counters": {name: n}} — the
  /// schema written by --profile-json, byte-stable under any C locale.
  std::string json() const;

 private:
  struct Row {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> nanos{0};
  };

  std::atomic<bool> enabled_{false};
  std::array<Row, static_cast<std::size_t>(StageId::kCount)> rows_;
  std::array<std::atomic<std::uint64_t>,
             static_cast<std::size_t>(CounterId::kCount)>
      counters_{};
};

/// Times one entry into `stage` and, when `span` is non-null, records it
/// as that span (a string literal, like every span name). Both halves
/// latch their switch at construction.
class Stage {
 public:
  explicit Stage(StageId stage, const char* span = nullptr,
                 const char* cat = "engine",
                 std::initializer_list<SpanArg> args = {})
      : span_(span, cat, args), stage_(stage), armed_(StageTable::enabled()) {
    if (armed_) start_ = std::chrono::steady_clock::now();
  }
  ~Stage() {
    if (armed_) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      StageTable::instance().add(stage_, static_cast<std::uint64_t>(ns));
    }
  }

  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

 private:
  ScopedSpan span_;
  StageId stage_;
  bool armed_;
  std::chrono::steady_clock::time_point start_;
};

/// Counter probe; a no-op while the stage table is disabled.
inline void count(CounterId counter, std::uint64_t n = 1) {
  if (StageTable::enabled()) StageTable::instance().count(counter, n);
}

}  // namespace ofl::obs
