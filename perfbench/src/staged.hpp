// FillEngine::run decomposed into its public layer calls, for the traced
// per-layer run. Every stage is one span, opened by the benchmark around
// the call into its layer; the program itself is not instrumented.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "cli/args.hpp"
#include "common/thread_pool.hpp"
#include "fill/fill_engine.hpp"
#include "layout/layout.hpp"
#include "workload.hpp"

namespace perfbench {

struct StagedRun {
  /// (stage, wall seconds) in execution order: region_prep, wire_map,
  /// bounds, plan, candidates, replan, sizing, output.
  std::vector<std::pair<std::string, double>> stages;
  /// Wall seconds of each window's FillSizer::size call.
  std::vector<double> sizingWindowSeconds;
  ofl::fill::FillSizer::Stats sizer;
  std::size_t candidates = 0;

  double totalSeconds() const;
};

/// Fills `chip` exactly as FillEngine(options).run(chip) does, stage by
/// stage through `pool` (options.numThreads is ignored); each stage is
/// one Span of `round`.
StagedRun runStaged(ofl::layout::Layout& chip,
                    const ofl::fill::FillEngineOptions& options,
                    ofl::ThreadPool& pool, int round);

/// `perfbench trace`: the traced per-layer run (trace.cpp).
int runTrace(const ofl::cli::Args& args);

}  // namespace perfbench
