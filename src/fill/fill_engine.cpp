#include "fill/fill_engine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/prof.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "density/bounds.hpp"
#include "density/density_map.hpp"
#include "density/metrics.hpp"
#include "layout/fill_region.hpp"
#include "obs/metrics.hpp"
#include "obs/quality.hpp"
#include "obs/trace.hpp"

namespace ofl::fill {

namespace {

// Cancellation checkpoint: no-op without a token. Called at stage
// boundaries and at the top of each per-window work item; a worker that
// throws CancelledError aborts the parallelFor (remaining indices are
// abandoned) and the pool rethrows it on the caller.
inline void checkCancel(const CancelToken* token) {
  if (token != nullptr) token->throwIfExpired();
}

// Quality-telemetry channel: final per-window density and planned-target
// gap per layer, computed from the solved window problems (wire density +
// fill area / window area — the same arithmetic the second planning round
// uses, so no extra geometry passes). Gated: runs only when metrics or
// tracing collection is on; pure observation, never part of the result.
void recordQualityTelemetry(const layout::WindowGrid& grid,
                            const std::vector<WindowProblem>& problems,
                            int numLayers, std::int64_t jobId) {
  if (!obs::metricsEnabled() && !obs::Tracer::enabled()) return;
  const auto numWindows = problems.size();
  std::vector<double> values(numWindows);
  for (int l = 0; l < numLayers; ++l) {
    const auto li = static_cast<std::size_t>(l);
    for (std::size_t w = 0; w < numWindows; ++w) {
      const WindowProblem& p = problems[w];
      geom::Area fillArea = 0;
      for (const geom::Rect& f : p.fills[li]) fillArea += f.area();
      const auto windowArea = static_cast<double>(p.window.area());
      const double d =
          windowArea > 0
              ? p.wireDensity[li] + static_cast<double>(fillArea) / windowArea
              : 0.0;
      values[w] = d;
      obs::recordWindowQuality(l + 1, d, std::abs(d - p.targetDensity[li]));
    }
    const density::DensityMap map(grid.cols(), grid.rows(), values);
    const density::DensityMetrics m = density::computeMetrics(map);
    obs::recordLayerQuality(l + 1, m.mean, m.sigma, m.lineHotspot,
                            m.outlierHotspot, jobId);
  }
}

// Engine-level throughput metrics shared by run() and runIncremental().
void recordRunMetrics(const FillReport& report) {
  if (!obs::metricsEnabled()) return;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.counter("engine.runs").add();
  reg.counter("engine.candidates").add(report.candidateCount);
  reg.counter("engine.fills").add(report.fillCount);
  reg.counter("engine.mcf_warm_starts")
      .add(static_cast<std::uint64_t>(report.sizerStats.warmStarts));
  reg.counter("engine.mcf_early_exits")
      .add(static_cast<std::uint64_t>(report.sizerStats.earlyExits));
  reg.counter("engine.eco_windows_skipped").add(report.ecoWindowsSkipped);
  reg.histogram("engine.run_seconds").observe(report.totalSeconds);
}

// ---- Window-cache fingerprints -----------------------------------------
//
// A window's fill result is a pure function of (a) the option fields that
// can change fills, (b) the window's geometry inputs, and (c) its
// candidate-stage and sizing-stage targets. (a)+(b)+candidate targets form
// the PREFIX key — candidate generation reads nothing else. The FINAL key
// adds the sizing-stage target goals; sizing additionally reads only the
// candidates, which the prefix already determines. Purity of (c) holds
// because the sizer's solves are canonicalized (see DualMcfContext), so
// no solver history can leak into the output.

std::uint64_t windowOptionsDigest(const FillEngineOptions& o) {
  Fnv1a64 h;
  h.i64(o.windowSize);
  h.i64(o.rules.minWidth);
  h.i64(o.rules.minSpacing);
  h.i64(o.rules.minArea);
  h.i64(o.rules.maxFillSize);
  h.f64(o.rules.maxDensity);
  h.f64(o.candidate.lambda);
  h.f64(o.candidate.gamma);
  h.boolean(o.candidate.lithoAvoid.has_value());
  if (o.candidate.lithoAvoid.has_value()) {
    h.i64(o.candidate.lithoAvoid->forbiddenLo);
    h.i64(o.candidate.lithoAvoid->forbiddenHi);
  }
  h.boolean(o.candidate.uniformCells);
  h.f64(o.sizer.eta);
  h.f64(o.sizer.etaWireFactor);
  h.i32(o.sizer.iterations);
  h.i32(static_cast<int>(o.sizer.backend));
  h.boolean(o.sizer.useLpSolver);
  return h.digest();
}

void hashRects(Fnv1a64& h, const std::vector<geom::Rect>& rects) {
  h.u64(rects.size());
  for (const geom::Rect& r : rects) {
    h.i64(r.xl);
    h.i64(r.yl);
    h.i64(r.xh);
    h.i64(r.yh);
  }
}

// Candidate-stage inputs; p.targetDensity must hold the candidate-stage
// targets when this is called.
std::uint64_t windowPrefixKey(std::uint64_t optionsDigest,
                              const WindowProblem& p) {
  Fnv1a64 h;
  h.u64(optionsDigest);
  h.i64(p.window.xl);
  h.i64(p.window.yl);
  h.i64(p.window.xh);
  h.i64(p.window.yh);
  h.u64(p.wires.size());
  for (std::size_t l = 0; l < p.wires.size(); ++l) {
    hashRects(h, p.wires[l]);
    hashRects(h, p.blocked[l]);
    hashRects(h, p.fillRegions[l].rects());
    h.f64(p.wireDensity[l]);
    h.f64(p.targetDensity[l]);
  }
  return h.digest();
}

// Full key: prefix + the sizing-stage target GOALS. Goals, not the final
// clamped values — the ECO path must derive the key before generating
// candidates, and the clamp bounds are themselves functions of the prefix
// inputs, so (prefix, goals) still determines the output.
std::uint64_t windowFinalKey(std::uint64_t prefix,
                             const std::vector<double>& sizingGoals) {
  Fnv1a64 h;
  h.u64(prefix);
  for (const double g : sizingGoals) h.f64(g);
  return h.digest();
}

}  // namespace

// Parallelization contract (docs/architecture.md, "Parallel execution"):
// every parallelFor below iterates an index space whose items are
// independent — layers in the region/density/bounds stages, windows in
// candidate generation and sizing. Workers only write to slot [index] of
// pre-sized vectors; all cross-item reductions (candidate counts, sizer
// stats, fill output) happen sequentially in index order afterwards, so
// the result is bit-identical for any thread count.

FillReport FillEngine::run(layout::Layout& layout) const {
  FillReport report;
  Timer total;
  const double jid = static_cast<double>(options_.jobId);
  obs::ScopedSpan runSpan("engine.run", "engine", {{"job", jid}});
  checkCancel(options_.cancel);
  layout.clearFills();

  const int numLayers = layout.numLayers();
  const layout::WindowGrid grid(layout.die(), options_.windowSize);
  const auto numWindows = static_cast<std::size_t>(grid.windowCount());
  ThreadPool pool(options_.numThreads);
  report.threadsUsed = pool.size();

  // --- Stage 0: fill regions, wire buckets, wire densities ---
  Timer stage;
  std::vector<std::vector<geom::Region>> fillRegions(
      static_cast<std::size_t>(numLayers));  // [layer][window]
  std::vector<std::vector<std::vector<geom::Rect>>> blockedBuckets(
      static_cast<std::size_t>(numLayers));
  std::vector<std::vector<std::vector<geom::Rect>>> wireBuckets(
      static_cast<std::size_t>(numLayers));
  std::vector<density::DensityMap> wireDensity(
      static_cast<std::size_t>(numLayers));
  {
    obs::ScopedSpan span("engine.region_prep", "engine", {{"job", jid}});
    pool.parallelFor(static_cast<std::size_t>(numLayers), [&](std::size_t l) {
      const int layer = static_cast<int>(l);
      {
        prof::ScopedTimer timer(prof::Stage::kRegionPrep);
        obs::ScopedSpan layerSpan(
            "layer.region_prep", "window",
            {{"job", jid}, {"layer", static_cast<double>(layer + 1)}});
        fillRegions[l] = layout::computeFillRegions(
            layout, layer, grid, options_.rules, &blockedBuckets[l]);
        wireBuckets[l] = grid.bucketClipped(layout.layer(layer).wires);
      }
      prof::ScopedTimer timer(prof::Stage::kDensityCompute);
      wireDensity[l] = density::DensityMap::computeFromShapes(
          layout.layer(layer).wires, grid);
    });
  }

  // --- Stage 1: density planning on the geometric bounds (Section 3.1) ---
  std::vector<density::DensityBounds> bounds(
      static_cast<std::size_t>(numLayers));
  const TargetDensityPlanner planner(options_.plannerWeights);
  TargetPlan plan;
  {
    obs::ScopedSpan span("engine.planning", "engine", {{"job", jid}});
    pool.parallelFor(static_cast<std::size_t>(numLayers), [&](std::size_t l) {
      prof::ScopedTimer timer(prof::Stage::kPlanning);
      bounds[l] = density::computeBounds(wireDensity[l], grid, fillRegions[l],
                                         options_.rules);
    });
    prof::ScopedTimer timer(prof::Stage::kPlanning);
    plan = planner.plan(bounds, grid.cols(), grid.rows());
  }
  report.planningSeconds += stage.elapsedSeconds();

  // With a window cache attached, remember the stage-1 plan (the ECO path
  // pins its candidate targets to it) and fingerprint each window as it is
  // assembled so the sizing results can be deposited afterwards.
  WindowCache* const cache = options_.windowCache;
  TargetPlan candidatePlan;
  if (cache != nullptr) candidatePlan = plan;
  const std::uint64_t optionsDigest =
      cache != nullptr ? windowOptionsDigest(options_) : 0;
  std::vector<std::uint64_t> prefixKeys(cache != nullptr ? numWindows : 0);
  std::vector<std::size_t> windowCandidates(cache != nullptr ? numWindows : 0);

  // --- Stage 2: per-window candidate generation (Section 3.2) ---
  stage.reset();
  std::vector<WindowProblem> problems(numWindows);
  const CandidateGenerator generator(options_.rules, options_.candidate);
  prof::count(prof::Counter::kWindows, numWindows);
  if (obs::metricsEnabled()) {
    obs::MetricsRegistry::instance().counter("engine.windows").add(numWindows);
  }
  {
    obs::ScopedSpan span("engine.candidates", "engine", {{"job", jid}});
    pool.parallelFor(numWindows, [&](std::size_t w) {
      checkCancel(options_.cancel);
      const int i = static_cast<int>(w) % grid.cols();
      const int j = static_cast<int>(w) / grid.cols();
      WindowProblem& p = problems[w];
      p.window = grid.windowRect(i, j);
      p.fillRegions.reserve(static_cast<std::size_t>(numLayers));
      p.wires.reserve(static_cast<std::size_t>(numLayers));
      p.blocked.reserve(static_cast<std::size_t>(numLayers));
      for (int l = 0; l < numLayers; ++l) {
        p.fillRegions.push_back(fillRegions[static_cast<std::size_t>(l)][w]);
        p.wires.push_back(wireBuckets[static_cast<std::size_t>(l)][w]);
        p.blocked.push_back(blockedBuckets[static_cast<std::size_t>(l)][w]);
        p.wireDensity.push_back(
            wireDensity[static_cast<std::size_t>(l)].at(i, j));
        p.targetDensity.push_back(
            plan.windowTarget[static_cast<std::size_t>(l)][w]);
      }
      if (cache != nullptr) prefixKeys[w] = windowPrefixKey(optionsDigest, p);
      // Worker-local scratch: buffers survive across the windows this
      // thread processes, then across runs in the same process.
      static thread_local CandidateGenerator::Scratch scratch;
      prof::ScopedTimer timer(prof::Stage::kCandidates);
      obs::ScopedSpan windowSpan(
          "window.candidates", "window",
          {{"job", jid}, {"w", static_cast<double>(w)}});
      generator.generate(p, scratch);
    });
  }
  for (std::size_t w = 0; w < numWindows; ++w) {
    std::size_t count = 0;
    for (const auto& layerFills : problems[w].fills) count += layerFills.size();
    report.candidateCount += count;
    if (cache != nullptr) windowCandidates[w] = count;
  }
  report.candidateSeconds += stage.elapsedSeconds();

  checkCancel(options_.cancel);

  // --- Stage 3: second density planning (Fig. 3) ---
  // Candidates cap what each window can actually reach; tighten the upper
  // bounds to the achieved candidate density and re-plan so the sizing
  // targets are consistent.
  stage.reset();
  for (int l = 0; l < numLayers; ++l) {
    auto& upper = bounds[static_cast<std::size_t>(l)].upper;
    for (std::size_t w = 0; w < numWindows; ++w) {
      const WindowProblem& p = problems[w];
      geom::Area candidateArea = 0;
      for (const geom::Rect& f : p.fills[static_cast<std::size_t>(l)]) {
        candidateArea += f.area();
      }
      const auto windowArea = static_cast<double>(p.window.area());
      const double reachable =
          windowArea > 0
              ? p.wireDensity[static_cast<std::size_t>(l)] +
                    static_cast<double>(candidateArea) / windowArea
              : 0.0;
      upper[w] = std::min(upper[w], reachable);
      upper[w] = std::max(upper[w], bounds[static_cast<std::size_t>(l)].lower[w]);
    }
  }
  {
    prof::ScopedTimer timer(prof::Stage::kPlanning);
    obs::ScopedSpan span("engine.replanning", "engine", {{"job", jid}});
    plan = planner.plan(bounds, grid.cols(), grid.rows());
  }
  for (std::size_t w = 0; w < numWindows; ++w) {
    for (int l = 0; l < numLayers; ++l) {
      problems[w].targetDensity[static_cast<std::size_t>(l)] =
          plan.windowTarget[static_cast<std::size_t>(l)][w];
    }
  }
  report.layerTargets = plan.layerTarget;
  report.planningSeconds += stage.elapsedSeconds();

  // --- Stage 4: fill sizing (Section 3.3) ---
  stage.reset();
  const FillSizer sizer(options_.rules, options_.sizer);
  std::vector<FillSizer::Stats> windowStats(numWindows);
  {
    obs::ScopedSpan span("engine.sizing", "engine", {{"job", jid}});
    pool.parallelFor(numWindows, [&](std::size_t w) {
      checkCancel(options_.cancel);
      static thread_local FillSizer::Scratch scratch;
      prof::ScopedTimer timer(prof::Stage::kSizing);
      obs::ScopedSpan windowSpan(
          "window.sizing", "window",
          {{"job", jid}, {"w", static_cast<double>(w)}});
      sizer.size(problems[w], scratch, &windowStats[w]);
    });
  }
  for (const FillSizer::Stats& s : windowStats) report.sizerStats.add(s);
  report.sizingSeconds += stage.elapsedSeconds();

  // Deposit every window's solved fills and both target plans; the final
  // key adds the sizing-stage targets (p.targetDensity holds the stage-3
  // replan values by now) on top of the candidate-stage prefix.
  if (cache != nullptr) {
    for (std::size_t w = 0; w < numWindows; ++w) {
      const WindowProblem& p = problems[w];
      cache->insert(windowFinalKey(prefixKeys[w], p.targetDensity),
                    WindowCache::Entry{p.fills, windowCandidates[w]});
    }
    cache->storePlan(
        {grid.cols(), grid.rows(), numLayers, candidatePlan, plan});
  }

  // --- Output ---
  {
    prof::ScopedTimer timer(prof::Stage::kOutput);
    obs::ScopedSpan span("engine.output", "engine", {{"job", jid}});
    for (const WindowProblem& p : problems) {
      for (int l = 0; l < numLayers; ++l) {
        auto& out = layout.layer(l).fills;
        const auto& fs = p.fills[static_cast<std::size_t>(l)];
        out.insert(out.end(), fs.begin(), fs.end());
      }
    }
  }
  recordQualityTelemetry(grid, problems, numLayers, options_.jobId);
  report.fillCount = layout.fillCount();
  report.totalSeconds = total.elapsedSeconds();
  report.profile = prof::Registry::instance().snapshot();
  recordRunMetrics(report);
  logInfo("FillEngine: %zu fills from %zu candidates in %.2fs "
          "(plan %.2fs, cand %.2fs, size %.2fs, %d threads)",
          report.fillCount, report.candidateCount, report.totalSeconds,
          report.planningSeconds, report.candidateSeconds,
          report.sizingSeconds, report.threadsUsed);
  return report;
}

FillReport FillEngine::runIncremental(layout::Layout& layout,
                                      const geom::Rect& changed) const {
  FillReport report;
  Timer total;
  const double jid = static_cast<double>(options_.jobId);
  obs::ScopedSpan runSpan("engine.eco", "engine", {{"job", jid}});
  checkCancel(options_.cancel);
  const int numLayers = layout.numLayers();
  const auto nl = static_cast<std::size_t>(numLayers);
  const layout::WindowGrid grid(layout.die(), options_.windowSize);
  const auto numWindows = static_cast<std::size_t>(grid.windowCount());

  // Affected windows: everything the changed area (inflated by the
  // spacing rule, since a moved wire blocks space across a window border)
  // touches. They form the window rectangle [i0, i1] x [j0, j1]; slot a of
  // every per-affected-window array is its a-th window in flat order.
  int i0, j0, i1, j1;
  grid.windowRange(changed.expanded(options_.rules.minSpacing), i0, j0, i1,
                   j1);
  std::vector<char> affected(numWindows, 0);
  std::vector<std::size_t> affectedIndices;
  std::vector<geom::Rect> affectedRects;
  for (int j = j0; j <= j1; ++j) {
    for (int i = i0; i <= i1; ++i) {
      const auto w = static_cast<std::size_t>(grid.flatIndex(i, j));
      affected[w] = 1;
      affectedIndices.push_back(w);
      affectedRects.push_back(grid.windowRect(i, j));
    }
  }
  const std::size_t numAffected = affectedIndices.size();
  const double windowsArg = static_cast<double>(numAffected);

  // Pinned-target mode: when the attached window cache carries the target
  // plans of a full run() on this exact grid shape, pin the ECO targets to
  // those plans (clamped into fresh wire-only bounds) instead of
  // re-sweeping. Windows whose sizing inputs are unchanged then reproduce
  // the depositing run's fingerprints byte-for-byte and are served from
  // the cache without re-running candidate generation or sizing.
  WindowCache* const cache = options_.windowCache;
  WindowCache::StoredPlan stored;
  const bool pinned =
      cache != nullptr &&
      cache->getPlan(grid.cols(), grid.rows(), numLayers, stored);

  // Prep, local to the affected windows: their wire and blocked buckets,
  // fill regions, wire densities and fresh bounds, indexed [layer][a].
  // A window's clips depend only on the rects that touch it, so these
  // equal what computeFillRegions, bucketClipped and computeBounds give
  // the same windows over the whole grid. Only the legacy mode's frozen
  // current-density map stays whole-layout.
  //
  // The pool starts inside the prep span and is joined inside the refill
  // span, so the three stage spans account for the whole ECO run.
  Timer stage;
  std::optional<ThreadPool> pool;
  std::vector<std::vector<geom::Region>> fillRegions(nl);
  std::vector<std::vector<std::vector<geom::Rect>>> blockedBuckets(nl);
  std::vector<std::vector<std::vector<geom::Rect>>> wireBuckets(nl);
  std::vector<std::vector<double>> wireDensity(
      nl, std::vector<double>(numAffected));
  std::vector<density::DensityBounds> bounds(nl);
  {
    obs::ScopedSpan span("engine.eco_prep", "engine",
                         {{"job", jid}, {"windows", windowsArg}});
    pool.emplace(options_.numThreads);
    report.threadsUsed = pool->size();
    // Drop the old fills of affected windows (a fill belongs to exactly
    // one window by construction).
    for (int l = 0; l < numLayers; ++l) {
      auto& fills = layout.layer(l).fills;
      fills.erase(std::remove_if(fills.begin(), fills.end(),
                                 [&](const geom::Rect& f) {
                                   int fi0, fj0, fi1, fj1;
                                   grid.windowRange(f, fi0, fj0, fi1, fj1);
                                   return affected[static_cast<std::size_t>(
                                              grid.flatIndex(fi0, fj0))] != 0;
                                 }),
                  fills.end());
    }

    pool->parallelFor(nl, [&](std::size_t l) {
      const int layer = static_cast<int>(l);
      {
        prof::ScopedTimer timer(prof::Stage::kRegionPrep);
        wireBuckets[l] = grid.bucketClipped(layout.layer(layer).wires, i0, j0,
                                            i1, j1);
        blockedBuckets[l] = grid.bucketClipped(
            layout::inflatedWires(layout, layer, options_.rules), i0, j0, i1,
            j1);
        fillRegions[l].resize(numAffected);
        for (std::size_t a = 0; a < numAffected; ++a) {
          fillRegions[l][a] =
              layout::windowFillRegion(affectedRects[a], blockedBuckets[l][a]);
        }
      }
      // Legacy mode plans with unaffected windows frozen at their current
      // density: their lower and upper bounds collapse to the as-filled
      // value, so the target sweep can only adapt the affected windows.
      // Pinned mode clamps the stored targets into the affected windows'
      // fresh bounds exactly as the depositing run did, and reads no
      // other window's (targets are not re-swept, so they cannot drift);
      // those stay 0.
      auto& b = bounds[l];
      b.lower.assign(numWindows, 0.0);
      b.upper.assign(numWindows, 0.0);
      for (std::size_t a = 0; a < numAffected; ++a) {
        const geom::Area windowArea = affectedRects[a].area();
        wireDensity[l][a] =
            density::windowDensity(wireBuckets[l][a], windowArea);
        const density::WindowBound fresh = density::computeWindowBound(
            wireDensity[l][a], windowArea, fillRegions[l][a], options_.rules);
        b.lower[affectedIndices[a]] = fresh.lower;
        b.upper[affectedIndices[a]] = fresh.upper;
      }
      if (pinned) return;
      prof::ScopedTimer timer(prof::Stage::kDensityCompute);
      const density::DensityMap current =
          density::DensityMap::compute(layout, layer, grid);
      for (std::size_t w = 0; w < numWindows; ++w) {
        if (affected[w] != 0) continue;
        b.lower[w] = current.values()[w];
        b.upper[w] = current.values()[w];
      }
    });
  }
  const TargetDensityPlanner planner(options_.plannerWeights);
  // Pinned mode plans CANDIDATE targets from the stored stage-1 plan; the
  // sizing targets are re-derived per affected window below, mirroring
  // run()'s stage-3 per-window arithmetic. Legacy mode keeps the single
  // frozen-bounds sweep for both roles.
  const TargetPlan plan = [&] {
    obs::ScopedSpan span("engine.eco_plan", "engine",
                         {{"job", jid}, {"windows", windowsArg}});
    prof::ScopedTimer timer(prof::Stage::kPlanning);
    return pinned ? planner.planPinned(stored.candidate, bounds)
                  : planner.plan(bounds, grid.cols(), grid.rows());
  }();
  report.layerTargets = pinned ? stored.sizing.layerTarget : plan.layerTarget;
  report.planningSeconds += stage.elapsedSeconds();

  // Candidate generation + sizing for affected windows only: solve each
  // affected window into its own slot, then merge in window order.
  stage.reset();
  obs::ScopedSpan refillSpan("engine.eco_refill", "engine",
                             {{"job", jid}, {"windows", windowsArg}});
  const CandidateGenerator generator(options_.rules, options_.candidate);
  const FillSizer sizer(options_.rules, options_.sizer);
  const std::uint64_t optionsDigest =
      pinned ? windowOptionsDigest(options_) : 0;
  std::vector<WindowProblem> problems(numAffected);
  std::vector<FillSizer::Stats> windowStats(numAffected);
  std::vector<char> served(numAffected, 0);
  pool->parallelFor(numAffected, [&](std::size_t a) {
    checkCancel(options_.cancel);
    const std::size_t w = affectedIndices[a];
    WindowProblem& p = problems[a];
    p.window = affectedRects[a];
    for (std::size_t l = 0; l < nl; ++l) {
      p.fillRegions.push_back(std::move(fillRegions[l][a]));
      p.wires.push_back(std::move(wireBuckets[l][a]));
      p.blocked.push_back(std::move(blockedBuckets[l][a]));
      p.wireDensity.push_back(wireDensity[l][a]);
      p.targetDensity.push_back(plan.windowTarget[l][w]);
    }
    static thread_local CandidateGenerator::Scratch generatorScratch;
    static thread_local FillSizer::Scratch sizerScratch;
    obs::ScopedSpan windowSpan("window.refill", "window",
                               {{"job", jid}, {"w", static_cast<double>(w)}});
    std::uint64_t key = 0;
    if (pinned) {
      // Content-addressed lookup: prefix over the candidate-stage inputs
      // just assembled, final key adding the stored sizing-target goals
      // (raw, pre-clamp — the same values the depositing run keyed with).
      const std::uint64_t prefix = windowPrefixKey(optionsDigest, p);
      std::vector<double> goals(static_cast<std::size_t>(numLayers));
      for (int l = 0; l < numLayers; ++l) {
        goals[static_cast<std::size_t>(l)] =
            stored.sizing.windowTarget[static_cast<std::size_t>(l)][w];
      }
      key = windowFinalKey(prefix, goals);
      WindowCache::Entry entry;
      if (options_.ecoWindowReuse && cache->lookup(key, entry)) {
        p.fills = std::move(entry.fills);
        served[a] = 1;
        return;
      }
    }
    {
      prof::ScopedTimer timer(prof::Stage::kCandidates);
      generator.generate(p, generatorScratch);
    }
    std::size_t candidates = 0;
    if (pinned) {
      // Re-derive this window's sizing targets exactly as run()'s stage 3
      // does: tighten the upper bound to the achieved candidate density,
      // then clamp the stored goal into the tightened band.
      for (const auto& layerFills : p.fills) candidates += layerFills.size();
      for (int l = 0; l < numLayers; ++l) {
        const auto li = static_cast<std::size_t>(l);
        geom::Area candidateArea = 0;
        for (const geom::Rect& f : p.fills[li]) candidateArea += f.area();
        const auto windowArea = static_cast<double>(p.window.area());
        const double reachable =
            windowArea > 0 ? p.wireDensity[li] +
                                 static_cast<double>(candidateArea) / windowArea
                           : 0.0;
        double upper = std::min(bounds[li].upper[w], reachable);
        upper = std::max(upper, bounds[li].lower[w]);
        p.targetDensity[li] = std::clamp(stored.sizing.windowTarget[li][w],
                                         bounds[li].lower[w], upper);
      }
    }
    {
      prof::ScopedTimer timer(prof::Stage::kSizing);
      sizer.size(p, sizerScratch, &windowStats[a]);
    }
    if (pinned) cache->insert(key, WindowCache::Entry{p.fills, candidates});
  });
  pool.reset();
  for (std::size_t a = 0; a < problems.size(); ++a) {
    const WindowProblem& p = problems[a];
    if (served[a] != 0) {
      ++report.ecoWindowsSkipped;
    } else {
      for (const auto& layerFills : p.fills) {
        report.candidateCount += layerFills.size();
      }
      report.sizerStats.add(windowStats[a]);
    }
    for (int l = 0; l < numLayers; ++l) {
      auto& out = layout.layer(l).fills;
      const auto& fs = p.fills[static_cast<std::size_t>(l)];
      out.insert(out.end(), fs.begin(), fs.end());
    }
  }
  prof::count(prof::Counter::kEcoWindowsSkipped, report.ecoWindowsSkipped);
  report.sizingSeconds += stage.elapsedSeconds();
  report.fillCount = layout.fillCount();
  report.totalSeconds = total.elapsedSeconds();
  report.profile = prof::Registry::instance().snapshot();
  recordRunMetrics(report);
  logInfo("FillEngine ECO: refilled affected windows in %.3fs (%zu fills)",
          report.totalSeconds, report.fillCount);
  return report;
}

}  // namespace ofl::fill
