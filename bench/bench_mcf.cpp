// MCF warm-start / early-exit study: the solver-level A/B behind the
// sizer's default-on warm starts.
//
// Two measurements, both gated on byte-identical results:
//
//  1. Solver level: fill-sizing-shaped differential LP sequences (each
//     "window" solves H1,V1,H2,V2 — round 2 repeats the topology with
//     perturbed costs, the exact pattern FillSizer emits) are replayed
//     through three context configurations — cold (network reuse only),
//     warm (basis reuse), warm+early (sensitivity memo). Per-solve ns come
//     from here, and the warm-start and early-exit counts, which are exact
//     functions of the replayed sequences, are ratio-scale series that
//     gate on every machine.
//
//  2. Engine level: a contest suite is filled, sizer warm+early ON vs
//     OFF, single-threaded, and the sizing-stage thread-seconds are
//     compared. This is the end-to-end "dominant stage" speedup.
//
// Speedups are relative to the cold configuration. The harness
// interleaves configurations within each rep so load spikes land on every
// config evenly, and discards shared warmup rounds. The bench exits
// nonzero when any config diverges or when no warm start fired (the CI
// perf-smoke gate). Results go to BENCH_mcf.json.
//
// Usage: bench_mcf [suite] [reps] [--reps N] [--warmup N] [--out F]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "contest/benchmark_generator.hpp"
#include "fill/fill_engine.hpp"
#include "mcf/dual_lp.hpp"
#include "obs/stage.hpp"

using namespace ofl;
using namespace ofl::mcf;

namespace {

// Fill-sizing-shaped differential LP: n fills in a row, each with lo/hi
// edge variables, min-width constraints and spacing constraints to the
// next fill — the structure FillSizer emits.
DifferentialLp sizingShapedLp(int fills, std::uint64_t seed) {
  Rng rng(seed);
  DifferentialLp lp;
  Value cursor = 0;
  for (int f = 0; f < fills; ++f) {
    const Value width = rng.uniformInt(40, 120);
    const Value height = rng.uniformInt(40, 120);
    const Value shrink = 25;
    const int lo = lp.addVariable(-height, cursor, cursor + shrink);
    const int hi =
        lp.addVariable(height, cursor + width - shrink, cursor + width);
    lp.addConstraint(hi, lo, 10);
    if (f > 0) lp.addConstraint(lo, hi - 3, 10);  // spacing to previous hi
    cursor += width + rng.uniformInt(5, 30);
  }
  return lp;
}

// Same topology, costs nudged — a "round 2" solve. Every third sequence
// keeps its costs, which is what lets the early-exit memo fire.
DifferentialLp perturbCosts(const DifferentialLp& base, std::uint64_t seed,
                            bool keepCosts) {
  Rng rng(seed);
  DifferentialLp lp;
  for (int v = 0; v < base.numVariables(); ++v) {
    const Value dc = keepCosts ? 0 : rng.uniformInt(-15, 15);
    lp.addVariable(base.cost(v) + dc, base.lower(v), base.upper(v));
  }
  for (const DiffConstraint& c : base.constraints()) {
    lp.addConstraint(c.i, c.j, c.bound);
  }
  return lp;
}

struct SolverRun {
  double seconds = 0.0;
  long long solves = 0;
  long long warmStarts = 0;
  long long earlyExits = 0;
  std::uint64_t xHash = 0;  // FNV over every solve's x, in order
};

// Replays every sequence (4 solves each) through fresh contexts with the
// given options; one context per sequence, exactly like the sizer's
// per-(layer,direction) contexts.
SolverRun replay(const std::vector<std::vector<DifferentialLp>>& sequences,
                 bool warm, bool early) {
  SolverRun run;
  std::uint64_t h = 1469598103934665603ull;
  Timer t;
  for (const auto& seq : sequences) {
    DualMcfContext context(
        DualMcfContext::Options{McfBackend::kNetworkSimplex, warm, early, 0});
    for (const DifferentialLp& lp : seq) {
      const DiffLpResult r = context.solve(lp);
      ++run.solves;
      if (r.usedWarmStart) ++run.warmStarts;
      if (r.usedEarlyExit) ++run.earlyExits;
      for (const Value v : r.x) {
        h ^= static_cast<std::uint64_t>(v);
        h *= 1099511628211ull;
      }
    }
  }
  run.seconds = t.elapsedSeconds();
  run.xHash = h;
  return run;
}

// Engine-level sizing A/B on one suite, single-threaded.
struct EngineRun {
  double sizingSeconds = 0.0;
  double wall = 0.0;
  long long solves = 0;
  long long warmStarts = 0;
  long long earlyExits = 0;
  std::size_t fills = 0;
  std::uint64_t hash = 0;
};

std::uint64_t fillHash(const layout::Layout& chip) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](geom::Coord v) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ull;
  };
  for (int l = 0; l < chip.numLayers(); ++l) {
    for (const geom::Rect& f : chip.layer(l).fills) {
      mix(f.xl);
      mix(f.yl);
      mix(f.xh);
      mix(f.yh);
    }
  }
  return h;
}

EngineRun engineOnce(const layout::Layout& original,
                     const contest::BenchmarkSpec& spec, bool warm) {
  layout::Layout chip = original;
  fill::FillEngineOptions o;
  o.windowSize = spec.windowSize;
  o.rules = spec.rules;
  o.numThreads = 1;
  o.sizer.mcfWarmStart = warm;
  o.sizer.mcfEarlyExit = warm;
  obs::StageTable::instance().reset();
  EngineRun run;
  Timer t;
  const fill::FillReport report = fill::FillEngine(o).run(chip);
  run.wall = t.elapsedSeconds();
  run.sizingSeconds =
      obs::StageTable::instance().seconds(obs::StageId::kSizing);
  run.solves = report.sizerStats.solves;
  run.warmStarts = report.sizerStats.warmStarts;
  run.earlyExits = report.sizerStats.earlyExits;
  run.fills = report.fillCount;
  run.hash = fillHash(chip);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  setLogLevel(LogLevel::kWarn);
  using namespace ofl::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv, "s", 3);

  // --- Solver-level replay ---
  const int kSequences = 400;
  const int kFills = 24;
  std::vector<std::vector<DifferentialLp>> sequences;
  sequences.reserve(kSequences);
  for (int s = 0; s < kSequences; ++s) {
    const auto seed = static_cast<std::uint64_t>(s) * 7919 + 11;
    const bool repeatCosts = (s % 3 == 0);
    const DifferentialLp h1 = sizingShapedLp(kFills, seed);
    const DifferentialLp v1 = sizingShapedLp(kFills, seed + 1);
    // H2/V2 repeat the round-1 topology with nudged (or repeated) costs.
    std::vector<DifferentialLp> seq;
    seq.push_back(h1);
    seq.push_back(perturbCosts(h1, seed + 2, repeatCosts));
    seq.push_back(v1);
    seq.push_back(perturbCosts(v1, seed + 3, repeatCosts));
    sequences.push_back(std::move(seq));
  }

  Harness h(args.harnessOptions("mcf"));
  const contest::BenchmarkSpec spec =
      contest::BenchmarkGenerator::spec(args.suite);
  h.param("suite", spec.name);
  h.param("sequences", static_cast<std::int64_t>(kSequences));
  h.param("fills_per_lp", static_cast<std::int64_t>(kFills));

  // "cold" has only the always-on solver improvements; "warm" and
  // "warm+early" add the optional reuse layers.
  struct SolverSlot {
    const char* config;
    bool warm, early;
    Series* seconds;
    SolverRun last;
    std::uint64_t refHash = 0;
    bool haveRef = false;
    bool identical = true;
  };
  std::vector<SolverSlot> solver = {
      {"cold", false, false, nullptr, {}},
      {"warm", true, false, nullptr, {}},
      {"warm_early", true, true, nullptr, {}},
  };
  for (SolverSlot& s : solver) {
    s.seconds = &h.series(std::string("solver_") + s.config + "_s", "s");
  }
  std::vector<std::function<void()>> solverBodies;
  solverBodies.reserve(solver.size());
  for (SolverSlot& s : solver) {
    solverBodies.push_back([&s, &sequences] {
      const SolverRun r = replay(sequences, s.warm, s.early);
      if (!s.haveRef) {
        s.refHash = r.xHash;
        s.haveRef = true;
      } else if (r.xHash != s.refHash) {
        s.identical = false;
      }
      s.seconds->record(r.seconds);
      s.last = r;
    });
  }
  h.runInterleaved(solverBodies);

  bool solverIdentical = true;
  for (const SolverSlot& s : solver) {
    if (!s.identical || s.last.xHash != solver.front().last.xHash) {
      solverIdentical = false;
    }
  }

  std::printf("== MCF replay: %d sequences x 4 solves, %d fills each, "
              "%d reps + %d warmup ==\n",
              kSequences, kFills, args.reps, args.warmup);
  for (const SolverSlot& s : solver) {
    const SolverRun& r = s.last;
    const double ns =
        r.solves > 0 ? r.seconds * 1e9 / static_cast<double>(r.solves) : 0.0;
    std::printf("  %-10s %8.3f ms  %6lld solves  %5lld warm  %5lld early  "
                "%7.0f ns/solve\n",
                s.config, r.seconds * 1e3, r.solves, r.warmStarts,
                r.earlyExits, ns);
  }
  std::printf("  solutions %s\n",
              solverIdentical ? "BYTE-IDENTICAL" : "DIVERGED (BUG!)");

  h.recordRatio("solver_warm_speedup", *solver[0].seconds,
                *solver[1].seconds);
  h.recordRatio("solver_warm_early_speedup", *solver[0].seconds,
                *solver[2].seconds);
  h.series("solver_warm_starts", "count", Direction::kHigherIsBetter,
           Scale::kRatio)
      .record(static_cast<double>(solver[1].last.warmStarts));
  h.series("solver_early_exits", "count", Direction::kHigherIsBetter,
           Scale::kRatio)
      .record(static_cast<double>(solver[2].last.earlyExits));

  // --- Engine-level sizing A/B ---
  const layout::Layout original = contest::BenchmarkGenerator::generate(spec);
  struct EngineSlot {
    const char* config;
    bool warm;
    Series* sizing;
    Series* wall;
    EngineRun last;
    std::uint64_t refHash = 0;
    std::size_t refFills = 0;
    bool haveRef = false;
    bool identical = true;
  };
  std::vector<EngineSlot> engine = {
      {"cold", false, nullptr, nullptr, {}},
      {"warm", true, nullptr, nullptr, {}},
  };
  for (EngineSlot& e : engine) {
    e.sizing = &h.series(std::string("engine_sizing_") + e.config + "_s", "s");
    e.wall = &h.series(std::string("engine_wall_") + e.config + "_s", "s");
  }
  std::vector<std::function<void()>> engineBodies;
  engineBodies.reserve(engine.size());
  for (EngineSlot& e : engine) {
    engineBodies.push_back([&e, &original, &spec] {
      const EngineRun r = engineOnce(original, spec, e.warm);
      if (!e.haveRef) {
        e.refHash = r.hash;
        e.refFills = r.fills;
        e.haveRef = true;
      } else if (r.hash != e.refHash || r.fills != e.refFills) {
        e.identical = false;
      }
      e.sizing->record(r.sizingSeconds);
      e.wall->record(r.wall);
      e.last = r;
    });
  }
  obs::StageTable::instance().setEnabled(true);
  h.runInterleaved(engineBodies);
  obs::StageTable::instance().setEnabled(false);

  bool engineIdentical = true;
  for (const EngineSlot& e : engine) {
    if (!e.identical || e.last.hash != engine.front().last.hash ||
        e.last.fills != engine.front().last.fills) {
      engineIdentical = false;
    }
  }
  const EngineRun& engCold = engine[0].last;
  const EngineRun& engWarm = engine[1].last;
  const double warmHitRate =
      engWarm.solves > 0 ? static_cast<double>(engWarm.warmStarts) /
                               static_cast<double>(engWarm.solves)
                         : 0.0;
  std::printf("\n== Engine sizing A/B: suite %s, %zu wires, 1 thread ==\n",
              spec.name.c_str(), original.wireCount());
  std::printf("  cold-sizer  sizing %.3fs (%lld solves)\n",
              engCold.sizingSeconds, engCold.solves);
  std::printf("  warm-sizer  sizing %.3fs (%lld solves, %lld warm [%.0f%%], "
              "%lld early exits)\n",
              engWarm.sizingSeconds, engWarm.solves, engWarm.warmStarts,
              warmHitRate * 100.0, engWarm.earlyExits);
  std::printf("  fills %s\n",
              engineIdentical ? "BYTE-IDENTICAL" : "DIVERGED (BUG!)");

  h.recordRatio("sizing_speedup_vs_cold", *engine[0].sizing,
                *engine[1].sizing);
  h.series("warm_start_hit_rate", "ratio", Direction::kHigherIsBetter,
           Scale::kRatio)
      .record(warmHitRate);
  h.param("fill_count", static_cast<std::int64_t>(engWarm.fills));
  h.param("engine_solves", static_cast<std::int64_t>(engWarm.solves));

  h.check("solver_identical", solverIdentical);
  h.check("engine_identical", engineIdentical);
  h.check("warm_start_fired",
          solver[1].last.warmStarts > 0 && engWarm.warmStarts > 0);
  return h.finish();
}
