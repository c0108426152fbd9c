// Hot-path profile of the fill pipeline: one contest benchmark filled
// single-threaded per rep with the default engine. The profiling registry
// records per-stage thread-seconds (wall series, gated only on the
// baseline's machine) and the engine's work counters: windows, candidates,
// spatial-index builds and queries, MCF solves, warm starts and early
// exits. The counters are exact functions of the input, so they are
// ratio-scale series that bench-compare gates on every machine: a change
// that makes the indexed kernels or the warm-started sizer do more work
// shows up there without a timing A/B.
//
// The bench exits nonzero when the fills or the counters differ between
// reps. Results: BENCH_hotpath.json.
//
// Usage: bench_hotpath [suite] [reps] [--reps N] [--warmup N] [--out F]
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "common/logging.hpp"
#include "common/prof.hpp"
#include "common/timer.hpp"
#include "contest/benchmark_generator.hpp"
#include "fill/fill_engine.hpp"

using namespace ofl;

namespace {

// Order-sensitive fingerprint of the fill solution (same scheme as
// bench_scaling): identical hashes mean bit-identical fill lists.
std::uint64_t fillHash(const layout::Layout& chip) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over fill coords
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

struct Run {
  double wall = 0.0;
  std::size_t fills = 0;
  std::uint64_t hash = 0;
  prof::Snapshot profile;
};

Run runOnce(const layout::Layout& original,
            const contest::BenchmarkSpec& spec) {
  layout::Layout chip = original;
  fill::FillEngineOptions o;
  o.windowSize = spec.windowSize;
  o.rules = spec.rules;
  o.numThreads = 1;

  prof::Registry::instance().reset();
  Run run;
  Timer t;
  const fill::FillReport report = fill::FillEngine(o).run(chip);
  run.wall = t.elapsedSeconds();
  run.fills = report.fillCount;
  run.hash = fillHash(chip);
  run.profile = report.profile;
  return run;
}

// Stage names without the nesting indent ("  mcf-solve" -> "mcf-solve").
std::string stageKey(prof::Stage stage) {
  std::string key = prof::stageName(stage);
  key.erase(0, key.find_first_not_of(' '));
  return key;
}

}  // namespace

int main(int argc, char** argv) {
  setLogLevel(LogLevel::kWarn);
  using namespace ofl::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv, "m", 3);
  const contest::BenchmarkSpec spec =
      contest::BenchmarkGenerator::spec(args.suite);
  const layout::Layout original = contest::BenchmarkGenerator::generate(spec);
  std::printf("== Hot-path profile: suite %s, %zu wires, 1 thread, "
              "%d reps + %d warmup ==\n",
              spec.name.c_str(), original.wireCount(), args.reps,
              args.warmup);

  Harness h(args.harnessOptions("hotpath"));
  h.param("suite", spec.name);
  h.param("threads", static_cast<std::int64_t>(1));

  Series& wall = h.series("wall_s", "s");
  std::vector<std::pair<prof::Stage, Series*>> stages;
  for (int s = 0; s < static_cast<int>(prof::Stage::kCount); ++s) {
    const auto stage = static_cast<prof::Stage>(s);
    stages.push_back({stage, &h.series(stageKey(stage) + "_s", "s")});
  }
  const struct {
    prof::Counter counter;
    Direction direction;
  } gatedCounters[] = {
      {prof::Counter::kWindows, Direction::kLowerIsBetter},
      {prof::Counter::kCandidates, Direction::kLowerIsBetter},
      {prof::Counter::kIndexBuilds, Direction::kLowerIsBetter},
      {prof::Counter::kIndexQueries, Direction::kLowerIsBetter},
      {prof::Counter::kMcfSolves, Direction::kLowerIsBetter},
      {prof::Counter::kMcfWarmStarts, Direction::kHigherIsBetter},
      {prof::Counter::kMcfEarlyExits, Direction::kHigherIsBetter},
  };
  std::vector<std::pair<prof::Counter, Series*>> counters;
  for (const auto& c : gatedCounters) {
    counters.push_back(
        {c.counter, &h.series(prof::counterName(c.counter), "count",
                              c.direction, Scale::kRatio)});
  }

  bool haveRef = false;
  bool identical = true;
  bool countersRepeat = true;
  Run ref;
  Run last;
  prof::Registry::instance().setEnabled(true);
  h.runInterleaved({[&] {
    Run r = runOnce(original, spec);
    if (!haveRef) {
      ref = r;
      haveRef = true;
    } else {
      identical = identical && r.hash == ref.hash && r.fills == ref.fills;
      countersRepeat =
          countersRepeat && r.profile.counters == ref.profile.counters;
    }
    wall.record(r.wall);
    for (const auto& [stage, series] : stages) {
      series->record(r.profile.stage(stage).seconds());
    }
    for (const auto& [counter, series] : counters) {
      series->record(static_cast<double>(r.profile.counter(counter)));
    }
    last = std::move(r);
  }});
  prof::Registry::instance().setEnabled(false);

  std::printf("\n-- wall %.2fs, %zu fills, hash %llx --\n", last.wall,
              last.fills, static_cast<unsigned long long>(last.hash));
  std::fputs(last.profile.human().c_str(), stdout);
  std::printf("\n");
  h.param("fill_count", static_cast<std::int64_t>(ref.fills));

  h.check("identical", identical);
  h.check("counters_repeat", countersRepeat);
  return h.finish();
}
