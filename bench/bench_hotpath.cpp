// Hot-path profile of the fill pipeline: one contest benchmark filled
// single-threaded per rep with the default engine. The obs::Stage table
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
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "common/logging.hpp"
#include "common/timer.hpp"
#include "contest/benchmark_generator.hpp"
#include "fill/fill_engine.hpp"
#include "obs/stage.hpp"

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

constexpr auto kStages = static_cast<std::size_t>(obs::StageId::kCount);
constexpr auto kCounters = static_cast<std::size_t>(obs::CounterId::kCount);

struct Run {
  double wall = 0.0;
  std::size_t fills = 0;
  std::uint64_t hash = 0;
  std::array<double, kStages> stageSeconds{};
  std::array<std::uint64_t, kCounters> counters{};
};

Run runOnce(const layout::Layout& original,
            const contest::BenchmarkSpec& spec) {
  layout::Layout chip = original;
  fill::FillEngineOptions o;
  o.windowSize = spec.windowSize;
  o.rules = spec.rules;
  o.numThreads = 1;

  obs::StageTable& table = obs::StageTable::instance();
  table.reset();
  Run run;
  Timer t;
  const fill::FillReport report = fill::FillEngine(o).run(chip);
  run.wall = t.elapsedSeconds();
  run.fills = report.fillCount;
  run.hash = fillHash(chip);
  for (std::size_t s = 0; s < kStages; ++s) {
    run.stageSeconds[s] = table.seconds(static_cast<obs::StageId>(s));
  }
  for (std::size_t c = 0; c < kCounters; ++c) {
    run.counters[c] = table.counter(static_cast<obs::CounterId>(c));
  }
  return run;
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
  std::vector<Series*> stages;
  for (std::size_t s = 0; s < kStages; ++s) {
    stages.push_back(&h.series(
        std::string(obs::stageName(static_cast<obs::StageId>(s))) + "_s",
        "s"));
  }
  const struct {
    obs::CounterId counter;
    Direction direction;
  } gatedCounters[] = {
      {obs::CounterId::kWindows, Direction::kLowerIsBetter},
      {obs::CounterId::kCandidates, Direction::kLowerIsBetter},
      {obs::CounterId::kIndexBuilds, Direction::kLowerIsBetter},
      {obs::CounterId::kIndexQueries, Direction::kLowerIsBetter},
      {obs::CounterId::kMcfSolves, Direction::kLowerIsBetter},
      {obs::CounterId::kMcfWarmStarts, Direction::kHigherIsBetter},
      {obs::CounterId::kMcfEarlyExits, Direction::kHigherIsBetter},
  };
  std::vector<std::pair<obs::CounterId, Series*>> counters;
  for (const auto& c : gatedCounters) {
    counters.push_back(
        {c.counter, &h.series(obs::counterName(c.counter), "count",
                              c.direction, Scale::kRatio)});
  }

  bool haveRef = false;
  bool identical = true;
  bool countersRepeat = true;
  Run ref;
  Run last;
  obs::StageTable::instance().setEnabled(true);
  h.runInterleaved({[&] {
    Run r = runOnce(original, spec);
    if (!haveRef) {
      ref = r;
      haveRef = true;
    } else {
      identical = identical && r.hash == ref.hash && r.fills == ref.fills;
      countersRepeat = countersRepeat && r.counters == ref.counters;
    }
    wall.record(r.wall);
    for (std::size_t s = 0; s < kStages; ++s) {
      stages[s]->record(r.stageSeconds[s]);
    }
    for (const auto& [counter, series] : counters) {
      series->record(static_cast<double>(
          r.counters[static_cast<std::size_t>(counter)]));
    }
    last = r;
  }});
  obs::StageTable::instance().setEnabled(false);

  // The table still holds the last rep's run.
  std::printf("\n-- wall %.2fs, %zu fills, hash %llx --\n", last.wall,
              last.fills, static_cast<unsigned long long>(last.hash));
  std::fputs(obs::StageTable::instance().human().c_str(), stdout);
  std::printf("\n");
  h.param("fill_count", static_cast<std::int64_t>(ref.fills));

  h.check("identical", identical);
  h.check("counters_repeat", countersRepeat);
  return h.finish();
}
