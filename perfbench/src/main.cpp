// perfbench: the in-process half of the repo benchmark (perfbench/run.py
// runs it). A run measures K suite-m instances, input-<k>.gds for
// k < K, so one seeded layout's quirks do not set a run's figures.
// Subcommands, each printing one JSON object on stdout; every option is
// required:
//
//   prepare --dir D --seed S --index k --threads N
//       Suite m with BenchmarkSpec::seed = S -> D/input-<k>.gds, and the
//       in-memory engine's output for it -> D/reference-<k>.gds (the
//       byte-identity reference).
//   quality --in F
//       Contest metrics of a filled layout (Evaluator::measure/score).
//   eco --dir D --instances K --seed S --seconds T --threads N --min-ops M
//       The eco-m workload: per instance one timed set-up (service start +
//       base fill), then seeded one-window ECO jobs against the last
//       in-process FillService, round-robin over the instances, for T
//       seconds, at least M ops and whole rounds. Peak RSS and the layouts
//       (-> D/eco_output-<k>.gds) are taken after the first M ops, so
//       neither depends on how many ops fit in T. loop_s is the whole
//       loop's wall, edits and waits included.
//   trace --dir D --seed S --seconds T --threads N --workload W
//         --mem-budget-mb B
//       The traced per-layer run on instance 0 (see trace.cpp).
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>

#include "cli/args.hpp"
#include "common/logging.hpp"
#include "common/memory_usage.hpp"
#include "common/timer.hpp"
#include "contest/evaluator.hpp"
#include "contest/score_table.hpp"
#include "layout/window_grid.hpp"
#include "service/fill_service.hpp"
#include "staged.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using ofl::layout::Layout;

// User plus system CPU seconds of every thread of this process so far.
double processCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

int runPrepare(const ofl::cli::Args& args) {
  const std::string dir = required(args, "dir");
  const auto seed = static_cast<std::uint64_t>(requiredInt(args, "seed"));
  const std::string index = std::to_string(requiredInt(args, "index"));
  const int threads = static_cast<int>(requiredInt(args, "threads"));
  const std::string input = dir + "/input-" + index + ".gds";
  writeLayout(generateSuiteM(seed), input);

  // Load through the same reader the CLI uses, so the die (the shapes'
  // bounding box) and layer count match what `openfill fill` sees.
  Layout chip = loadLayout(input);
  ofl::fill::FillEngine(engineOptions(threads)).run(chip);
  writeLayout(chip, dir + "/reference-" + index + ".gds");

  const ofl::layout::WindowGrid grid(chip.die(), engineOptions(0).windowSize);
  JsonObject out;
  out.add("windows", grid.windowCount());
  out.add("wires", static_cast<double>(chip.wireCount()));
  out.add("layers", chip.numLayers());
  out.add("fills", static_cast<double>(chip.fillCount()));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int runQuality(const ofl::cli::Args& args) {
  const Layout chip = loadLayout(required(args, "in"));
  const ofl::fill::FillEngineOptions options = engineOptions(0);
  const ofl::contest::Evaluator evaluator(
      options.windowSize, ofl::contest::scoreTableFor("m"), options.rules);
  const ofl::contest::RawMetrics raw = evaluator.measure(chip);
  // Testcase Quality excludes the runtime and memory terms, so the
  // zeros passed for them do not enter it.
  const ofl::contest::ScoreBreakdown score = evaluator.score(raw, 0.0, 0.0);
  JsonObject out;
  out.add("quality", score.quality);
  out.add("overlay", raw.overlay);
  out.add("variation", raw.variation);
  out.add("line_hotspot", raw.line);
  out.add("outlier_hotspot", raw.outlier);
  out.add("drc_violations", static_cast<double>(raw.drcViolations));
  out.add("fills", static_cast<double>(raw.fillCount));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int runEco(const ofl::cli::Args& args) {
  const std::string dir = required(args, "dir");
  const auto instances = static_cast<std::size_t>(
      std::max(1LL, requiredInt(args, "instances")));
  const auto seed = static_cast<std::uint64_t>(requiredInt(args, "seed"));
  const double seconds = requiredDouble(args, "seconds");
  const auto minOps = static_cast<std::size_t>(
      std::max(1LL, requiredInt(args, "min-ops")));
  ofl::service::ServiceOptions serviceOptions;
  serviceOptions.maxConcurrentJobs = 1;
  serviceOptions.threadsPerJob =
      static_cast<int>(requiredInt(args, "threads"));
  const ofl::fill::FillEngineOptions options = engineOptions(0);

  // Set-up, once per instance: start a service and fill the base layout.
  // The last service carries on into the timed phase.
  std::vector<double> setupSeconds;
  std::unique_ptr<ofl::service::FillService> service;
  std::vector<std::shared_ptr<const Layout>> current;
  for (std::size_t k = 0; k < instances; ++k) {
    service.reset();
    ofl::Timer timer;
    service = std::make_unique<ofl::service::FillService>(serviceOptions);
    ofl::service::JobSpec base;
    base.inputPath = dir + "/input-" + std::to_string(k) + ".gds";
    base.engine = options;
    base.keepLayout = true;
    const ofl::service::JobResult result = service->wait(service->submit(base));
    setupSeconds.push_back(timer.elapsedSeconds());
    if (result.status != ofl::service::JobStatus::kSucceeded) {
      throw std::runtime_error("base fill failed: " + result.error);
    }
    current.push_back(result.layout);
  }

  ofl::Rng rng(seed);
  std::vector<double> opSeconds;
  std::vector<double> opCpuSeconds;
  std::vector<std::shared_ptr<const Layout>> scored;
  double peakRss = 0.0;
  long long failed = 0;
  const ofl::Timer phase;
  // Whole rounds only, so every instance gets the same number of ops.
  while (phase.elapsedSeconds() < seconds || opSeconds.size() < minOps ||
         opSeconds.size() % instances != 0) {
    std::shared_ptr<const Layout>& layout =
        current[opSeconds.size() % instances];
    Layout edited = *layout;
    const EcoEdit edit = nextEdit(rng, edited, options);
    applyEdit(edited, edit);
    ofl::service::JobSpec job;
    job.kind = ofl::service::JobKind::kEco;
    job.ecoChanged = edit.changed;
    job.layout = std::make_shared<const Layout>(std::move(edited));
    job.engine = options;
    job.keepLayout = true;
    ofl::Timer op;
    const double cpuBefore = processCpuSeconds();
    const ofl::service::JobResult result = service->wait(service->submit(job));
    opSeconds.push_back(op.elapsedSeconds());
    opCpuSeconds.push_back(processCpuSeconds() - cpuBefore);
    if (result.status == ofl::service::JobStatus::kSucceeded) {
      layout = result.layout;
    } else {
      ++failed;
    }
    if (opSeconds.size() == minOps) {
      // Sampled at a fixed op count: FillService keeps every job's spec
      // and result, so the high-water mark grows with the op count and a
      // faster ECO would otherwise read as a bigger one.
      peakRss = ofl::peakMemoryMiB();
      scored = current;
    }
  }
  const double phaseSeconds = phase.elapsedSeconds();
  service.reset();
  for (std::size_t k = 0; k < instances; ++k) {
    writeLayout(*scored[k],
                dir + "/eco_output-" + std::to_string(k) + ".gds");
  }

  JsonObject out;
  out.add("setup_s", setupSeconds);
  out.add("op_s", opSeconds);
  out.add("op_cpu_s", opCpuSeconds);
  out.add("loop_s", phaseSeconds);
  out.add("failed", static_cast<double>(failed));
  out.add("peak_rss_mib", peakRss);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Engine progress lines would interleave with the JSON on stdout.
  ofl::setLogLevel(ofl::LogLevel::kWarn);
  const ofl::cli::Args args = ofl::cli::Args::parse(argc, argv);
  if (args.positional().empty()) {
    std::fprintf(stderr, "usage: perfbench prepare|quality|eco|trace ...\n");
    return 2;
  }
  const std::string& command = args.positional()[0];
  try {
    if (command == "prepare") return perfbench::runPrepare(args);
    if (command == "quality") return perfbench::runQuality(args);
    if (command == "eco") return perfbench::runEco(args);
    if (command == "trace") return perfbench::runTrace(args);
    std::fprintf(stderr, "perfbench: unknown command %s\n", command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
