// `perfbench trace`: the traced per-layer run.
//
// Each round calls the layers from outside the program, in
// FillEngine::run's order, and checks every staged output against the
// engine's own:
//
//   untraced op   loadFlatLayout + FillEngine::run + toGds/writeFile, no
//                 spans (the baseline for trace.overhead_s; engine.run_s)
//   staged op     the same op split into gds.read, the eight stages of
//                 runStaged and gds.write, at nproc threads and at 1
//                 thread, each output byte-compared with the untraced one
//   eco           one seeded edit of the filled base layout, re-filled by
//                 a direct runIncremental and by a kEco FillService job;
//                 the two results must match; the last round's result ->
//                 D/trace_eco.gds
//   stream        ShardedEngine::scanExtents, then runFile under the
//                 stream-m memory budget, byte-compared with reference-0.gds
//
// The staged and untraced ops run on input-0.gds, or for --workload eco-m on
// an edited copy of the filled base (the whole-layout calls an ECO
// repeats). Times are sampled once per round for the rounds that fit in
// --seconds. Spans go to D/trace_spans.json at the end.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "fill/sharded_engine.hpp"
#include "layout/window_grid.hpp"
#include "service/fill_service.hpp"
#include "staged.hpp"

namespace perfbench {
namespace {

using ofl::layout::Layout;

constexpr double kMiB = 1024.0 * 1024.0;

bool sameFills(const Layout& a, const Layout& b) {
  if (a.numLayers() != b.numLayers()) return false;
  for (int l = 0; l < a.numLayers(); ++l) {
    if (a.layer(l).fills != b.layer(l).fills) return false;
  }
  return true;
}

// Per-round samples of one staged op.
struct StagedOp {
  double wall = 0.0;
  double read = 0.0;
  double write = 0.0;
  long long outputBytes = 0;
  StagedRun run;
};

StagedOp stagedOp(const std::string& in, const std::string& out,
                  const ofl::fill::FillEngineOptions& options,
                  ofl::ThreadPool& pool, int round) {
  StagedOp op;
  Span opSpan("op.staged", round, pool.size());
  Span read("gds.read", round);
  Layout chip = loadLayout(in);
  op.read = read.end();
  op.run = runStaged(chip, options, pool, round);
  Span write("gds.write", round);
  op.outputBytes = writeLayout(chip, out);
  op.write = write.end();
  op.wall = opSpan.end();
  return op;
}

// Per-round samples, keyed by name, in first-added order.
class Samples {
 public:
  void add(const std::string& name, double v) {
    auto it = std::find_if(values_.begin(), values_.end(),
                           [&](const auto& e) { return e.first == name; });
    if (it == values_.end()) {
      values_.push_back({name, {v}});
    } else {
      it->second.push_back(v);
    }
  }
  void addTo(JsonObject& out) const {
    for (const auto& [name, values] : values_) out.add(name, values);
  }

 private:
  std::vector<std::pair<std::string, std::vector<double>>> values_;
};

}  // namespace

int runTrace(const ofl::cli::Args& args) {
  const std::string dir = required(args, "dir");
  const auto seed = static_cast<std::uint64_t>(requiredInt(args, "seed"));
  const double seconds = requiredDouble(args, "seconds");
  const int threads = static_cast<int>(requiredInt(args, "threads"));
  const std::string workload = required(args, "workload");
  const auto budgetMiB =
      static_cast<std::size_t>(requiredInt(args, "mem-budget-mb"));
  const std::string input = dir + "/input-0.gds";

  ofl::ThreadPool poolN(threads);
  ofl::ThreadPool pool1(1);
  const int n = poolN.size();
  const ofl::fill::FillEngineOptions options = engineOptions(n);

  // Set-up (untimed): the filled base layout every ECO round edits, and
  // for eco-m the edited layout the staged ops decompose.
  Layout base = loadLayout(input);
  ofl::fill::FillEngine(options).run(base);
  ofl::Rng rng(seed);
  std::string layoutPath = input;
  if (workload == "eco-m") {
    Layout edited = base;
    applyEdit(edited, nextEdit(rng, edited, options));
    layoutPath = dir + "/trace_edited.gds";
    writeLayout(edited, layoutPath);
  }
  const double layoutMiB =
      static_cast<double>(readFileBytes(layoutPath).size()) / kMiB;
  const std::vector<std::uint8_t> reference =
      readFileBytes(dir + "/reference-0.gds");
  const ofl::layout::WindowGrid grid(base.die(), options.windowSize);

  ofl::service::ServiceOptions serviceOptions;
  serviceOptions.maxConcurrentJobs = 1;
  serviceOptions.threadsPerJob = n;
  ofl::service::FillService service(serviceOptions);

  ofl::fill::ShardedOptions shardedOptions;
  shardedOptions.engine = options;
  shardedOptions.memBudgetMiB = budgetMiB;
  shardedOptions.spillDir = dir;

  Samples s;
  StagedOp lastN;
  double outputMiB = 0.0;
  ofl::fill::ShardedReport lastStream;
  std::size_t lastAffected = 0;
  Layout lastEco;
  long long attempted = 0;
  long long failed = 0;
  long long cacheHits = 0;
  int rounds = 0;
  auto check = [&](bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench trace: %s mismatch in round %d\n", what,
                   rounds);
    }
  };

  const ofl::Timer phase;
  while (rounds == 0 || phase.elapsedSeconds() < seconds) {
    const int round = rounds;
    Span roundSpan("round", round);

    // Untraced op: no spans inside, only its wall.
    ofl::Timer untracedTimer;
    Layout chip = loadLayout(layoutPath);
    ofl::Timer engineTimer;
    ofl::fill::FillEngine(options).run(chip);
    const double engineRun = engineTimer.elapsedSeconds();
    writeLayout(chip, dir + "/trace_untraced.gds");
    const double untraced = untracedTimer.elapsedSeconds();
    const std::vector<std::uint8_t> engineBytes =
        readFileBytes(dir + "/trace_untraced.gds");

    const StagedOp opN =
        stagedOp(layoutPath, dir + "/trace_staged.gds", options, poolN, round);
    check(readFileBytes(dir + "/trace_staged.gds") == engineBytes,
          "staged (nproc threads)");
    const StagedOp op1 =
        stagedOp(layoutPath, dir + "/trace_staged.gds", options, pool1, round);
    check(readFileBytes(dir + "/trace_staged.gds") == engineBytes,
          "staged (1 thread)");

    // ECO: the same seeded edit through runIncremental and the service.
    Layout edited = base;
    const EcoEdit edit = nextEdit(rng, edited, options);
    applyEdit(edited, edit);
    auto job = std::make_shared<const Layout>(edited);
    Span ecoSpan("engine.eco", round);
    ofl::fill::FillEngine(options).runIncremental(edited, edit.changed);
    const double eco = ecoSpan.end();
    ofl::service::JobSpec spec;
    spec.kind = ofl::service::JobKind::kEco;
    spec.ecoChanged = edit.changed;
    spec.layout = std::move(job);
    spec.engine = options;
    spec.keepLayout = true;
    Span jobSpan("service.job", round);
    const ofl::service::JobResult result = service.wait(service.submit(spec));
    const double jobSeconds = jobSpan.end();
    check(result.status == ofl::service::JobStatus::kSucceeded &&
              result.layout != nullptr && sameFills(*result.layout, edited),
          "service ECO vs runIncremental");
    cacheHits += result.cacheHit ? 1 : 0;
    lastAffected = affectedWindows(edited, options, edit.changed);
    lastEco = std::move(edited);

    // Stream: pre-scan, then the bounded-memory pipeline.
    Span scanSpan("gds.scan", round);
    ofl::geom::Rect bbox;
    int maxLayer = 0;
    std::string error;
    if (!ofl::fill::ShardedEngine::scanExtents(input, &bbox, &maxLayer,
                                               &error)) {
      throw std::runtime_error(error);
    }
    const double scan = scanSpan.end();
    Span streamSpan("stream.run", round);
    ofl::fill::ShardedReport stream;
    if (!ofl::fill::ShardedEngine(shardedOptions)
             .runFile(input, dir + "/trace_stream.gds", std::nullopt, &stream,
                      &error)) {
      throw std::runtime_error(error);
    }
    const double streamRun = streamSpan.end();
    check(readFileBytes(dir + "/trace_stream.gds") == reference,
          "stream vs reference");
    roundSpan.end();

    s.add("gds.read_s", opN.read);
    s.add("gds.write_s", opN.write);
    s.add("gds.scan_s", scan);
    for (const auto& [stage, wall] : opN.run.stages) {
      s.add("stage." + stage + ".N", wall);
    }
    for (const auto& [stage, wall] : op1.run.stages) {
      s.add("stage." + stage + ".1", wall);
    }
    s.add("staged.N", opN.run.totalSeconds());
    s.add("staged.1", op1.run.totalSeconds());
    const std::vector<double>& windows = opN.run.sizingWindowSeconds;
    s.add("fill.sizing_window_s.p50", median(windows));
    s.add("fill.sizing_window_s.max",
          *std::max_element(windows.begin(), windows.end()));
    s.add("engine.run_s", engineRun);
    s.add("engine.eco_s", eco);
    s.add("service.job_s", jobSeconds);
    s.add("service.queue_s", result.queueSeconds);
    s.add("stream.run_s", streamRun);
    s.add("stream.ingest_s", stream.ingestSeconds);
    s.add("stream.fft_s", stream.fftSeconds);
    s.add("stream.plan_s", stream.fill.planningSeconds);
    s.add("stream.candidates_s", stream.fill.candidateSeconds);
    s.add("stream.sizing_s", stream.fill.sizingSeconds);
    s.add("trace.traced_s", opN.wall);
    s.add("trace.untraced_s", untraced);
    outputMiB = static_cast<double>(opN.outputBytes) / kMiB;
    lastN = opN;
    lastStream = stream;
    ++rounds;
  }
  if (!ofl::obs::Tracer::instance().writeChromeJson(dir +
                                                    "/trace_spans.json")) {
    throw std::runtime_error("cannot write " + dir + "/trace_spans.json");
  }
  writeLayout(lastEco, dir + "/trace_eco.gds");

  // Per-round samples and counts; run.py takes the medians and derives
  // the ratios (perfbench/stats.py, layer_metrics).
  const ofl::fill::FillSizer::Stats& mcf = lastN.run.sizer;
  JsonObject out;
  out.add("rounds", rounds);
  out.add("attempted", static_cast<double>(attempted));
  out.add("failed", static_cast<double>(failed));
  s.addTo(out);
  out.add("gds.read_mib", layoutMiB);
  out.add("gds.write_mib", outputMiB);
  out.add("fill.candidates", static_cast<double>(lastN.run.candidates));
  out.add("mcf.solves", static_cast<double>(mcf.solves));
  out.add("mcf.warm_starts", static_cast<double>(mcf.warmStarts));
  out.add("mcf.early_exits", static_cast<double>(mcf.earlyExits));
  out.add("mcf.infeasible_fallbacks",
          static_cast<double>(mcf.infeasibleFallbacks));
  out.add("engine.threads", n);
  out.add("eco.affected_windows", static_cast<double>(lastAffected));
  out.add("eco.total_windows", grid.windowCount());
  out.add("service.jobs", rounds);
  out.add("service.cache_hits", static_cast<double>(cacheHits));
  out.add("stream.shards", lastStream.shardCount);
  out.add("stream.spilled_mib",
          static_cast<double>(lastStream.spilledBytes) / kMiB);
  out.add("stream.spill_events", static_cast<double>(lastStream.spillEvents));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace perfbench
