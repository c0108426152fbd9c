// Batch observability integration: a FillService run under tracing +
// metrics produces a parseable Chrome trace whose span count covers every
// job and engine stage (correlated by job id), a metrics snapshot carrying
// the engine/cache/scheduler/RSS series, and — the PR-1 contract extended
// to observability — fills that are byte-identical with collection on or
// off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/json_util.hpp"
#include "contest/benchmark_generator.hpp"
#include "fill/fill_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/fill_service.hpp"
#include "service/manifest.hpp"

namespace ofl {
namespace {

std::shared_ptr<const layout::Layout> makeInput(geom::Coord shift) {
  auto chip =
      std::make_shared<layout::Layout>(geom::Rect{0, 0, 4000, 4000}, 2);
  chip->layer(0).wires.push_back({200 + shift, 200, 1800 + shift, 500});
  chip->layer(0).wires.push_back({2200, 2600, 3800, 2900});
  chip->layer(0).wires.push_back({600, 1400, 900, 3400});
  chip->layer(1).wires.push_back({1000, 1000, 1400, 3000});
  chip->layer(1).wires.push_back({2000, 400, 2300, 3600});
  return chip;
}

fill::FillEngineOptions fastOptions() {
  fill::FillEngineOptions opt = service::defaultEngineOptions();
  opt.windowSize = 1000;
  return opt;
}

class ObservabilityIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().setEnabled(true);
    obs::MetricsRegistry::instance().reset();
    obs::MetricsRegistry::instance().setEnabled(true);
  }
  void TearDown() override {
    obs::Tracer::instance().setEnabled(false);
    obs::Tracer::instance().clear();
    obs::MetricsRegistry::instance().setEnabled(false);
    obs::MetricsRegistry::instance().reset();
  }
};

TEST_F(ObservabilityIntegrationTest, BatchProducesTraceAndMetrics) {
  constexpr int kJobs = 3;
  std::vector<std::vector<std::vector<geom::Rect>>> fills(kJobs);
  {
    service::ServiceOptions so;
    so.maxConcurrentJobs = 2;
    so.threadsPerJob = 1;
    service::FillService svc(so);
    for (int i = 0; i < kJobs; ++i) {
      service::JobSpec spec;
      spec.layout = makeInput(/*shift=*/i * 40);
      spec.engine = fastOptions();
      spec.keepLayout = true;
      svc.submit(std::move(spec));
    }
    const std::vector<service::JobResult> results = svc.waitAll();
    ASSERT_EQ(results.size(), static_cast<std::size_t>(kJobs));
    for (int i = 0; i < kJobs; ++i) {
      ASSERT_EQ(results[i].status, service::JobStatus::kSucceeded)
          << results[i].error;
      for (int l = 0; l < results[i].layout->numLayers(); ++l) {
        fills[static_cast<std::size_t>(i)].push_back(
            results[i].layout->layer(l).fills);
      }
    }
    service::exportToMetrics(svc.stats());
  }  // service destroyed: every worker joined, all probes flushed

  // --- Trace: every engine stage spans every job, correlated by job id.
  const auto events = obs::Tracer::instance().collect();
  const char* kPerJobSpans[] = {"engine.run",      "engine.planning",
                                "engine.candidates", "engine.sizing",
                                "engine.output",   "job.run",
                                "job.queue_wait",  "sched.execute",
                                "sched.queue_wait"};
  std::map<std::string, std::size_t> counts;
  std::set<int> jobIdsOnEngineRuns;
  for (const auto& ce : events) {
    counts[ce.event.name] += 1;
    if (std::string(ce.event.name) == "engine.run") {
      for (int a = 0; a < ce.event.argCount; ++a) {
        if (std::string(ce.event.argKeys[a]) == "job") {
          jobIdsOnEngineRuns.insert(static_cast<int>(ce.event.argValues[a]));
        }
      }
    }
  }
  for (const char* name : kPerJobSpans) {
    EXPECT_GE(counts[name], static_cast<std::size_t>(kJobs)) << name;
  }
  // Span count >= jobs x engine stages, with per-window spans on top.
  EXPECT_GE(events.size(),
            static_cast<std::size_t>(kJobs) * std::size(kPerJobSpans));
  EXPECT_GE(counts["window.candidates"], static_cast<std::size_t>(kJobs));
  EXPECT_GE(counts["window.sizing"], static_cast<std::size_t>(kJobs));
  EXPECT_EQ(jobIdsOnEngineRuns, (std::set<int>{0, 1, 2}));

  // The emitted artifact parses as Chrome trace JSON.
  const auto doc = json::Value::parse(obs::Tracer::instance().chromeJson());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("traceEvents")->array.size(), events.size());

  // --- Metrics: engine, cache, scheduler, service and RSS series exist.
  obs::updateProcessGauges();
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
  for (const char* name :
       {"engine.runs", "engine.windows", "cache.misses",
        "sched.tasks_submitted", "sched.tasks_completed",
        "service.jobs_completed", "job.run_seconds", "job.queue_seconds",
        "sched.queue_wait_seconds", "quality.windows",
        "service.succeeded", "process.peak_rss_mib"}) {
    EXPECT_TRUE(snap.has(name)) << name;
  }
  EXPECT_EQ(snap.counters.at("engine.runs"), static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(snap.counters.at("service.jobs_completed"),
            static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(snap.histograms.at("job.run_seconds").data.count,
            static_cast<std::uint64_t>(kJobs));
  EXPECT_GT(snap.gauges.at("process.peak_rss_mib"), 0.0);

  // --- Determinism: rerun with collection OFF; fills byte-identical.
  obs::Tracer::instance().setEnabled(false);
  obs::MetricsRegistry::instance().setEnabled(false);
  for (int i = 0; i < kJobs; ++i) {
    layout::Layout quiet = *makeInput(/*shift=*/i * 40);
    fill::FillEngineOptions opt = fastOptions();
    opt.numThreads = 1;
    fill::FillEngine(opt).run(quiet);
    for (int l = 0; l < quiet.numLayers(); ++l) {
      EXPECT_EQ(quiet.layer(l).fills,
                fills[static_cast<std::size_t>(i)][static_cast<std::size_t>(l)])
          << "job " << i << " layer " << l;
    }
  }
}

TEST_F(ObservabilityIntegrationTest, TracingDoesNotPerturbSingleRun) {
  // Same layout, tracing on vs off, single engine run: identical fills.
  layout::Layout traced = *makeInput(0);
  fill::FillEngineOptions opt = fastOptions();
  opt.numThreads = 2;
  fill::FillEngine(opt).run(traced);

  obs::Tracer::instance().setEnabled(false);
  obs::MetricsRegistry::instance().setEnabled(false);
  layout::Layout plain = *makeInput(0);
  fill::FillEngine(opt).run(plain);

  for (int l = 0; l < traced.numLayers(); ++l) {
    EXPECT_EQ(traced.layer(l).fills, plain.layer(l).fills) << "layer " << l;
  }
}

TEST_F(ObservabilityIntegrationTest, JobIdFlowsIntoWindowSpans) {
  // FillEngineOptions::jobId tags per-window spans so cross-thread work is
  // attributable to its job in Perfetto.
  layout::Layout chip = *makeInput(0);
  fill::FillEngineOptions opt = fastOptions();
  opt.numThreads = 1;
  opt.jobId = 42;
  fill::FillEngine(opt).run(chip);

  bool sawWindowSpanWithJob = false;
  for (const auto& ce : obs::Tracer::instance().collect()) {
    if (std::string(ce.event.name) != "window.candidates") continue;
    for (int a = 0; a < ce.event.argCount; ++a) {
      if (std::string(ce.event.argKeys[a]) == "job" &&
          ce.event.argValues[a] == 42.0) {
        sawWindowSpanWithJob = true;
      }
    }
  }
  EXPECT_TRUE(sawWindowSpanWithJob);
}

TEST_F(ObservabilityIntegrationTest, EcoStageSpansCoverTheEcoRun) {
  // An ECO run's top-level stage spans (prep, plan, refill) sit inside its
  // engine.eco span, carry the affected-window count, and account for
  // nearly all of its wall time.
  const contest::BenchmarkSpec spec = contest::BenchmarkGenerator::spec("tiny");
  layout::Layout chip = contest::BenchmarkGenerator::generate(spec);
  fill::FillEngineOptions opt = fastOptions();
  opt.windowSize = spec.windowSize;
  opt.rules = spec.rules;
  opt.numThreads = 2;
  opt.jobId = 9;
  const fill::FillEngine engine(opt);
  engine.run(chip);
  obs::Tracer::instance().clear();

  // Window (3, 3) alone: the change stays a spacing away from its border.
  const geom::Rect changed{3 * 1200 + 100, 3 * 1200 + 100, 4 * 1200 - 100,
                           4 * 1200 - 100};
  const fill::FillReport report = engine.runIncremental(chip, changed);
  EXPECT_GT(report.planningSeconds, 0.0);

  const auto events = obs::Tracer::instance().collect();
  auto argOf = [](const obs::TraceEvent& e, const std::string& key) {
    for (int a = 0; a < e.argCount; ++a) {
      if (key == e.argKeys[a]) return e.argValues[a];
    }
    return -1.0;
  };
  const obs::Tracer::CollectedEvent* eco = nullptr;
  for (const auto& ce : events) {
    if (std::string(ce.event.name) == "engine.eco") {
      ASSERT_EQ(eco, nullptr) << "one engine.eco span per ECO run";
      eco = &ce;
    }
  }
  ASSERT_NE(eco, nullptr);
  const std::uint64_t ecoEnd = eco->event.startNs + eco->event.durNs;

  std::vector<const obs::TraceEvent*> stages;  // same thread, inside eco
  for (const auto& ce : events) {
    if (&ce == eco || ce.tid != eco->tid ||
        std::string(ce.event.cat) != "engine") {
      continue;
    }
    ASSERT_GE(ce.event.startNs, eco->event.startNs) << ce.event.name;
    ASSERT_LE(ce.event.startNs + ce.event.durNs, ecoEnd) << ce.event.name;
    stages.push_back(&ce.event);
  }
  std::sort(stages.begin(), stages.end(),
            [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
              return a->startNs < b->startNs;
            });
  const std::vector<std::string> kStages = {
      "engine.eco_prep", "engine.eco_plan", "engine.eco_refill"};
  ASSERT_EQ(stages.size(), kStages.size());
  std::uint64_t covered = 0;
  for (std::size_t k = 0; k < stages.size(); ++k) {
    EXPECT_EQ(stages[k]->name, kStages[k]);
    EXPECT_EQ(argOf(*stages[k], "windows"), 1.0) << kStages[k];
    EXPECT_EQ(argOf(*stages[k], "job"), 9.0) << kStages[k];
    if (k > 0) {
      EXPECT_GE(stages[k]->startNs,
                stages[k - 1]->startNs + stages[k - 1]->durNs)
          << kStages[k] << " overlaps its predecessor";
    }
    covered += stages[k]->durNs;
  }
  EXPECT_GE(static_cast<double>(covered),
            0.8 * static_cast<double>(eco->event.durNs));
}

}  // namespace
}  // namespace ofl
