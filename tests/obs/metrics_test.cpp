// Metrics registry unit tests: counter/gauge semantics, histogram bucket
// placement and quantile interpolation, snapshot export (JSON round-trip
// through the project parser, Prometheus exposition) and reset-in-place.
// The registry is process-global, so every test restores the disabled,
// zeroed state.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/json_util.hpp"
#include "obs/stage.hpp"

namespace ofl::obs {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::instance().setEnabled(true);
    MetricsRegistry::instance().reset();
  }
  void TearDown() override {
    MetricsRegistry::instance().setEnabled(false);
    MetricsRegistry::instance().reset();
  }
};

TEST_F(MetricsTest, CounterAndGaugeBasics) {
  Counter& c = MetricsRegistry::instance().counter("unit.count");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  Gauge& g = MetricsRegistry::instance().gauge("unit.gauge");
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  // Find-or-create returns the same series (stable addresses).
  EXPECT_EQ(&c, &MetricsRegistry::instance().counter("unit.count"));
  EXPECT_EQ(&g, &MetricsRegistry::instance().gauge("unit.gauge"));
}

TEST_F(MetricsTest, HistogramBucketsPlaceObservationsAtUpperBoundInclusive) {
  Histogram h(std::vector<double>{1.0, 2.0, 4.0});
  h.observe(0.5);  // bucket 0 (<= 1)
  h.observe(1.0);  // bucket 0 (inclusive upper bound)
  h.observe(1.5);  // bucket 1
  h.observe(4.0);  // bucket 2
  h.observe(9.0);  // +Inf bucket
  const Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[3], 1u);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.sum, 16.0);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.2);
}

TEST_F(MetricsTest, EmptyHistogramReportsZeros) {
  Histogram h(Histogram::latencyBounds());
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.quantile(0.5), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST_F(MetricsTest, QuantilesInterpolateWithinBuckets) {
  // 100 uniform observations in (0, 1]: p50 ~ 0.5, p95 ~ 0.95, p99 ~ 0.99
  // with linear interpolation inside 0.1-wide buckets.
  Histogram h(Histogram::unitBounds());
  for (int i = 1; i <= 100; ++i) h.observe(0.01 * i);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_NEAR(s.quantile(0.50), 0.50, 0.05);
  EXPECT_NEAR(s.quantile(0.95), 0.95, 0.05);
  EXPECT_NEAR(s.quantile(0.99), 0.99, 0.05);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), s.max);
  EXPECT_LE(s.quantile(0.0), s.quantile(0.5));
}

TEST_F(MetricsTest, SingleBucketQuantileStaysWithinObservedRange) {
  Histogram h(std::vector<double>{10.0});
  h.observe(3.0);
  h.observe(3.0);
  h.observe(3.0);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_GE(s.quantile(0.5), 3.0);
  EXPECT_LE(s.quantile(0.5), 3.0);
}

TEST_F(MetricsTest, ConcurrentObservationsSumExactly) {
  Histogram& h = MetricsRegistry::instance().histogram(
      "unit.lat", std::vector<double>{0.5, 1.0});
  Counter& c = MetricsRegistry::instance().counter("unit.hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(0.25);
        c.add();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.counts[0], s.count);
}

TEST_F(MetricsTest, SnapshotJsonRoundTripsThroughParser) {
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.counter("unit.requests").add(42);
  reg.gauge("unit.depth").set(3.25);
  reg.histogram("unit.seconds", std::vector<double>{0.1, 1.0}).observe(0.05);
  const MetricsSnapshot snap = reg.snapshot();
  const auto doc = json::Value::parse(snap.json());
  ASSERT_TRUE(doc.has_value()) << snap.json();
  EXPECT_EQ(doc->findPath("counters")->find("unit.requests")->number, 42.0);
  EXPECT_EQ(doc->findPath("gauges")->find("unit.depth")->number, 3.25);
  const json::Value* hist = doc->findPath("histograms")->find("unit.seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->number, 1.0);
  EXPECT_EQ(hist->find("counts")->array.size(), 3u);
  EXPECT_EQ(hist->find("bounds")->array.size(), 2u);
}

TEST_F(MetricsTest, PrometheusExpositionFormat) {
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.counter("cache.hits").add(3);
  reg.gauge("sched.queue_depth").set(2);
  reg.histogram("job.run_seconds", std::vector<double>{1.0}).observe(0.5);
  const std::string text = reg.snapshot().prometheus();
  EXPECT_NE(text.find("# TYPE openfill_cache_hits_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("openfill_cache_hits_total 3"), std::string::npos);
  EXPECT_NE(text.find("openfill_sched_queue_depth 2"), std::string::npos);
  EXPECT_NE(text.find("openfill_job_run_seconds_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("openfill_job_run_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("openfill_job_run_seconds_count 1"), std::string::npos);
}

TEST_F(MetricsTest, ResetZeroesInPlaceKeepingAddresses) {
  MetricsRegistry& reg = MetricsRegistry::instance();
  Counter& c = reg.counter("unit.count");
  Gauge& g = reg.gauge("unit.gauge");
  Histogram& h = reg.histogram("unit.hist", std::vector<double>{1.0});
  c.add(9);
  g.set(9);
  h.observe(0.5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.snapshot().count, 0u);
  // Same addresses after reset (the static-reference caching contract).
  EXPECT_EQ(&c, &reg.counter("unit.count"));
  EXPECT_EQ(&g, &reg.gauge("unit.gauge"));
  EXPECT_EQ(&h, &reg.histogram("unit.hist"));
  // And the series still work.
  h.observe(0.5);
  EXPECT_EQ(h.snapshot().count, 1u);
  EXPECT_DOUBLE_EQ(h.snapshot().min, 0.5);
}

TEST_F(MetricsTest, SnapshotReadsStageTableWithoutIndentation) {
  StageTable& table = StageTable::instance();
  table.setEnabled(true);
  table.reset();
  {
    Stage probe(StageId::kMcfSolve);  // nested: indented in human()
  }
  count(CounterId::kWindows, 6);
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  table.setEnabled(false);
  table.reset();

  EXPECT_TRUE(snap.has("prof.mcf-solve.seconds"));
  EXPECT_EQ(snap.gauges.at("prof.mcf-solve.calls"), 1.0);
  EXPECT_EQ(snap.gauges.at("prof.windows"), 6.0);
  // Rows never entered and zero counters export nothing.
  EXPECT_FALSE(snap.has("prof.sizing.seconds"));
  EXPECT_FALSE(snap.has("prof.mcf-solves"));
  EXPECT_FALSE(MetricsRegistry::instance().snapshot().has(
      "prof.mcf-solve.seconds"));
}

TEST_F(MetricsTest, UpdateProcessGaugesReportsPositiveRss) {
  updateProcessGauges();
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  EXPECT_GT(snap.gauges.at("process.peak_rss_mib"), 0.0);
  EXPECT_GT(snap.gauges.at("process.rss_mib"), 0.0);
}

}  // namespace
}  // namespace ofl::obs
