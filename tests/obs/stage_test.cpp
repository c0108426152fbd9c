// Stage-probe unit tests: the stage table's gating, accumulation, reset,
// exact concurrent sums and both renderings, plus one obs::Stage scope
// feeding the table and the tracer at once. The table and the tracer are
// process-global, so every test restores the disabled, empty state.
#include "obs/stage.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/json_util.hpp"

namespace ofl::obs {
namespace {

class StageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StageTable::instance().setEnabled(true);
    StageTable::instance().reset();
  }
  void TearDown() override {
    StageTable::instance().setEnabled(false);
    StageTable::instance().reset();
    Tracer::instance().setEnabled(false);
    Tracer::instance().clear();
  }
};

TEST_F(StageTest, DisabledProbesRecordNothing) {
  const std::string zero = StageTable::instance().json();
  StageTable::instance().setEnabled(false);
  {
    Stage probe(StageId::kCandidates);
  }
  count(CounterId::kWindows, 3);
  EXPECT_EQ(StageTable::instance().calls(StageId::kCandidates), 0u);
  EXPECT_EQ(StageTable::instance().counter(CounterId::kWindows), 0u);
  EXPECT_EQ(StageTable::instance().json(), zero);
}

TEST_F(StageTest, StagesAndCountersAccumulate) {
  {
    Stage probe(StageId::kSizing);
  }
  {
    Stage probe(StageId::kSizing);
  }
  count(CounterId::kMcfSolves, 5);
  count(CounterId::kMcfSolves);
  const StageTable& table = StageTable::instance();
  EXPECT_EQ(table.calls(StageId::kSizing), 2u);
  EXPECT_EQ(table.counter(CounterId::kMcfSolves), 6u);
  EXPECT_EQ(table.calls(StageId::kCandidates), 0u);
}

TEST_F(StageTest, ResetClears) {
  const std::string zero = StageTable::instance().json();
  {
    Stage probe(StageId::kBounds);
  }
  count(CounterId::kWindows, 7);
  ASSERT_NE(StageTable::instance().json(), zero);
  StageTable::instance().reset();
  EXPECT_EQ(StageTable::instance().calls(StageId::kBounds), 0u);
  EXPECT_EQ(StageTable::instance().counter(CounterId::kWindows), 0u);
  EXPECT_EQ(StageTable::instance().json(), zero);
}

TEST_F(StageTest, ConcurrentProbesSumExactly) {
  // Thread-seconds semantics: every worker's probes land in one table.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        Stage probe(StageId::kCandidates);
        count(CounterId::kCandidates, 2);
      }
    });
  }
  for (auto& w : workers) w.join();
  const StageTable& table = StageTable::instance();
  EXPECT_EQ(table.calls(StageId::kCandidates),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(table.counter(CounterId::kCandidates),
            static_cast<std::uint64_t>(kThreads) * kPerThread * 2);
}

TEST_F(StageTest, RendersStageNamesInBothFormats) {
  {
    Stage probe(StageId::kMcfSolve);
  }
  count(CounterId::kIndexBuilds, 4);
  const StageTable& table = StageTable::instance();
  const std::string human = table.human();
  EXPECT_NE(human.find("\n  mcf-solve"), std::string::npos)
      << "nested kernels are indented";
  EXPECT_NE(human.find("index-builds"), std::string::npos);
  const std::string json = table.json();
  EXPECT_NE(json.find("\"mcf-solve\""), std::string::npos);
  EXPECT_NE(json.find("\"index-builds\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
}

TEST_F(StageTest, JsonRoundTripsThroughParser) {
  // The JSON must parse back with exact values: names are escaped and
  // every number goes through std::to_chars, so the output is identical
  // under any C locale (no "0,05" decimal commas).
  {
    Stage probe(StageId::kSizing);
  }
  {
    Stage probe(StageId::kMcfSolve);  // nested kernel
  }
  count(CounterId::kIndexQueries, 12345);
  const StageTable& table = StageTable::instance();
  const std::string text = table.json();
  const auto doc = json::Value::parse(text);
  ASSERT_TRUE(doc.has_value()) << text;

  const json::Value* stages = doc->find("stages");
  ASSERT_NE(stages, nullptr);
  const json::Value* sizing = stages->find("sizing");
  ASSERT_NE(sizing, nullptr);
  EXPECT_EQ(sizing->find("calls")->number, 1.0);
  EXPECT_DOUBLE_EQ(sizing->find("seconds")->number,
                   table.seconds(StageId::kSizing));
  // Nested-kernel names carry no indentation in the JSON keys.
  EXPECT_NE(stages->find("mcf-solve"), nullptr);
  EXPECT_EQ(stages->find("  mcf-solve"), nullptr);
  // Every row is present, entered or not.
  EXPECT_EQ(stages->object.size(),
            static_cast<std::size_t>(StageId::kCount));

  const json::Value* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("index-queries")->number, 12345.0);

  // Byte-stable: re-rendering the same table yields identical text.
  EXPECT_EQ(text, table.json());
}

TEST_F(StageTest, OneScopeRecordsSpanAndThreadSeconds) {
  Tracer::instance().clear();
  Tracer::instance().setEnabled(true);
  {
    Stage probe(StageId::kSizing, "unit.stage", "test", {{"w", 3}});
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    Stage kernel(StageId::kSizing);  // kernel-only: no span
  }
  const StageTable& table = StageTable::instance();
  EXPECT_EQ(table.calls(StageId::kSizing), 2u);
  EXPECT_GE(table.seconds(StageId::kSizing), 2e-3);

  const auto events = Tracer::instance().collect();
  ASSERT_EQ(events.size(), 1u);
  const TraceEvent& e = events[0].event;
  EXPECT_STREQ(e.name, "unit.stage");
  EXPECT_STREQ(e.cat, "test");
  ASSERT_EQ(e.argCount, 1);
  EXPECT_STREQ(e.argKeys[0], "w");
  EXPECT_EQ(e.argValues[0], 3.0);
  EXPECT_GE(e.durNs, 2'000'000u);
}

}  // namespace
}  // namespace ofl::obs
