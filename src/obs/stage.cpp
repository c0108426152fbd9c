#include "obs/stage.hpp"

#include <cstdio>

#include "common/json_util.hpp"

namespace ofl::obs {
namespace {

struct StageRow {
  const char* name;
  bool nested;  // a kernel inside the preceding engine stage
};

constexpr StageRow kStages[] = {
    {"region-prep", false},
    {"density-compute", false},
    {"bounds", false},
    {"planning", false},
    {"candidates", false},
    {"shared-region", true},
    {"slice", true},
    {"overlay-score", true},
    {"refine", true},
    {"sizing", false},
    {"overlay-marginals", true},
    {"mcf-solve", true},
    {"output", false},
};
static_assert(sizeof(kStages) / sizeof(kStages[0]) ==
              static_cast<std::size_t>(StageId::kCount));

constexpr const char* kCounterNames[] = {
    "windows",          "candidates",        "index-builds",
    "index-queries",    "mcf-solves",        "mcf-network-reuses",
    "mcf-warm-starts",  "mcf-early-exits",   "eco-windows-skipped",
};
static_assert(sizeof(kCounterNames) / sizeof(kCounterNames[0]) ==
              static_cast<std::size_t>(CounterId::kCount));

constexpr int kStageCount = static_cast<int>(StageId::kCount);
constexpr int kCounterCount = static_cast<int>(CounterId::kCount);

}  // namespace

const char* stageName(StageId stage) {
  return kStages[static_cast<std::size_t>(stage)].name;
}

const char* counterName(CounterId counter) {
  return kCounterNames[static_cast<std::size_t>(counter)];
}

StageTable& StageTable::instance() {
  static StageTable table;
  return table;
}

void StageTable::reset() {
  for (Row& row : rows_) {
    row.calls.store(0, std::memory_order_relaxed);
    row.nanos.store(0, std::memory_order_relaxed);
  }
  for (auto& c : counters_) c.store(0, std::memory_order_relaxed);
}

std::string StageTable::human() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-22s %12s %12s %14s\n", "stage",
                "seconds", "calls", "ns/call");
  out += line;
  for (int i = 0; i < kStageCount; ++i) {
    const auto stage = static_cast<StageId>(i);
    const std::uint64_t n = calls(stage);
    if (n == 0) continue;
    const StageRow& row = kStages[i];
    const std::string label = std::string(row.nested ? "  " : "") + row.name;
    std::snprintf(line, sizeof(line), "%-22s %12.4f %12llu %14.0f\n",
                  label.c_str(), seconds(stage),
                  static_cast<unsigned long long>(n),
                  seconds(stage) * 1e9 / static_cast<double>(n));
    out += line;
  }
  bool anyCounter = false;
  for (int i = 0; i < kCounterCount; ++i) {
    anyCounter = anyCounter || counter(static_cast<CounterId>(i)) != 0;
  }
  if (anyCounter) {
    out += "counters:\n";
    for (int i = 0; i < kCounterCount; ++i) {
      const auto c = static_cast<CounterId>(i);
      if (counter(c) == 0) continue;
      std::snprintf(line, sizeof(line), "  %-20s %12llu\n", counterName(c),
                    static_cast<unsigned long long>(counter(c)));
      out += line;
    }
  }
  return out;
}

std::string StageTable::json() const {
  // Via common/json_util: names are escaped and numbers are formatted with
  // std::to_chars, so the output is byte-stable under any C locale.
  std::string out = "{\"stages\": {";
  for (int i = 0; i < kStageCount; ++i) {
    const auto stage = static_cast<StageId>(i);
    out += i == 0 ? "\"" : ", \"";
    json::appendEscaped(out, stageName(stage));
    out += "\": {\"seconds\": ";
    json::appendNumber(out, seconds(stage));
    out += ", \"calls\": ";
    json::appendNumber(out, calls(stage));
    out += "}";
  }
  out += "}, \"counters\": {";
  for (int i = 0; i < kCounterCount; ++i) {
    const auto c = static_cast<CounterId>(i);
    out += i == 0 ? "\"" : ", \"";
    json::appendEscaped(out, counterName(c));
    out += "\": ";
    json::appendNumber(out, counter(c));
  }
  out += "}}";
  return out;
}

}  // namespace ofl::obs
