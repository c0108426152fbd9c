// Unified metrics registry (docs/architecture.md, "Observability").
//
// One process-global table of named counters, gauges and fixed-bucket
// histograms that absorbs every stat the system previously scattered —
// ServiceStats, ResultCache hit/miss/eviction counts, peak RSS — plus the
// quality-telemetry channel (per-layer / per-window density, hotspot
// counts, score terms). A snapshot also reads the obs::Stage table as
// prof.<stage>.seconds|calls and prof.<counter> gauges. Snapshots export as
// JSON (`--metrics-out FILE`) and Prometheus text exposition
// (`--metrics-prom FILE`); `openfill stats --metrics FILE` pretty-prints
// a snapshot.
//
// Concurrency & lifetime contract: series are created on first use under
// a mutex and NEVER destroyed — reset() zeroes values in place — so
// instrumentation sites may cache `static Counter& c = ...` references.
// Updates are relaxed atomics; collection is OFF by default and every
// gated site pays one relaxed load.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ofl::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds,
/// with an implicit +Inf bucket at the end. Quantiles (p50/p95/p99) are
/// estimated by linear interpolation inside the owning bucket — exact
/// enough for latency/size/density distributions over fixed buckets.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  struct Snapshot {
    std::vector<double> bounds;        // upper bounds, ascending
    std::vector<std::uint64_t> counts; // bounds.size() + 1 (last = +Inf)
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  // observed extrema (0 when empty)
    double max = 0.0;

    double mean() const {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
    /// q in [0, 1]; returns 0 when empty.
    double quantile(double q) const;
  };
  Snapshot snapshot() const;
  void reset();

  /// Exponential seconds buckets, 100us .. 5min — queue waits, solves,
  /// whole runs.
  static std::vector<double> latencyBounds();
  /// Linear [0, 1] buckets in 0.05 steps — densities and ratios.
  static std::vector<double> unitBounds();

 private:
  const std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // Extrema start at the identity for min/max; snapshot() reports 0 for
  // both while the histogram is empty.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

struct MetricsSnapshot {
  struct HistogramData {
    Histogram::Snapshot data;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  bool has(const std::string& name) const;
  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} — schema in
  /// docs/architecture.md; parsed back by `openfill stats --metrics`.
  std::string json() const;
  /// Prometheus text exposition format (metric names sanitized and
  /// prefixed "openfill_").
  std::string prometheus() const;
  /// Aligned human-readable rendering (openfill stats --metrics).
  std::string human() const;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Global collection switch for *instrumentation sites* (the registry
  /// itself always works): sites gate expensive recording on enabled().
  void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  static bool enabled() {
    return instance().enabled_.load(std::memory_order_relaxed);
  }

  /// Find-or-create. Returned references stay valid for the process
  /// lifetime. A histogram's bounds are fixed by its first creation.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = Histogram::latencyBounds());

  /// Zeroes every registered series in place (addresses stay valid).
  void reset();
  /// Every registered series, plus a gauge per entered stage-table row
  /// ("prof.<stage>.seconds", "prof.<stage>.calls") and per nonzero
  /// stage-table counter ("prof.<counter>").
  MetricsSnapshot snapshot() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Convenience: MetricsRegistry::enabled().
inline bool metricsEnabled() { return MetricsRegistry::enabled(); }

/// Pre-registers the cross-subsystem series (engine, cache, scheduler,
/// service, process) so every snapshot carries the full schema with
/// zero values even when a run never exercises a subsystem — a lone
/// `fill` still exports cache.* and sched.* series a scrape can rely on.
void registerCoreSeries();

/// Refreshes "process.peak_rss_mib" / "process.rss_mib" gauges.
void updateProcessGauges();

}  // namespace ofl::obs
