// Span-based tracer emitting Chrome trace-event JSON (docs/architecture.md,
// "Observability").
//
// Collection is OFF by default: every probe site pays one relaxed atomic
// load and nothing else, so spans stay in per-window and per-lookup code
// permanently. When enabled, each thread appends fixed-size events to its
// own buffer (registered once under a mutex, then touched only by the
// owning thread plus the collector), so concurrent workers never contend.
// Names, categories and argument keys must be string literals — events
// store the pointers, never copies.
//
// The output (`Tracer::writeChromeJson`, CLI `--trace FILE`) is the Chrome
// trace-event "complete event" format: load it in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing. Cross-thread correlation
// uses span args — every engine/service span carries the owning job id —
// rather than flow events, which keeps the writer trivial.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace ofl::obs {

/// One span/instant event. Fixed-size on purpose: recording must never
/// allocate on the hot path.
struct TraceEvent {
  static constexpr int kMaxArgs = 3;

  const char* name = nullptr;  // literal
  const char* cat = "";        // literal: engine, window, sched, cache, ...
  std::uint64_t startNs = 0;   // relative to the tracer epoch
  std::uint64_t durNs = 0;
  char phase = 'X';  // 'X' complete, 'i' instant
  int argCount = 0;
  const char* argKeys[kMaxArgs] = {nullptr, nullptr, nullptr};  // literals
  double argValues[kMaxArgs] = {0, 0, 0};
};

/// A named arg attached to a span ({"job", 3}). Values are doubles: ids,
/// indices and quality telemetry all fit.
using SpanArg = std::pair<const char*, double>;

class Tracer {
 public:
  static Tracer& instance();

  /// Global collection switch; enabling does not clear prior events.
  void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  static bool enabled() {
    return instance().enabled_.load(std::memory_order_relaxed);
  }

  /// Drops every recorded event (thread buffers stay registered).
  void clear();

  /// Nanoseconds since the tracer epoch (process start).
  std::uint64_t nowNs() const;
  /// Converts an externally captured steady_clock point (e.g. a job's
  /// submit time) to epoch-relative nanoseconds, clamped at 0.
  std::uint64_t toEpochNs(std::chrono::steady_clock::time_point t) const;

  /// Appends to the calling thread's buffer. Callers must check enabled()
  /// first (ScopedSpan and the free helpers below do).
  void record(const TraceEvent& event);

  /// Number of events across all thread buffers.
  std::size_t eventCount() const;
  /// Events with their recording thread's stable id, in per-thread order.
  struct CollectedEvent {
    TraceEvent event;
    int tid = 0;
  };
  std::vector<CollectedEvent> collect() const;

  /// Renders {"traceEvents": [...]} (Chrome/Perfetto loadable).
  std::string chromeJson() const;
  bool writeChromeJson(const std::string& path) const;

 private:
  struct ThreadBuffer {
    std::mutex mutex;  // owner appends, collector copies; never contended
    int tid = 0;
    std::vector<TraceEvent> events;
  };

  Tracer();
  ThreadBuffer& localBuffer();

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex registryMutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/// RAII complete-span probe. A no-op (no clock reads, no buffer touch,
/// no event built) while the tracer is disabled or `name` is null
/// (obs::Stage passes null for kernels that record no span, which skips
/// the tracer load); the enabled state is latched at construction so a
/// span closes consistently even if tracing toggles mid-flight.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* cat = "engine") {
    if (name != nullptr && Tracer::enabled()) {
      event_.emplace();
      event_->name = name;
      event_->cat = cat;
      event_->startNs = Tracer::instance().nowNs();
    }
  }
  ScopedSpan(const char* name, const char* cat,
             std::initializer_list<SpanArg> args)
      : ScopedSpan(name, cat) {
    if (event_) {
      for (const SpanArg& a : args) {
        if (event_->argCount >= TraceEvent::kMaxArgs) break;
        event_->argKeys[event_->argCount] = a.first;
        event_->argValues[event_->argCount] = a.second;
        ++event_->argCount;
      }
    }
  }
  ~ScopedSpan() {
    if (event_) {
      Tracer& tracer = Tracer::instance();
      event_->durNs = tracer.nowNs() - event_->startNs;
      tracer.record(*event_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::optional<TraceEvent> event_;  // engaged while armed
};

/// Records a complete span after the fact (e.g. queue-wait measured when
/// the item is finally picked up). No-op while disabled.
void completeSpan(const char* name, const char* cat, std::uint64_t startNs,
                  std::uint64_t durNs, std::initializer_list<SpanArg> args);

/// Records an instant event ("i" phase). No-op while disabled.
void instant(const char* name, const char* cat,
             std::initializer_list<SpanArg> args);

}  // namespace ofl::obs
