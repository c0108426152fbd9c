// Shared pieces of the perfbench tool: engine options, seeded inputs,
// the ECO edit model, traced-run spans and one-line JSON output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "fill/fill_engine.hpp"
#include "layout/layout.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// The options `openfill fill` runs with when given only --threads, so the
/// in-process reference and the child-process ops solve the same problem.
ofl::fill::FillEngineOptions engineOptions(int threads);

/// Reads a layout file the way `openfill fill` does (service::loadFlatLayout:
/// the die is the shapes' bounding box). Throws std::runtime_error.
ofl::layout::Layout loadLayout(const std::string& path);

/// Writes `chip` as GDSII; returns the byte count. Throws
/// std::runtime_error.
long long writeLayout(const ofl::layout::Layout& chip, const std::string& path);

/// Suite m wires, generated through BenchmarkSpec::seed.
ofl::layout::Layout generateSuiteM(std::uint64_t seed);

/// One ECO edit: on `layer`, every wire that lies inside `changed` and
/// still does after a shift by (dx, dy) moves by that shift. `changed`
/// sits inside one window, at least twice the spacing rule from its
/// border, so the engine re-fills exactly that window.
struct EcoEdit {
  int layer = 0;
  ofl::geom::Rect changed;
  ofl::geom::Coord dx = 0;
  ofl::geom::Coord dy = 0;
};

/// Draws the next edit of a seeded sequence.
EcoEdit nextEdit(ofl::Rng& rng, const ofl::layout::Layout& chip,
                 const ofl::fill::FillEngineOptions& options);

/// Applies `edit` to the wires of `chip`; returns the number moved.
std::size_t applyEdit(ofl::layout::Layout& chip, const EcoEdit& edit);

/// Windows FillEngine::runIncremental re-fills for `changed`.
std::size_t affectedWindows(const ofl::layout::Layout& chip,
                            const ofl::fill::FillEngineOptions& options,
                            const ofl::geom::Rect& changed);

/// A span of the traced run, recorded on obs::Tracer when it ends, with
/// its round (and for a staged op its thread count) as args. The tracer's
/// global switch stays off: the engine's own probes stay no-ops and the
/// trace holds only the spans the benchmark opens around its calls into
/// the layers. Spans nest by time. `name` must be a string literal.
class Span {
 public:
  Span(const char* name, int round, int threads = 0);
  /// Records the span and returns its duration in seconds.
  double end();

 private:
  ofl::obs::TraceEvent event_;
  ofl::Timer timer_;
};

/// One flat JSON object of numbers and number arrays, keys in insertion
/// order, doubles at full precision. Units are attached by run.py.
class JsonObject {
 public:
  void add(const std::string& key, double value);
  void add(const std::string& key, const std::vector<double>& values);
  std::string str() const { return body_ + "}"; }

 private:
  std::string body_ = "{";
};

/// The value of option --`key`; throws ofl::cli::ArgError when it is
/// missing, since run.py passes every option.
std::string required(const ofl::cli::Args& args, const std::string& key);
long long requiredInt(const ofl::cli::Args& args, const std::string& key);
double requiredDouble(const ofl::cli::Args& args, const std::string& key);

std::vector<std::uint8_t> readFileBytes(const std::string& path);

double median(std::vector<double> values);

}  // namespace perfbench
