#include "workload.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "common/json_util.hpp"
#include "contest/benchmark_generator.hpp"
#include "gds/gds_writer.hpp"
#include "layout/window_grid.hpp"
#include "service/layout_io.hpp"
#include "service/manifest.hpp"

namespace perfbench {

using ofl::geom::Coord;
using ofl::geom::Rect;

ofl::fill::FillEngineOptions engineOptions(int threads) {
  ofl::fill::FillEngineOptions o = ofl::service::defaultEngineOptions();
  o.numThreads = threads;
  return o;
}

ofl::layout::Layout loadLayout(const std::string& path) {
  ofl::layout::Layout chip({}, 0);
  std::string error;
  if (!ofl::service::loadFlatLayout(path, std::nullopt, &chip, &error)) {
    throw std::runtime_error(error);
  }
  return chip;
}

long long writeLayout(const ofl::layout::Layout& chip,
                      const std::string& path) {
  const long long bytes = ofl::gds::Writer::writeFile(chip.toGds(), path);
  if (bytes < 0) throw std::runtime_error("cannot write " + path);
  return bytes;
}

ofl::layout::Layout generateSuiteM(std::uint64_t seed) {
  ofl::contest::BenchmarkSpec spec =
      ofl::contest::BenchmarkGenerator::spec("m");
  spec.seed = seed;
  return ofl::contest::BenchmarkGenerator::generate(spec);
}

EcoEdit nextEdit(ofl::Rng& rng, const ofl::layout::Layout& chip,
                 const ofl::fill::FillEngineOptions& options) {
  const ofl::layout::WindowGrid grid(chip.die(), options.windowSize);
  const int i = static_cast<int>(rng.uniformInt(0, grid.cols() - 1));
  const int j = static_cast<int>(rng.uniformInt(0, grid.rows() - 1));
  EcoEdit edit;
  edit.layer = static_cast<int>(rng.uniformInt(0, chip.numLayers() - 1));
  edit.changed = grid.windowRect(i, j).expanded(-2 * options.rules.minSpacing);
  // A sub-pitch jog: large enough to move the fill regions around every
  // moved wire, small enough that most wires stay inside `changed`.
  const Coord step = 2 * options.rules.minSpacing *
                     (rng.bernoulli(0.5) ? 1 : -1);
  if (rng.bernoulli(0.5)) {
    edit.dx = step;
  } else {
    edit.dy = step;
  }
  return edit;
}

std::size_t applyEdit(ofl::layout::Layout& chip, const EcoEdit& edit) {
  std::size_t moved = 0;
  for (Rect& wire : chip.layer(edit.layer).wires) {
    const Rect shifted{wire.xl + edit.dx, wire.yl + edit.dy, wire.xh + edit.dx,
                       wire.yh + edit.dy};
    if (edit.changed.contains(wire) && edit.changed.contains(shifted)) {
      wire = shifted;
      ++moved;
    }
  }
  return moved;
}

std::size_t affectedWindows(const ofl::layout::Layout& chip,
                            const ofl::fill::FillEngineOptions& options,
                            const Rect& changed) {
  // Same window range FillEngine::runIncremental derives.
  const ofl::layout::WindowGrid grid(chip.die(), options.windowSize);
  int i0 = 0, j0 = 0, i1 = 0, j1 = 0;
  grid.windowRange(changed.expanded(options.rules.minSpacing), i0, j0, i1, j1);
  return static_cast<std::size_t>(i1 - i0 + 1) *
         static_cast<std::size_t>(j1 - j0 + 1);
}

Span::Span(const char* name, int round, int threads) {
  event_.name = name;
  event_.cat = "perfbench";
  event_.startNs = ofl::obs::Tracer::instance().nowNs();
  event_.argKeys[0] = "round";
  event_.argValues[0] = round;
  event_.argCount = 1;
  if (threads > 0) {
    event_.argKeys[1] = "threads";
    event_.argValues[1] = threads;
    event_.argCount = 2;
  }
}

double Span::end() {
  const double seconds = timer_.elapsedSeconds();
  event_.durNs = static_cast<std::uint64_t>(seconds * 1e9);
  ofl::obs::Tracer::instance().record(event_);
  return seconds;
}

void JsonObject::add(const std::string& key, double value) {
  if (body_.size() > 1) body_ += ", ";
  body_ += "\"";
  ofl::json::appendEscaped(body_, key);
  body_ += "\": ";
  ofl::json::appendNumber(body_, value);
}

void JsonObject::add(const std::string& key,
                     const std::vector<double>& values) {
  if (body_.size() > 1) body_ += ", ";
  body_ += "\"";
  ofl::json::appendEscaped(body_, key);
  body_ += "\": [";
  for (std::size_t k = 0; k < values.size(); ++k) {
    if (k > 0) body_ += ", ";
    ofl::json::appendNumber(body_, values[k]);
  }
  body_ += "]";
}

std::string required(const ofl::cli::Args& args, const std::string& key) {
  const std::string value = args.getChecked(key, "");
  if (value.empty()) throw ofl::cli::ArgError("missing --" + key);
  return value;
}

long long requiredInt(const ofl::cli::Args& args, const std::string& key) {
  required(args, key);
  return args.getIntChecked(key, 0);
}

double requiredDouble(const ofl::cli::Args& args, const std::string& key) {
  required(args, key);
  return args.getDoubleChecked(key, 0.0);
}

std::vector<std::uint8_t> readFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
