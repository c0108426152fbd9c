#include "service/layout_io.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "gds/gds_writer.hpp"
#include "gds/oasis.hpp"
#include "gds/stream_flatten.hpp"
#include "gds/stream_reader.hpp"
#include "geometry/decompose.hpp"
#include "layout/gds_compact.hpp"
#include "obs/trace.hpp"

namespace ofl::service {
namespace {

// Builds the layout straight from reader events, with the result
// Reader::readFile + Layout::fromGds would give: the die extents and layer
// count from gds::ExtentScan; the rects from the top cell flattened
// (FlattenStream emits flattenCell's order), decomposed into per-layer
// wire (datatype != 1) and fill (datatype 1) vectors. GDS layer <= 0 is
// dropped.
class LayoutSink : public gds::StreamEvents {
 public:
  explicit LayoutSink(bool keepTop)
      : flatten_([this](const gds::Boundary& b) { addFlat(b); },
                 /*maxDepth=*/8, keepTop) {}
  LayoutSink(const LayoutSink&) = delete;  // flatten_ points back at this
  LayoutSink& operator=(const LayoutSink&) = delete;

  void onBeginCell() override { flatten_.onBeginCell(); }
  void onCellName(const std::string& name) override {
    flatten_.onCellName(name);
  }
  void onBoundary(const gds::Boundary& b) override {
    extents_.onBoundary(b);
    flatten_.onBoundary(b);
  }
  void onSref(const gds::Sref& s) override { flatten_.onSref(s); }
  void onAref(const gds::Aref& a) override { flatten_.onAref(a); }

  bool finish(std::string* error) { return flatten_.finish(error); }

  const geom::Rect& bbox() const { return extents_.bbox; }

  /// Moves the rects into a layout of max(maxLayer, 1) layers. Every flat
  /// boundary is a translated copy of a counted one, so none lies above
  /// maxLayer.
  layout::Layout take(const geom::Rect& die) {
    layout::Layout out(die, std::max(extents_.maxLayer, 1));
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      out.layer(static_cast<int>(l)).wires = std::move(layers_[l].wires);
      out.layer(static_cast<int>(l)).fills = std::move(layers_[l].fills);
    }
    return out;
  }

 private:
  void addFlat(const gds::Boundary& b) {
    const int l = b.layer - 1;
    if (l < 0) return;
    const auto index = static_cast<std::size_t>(l);
    if (index >= layers_.size()) layers_.resize(index + 1);
    layout::Layer& layer = layers_[index];
    geom::decomposeInto(b.vertices, b.datatype == 1 ? layer.fills : layer.wires);
  }

  gds::ExtentScan extents_;
  gds::FlattenStream flatten_;
  std::vector<layout::Layer> layers_;
};

enum class Format { kGds, kOasis };

bool scan(Format format, const std::string& path, gds::StreamEvents& events) {
  return format == Format::kGds
             ? gds::StreamReader::scan(path, events, nullptr)
             : gds::OasisStreamReader::scan(path, events, nullptr);
}

}  // namespace

bool loadFlatLayout(const std::string& path,
                    const std::optional<geom::Rect>& die, layout::Layout* out,
                    std::string* error) {
  obs::ScopedSpan span("gds.read", "io");
  if (path.empty()) {
    *error = "missing input file path";
    return false;
  }
  // GDS first, then OFL-OASIS, each into a fresh sink.
  Format format = Format::kGds;
  auto sink = std::make_unique<LayoutSink>(/*keepTop=*/false);
  if (!scan(format, path, *sink)) {
    format = Format::kOasis;
    sink = std::make_unique<LayoutSink>(/*keepTop=*/false);
    if (!scan(format, path, *sink)) {
      *error = "cannot read layout file: " + path;
      return false;
    }
  }
  if (!sink->finish(nullptr)) {
    // A reference back to the top cell: rescan keeping the top geometry so
    // it expands as flattenCell expands it.
    sink = std::make_unique<LayoutSink>(/*keepTop=*/true);
    if (!scan(format, path, *sink) || !sink->finish(nullptr)) {
      *error = "cannot read layout file: " + path;
      return false;
    }
  }
  const geom::Rect effectiveDie = die.value_or(sink->bbox());
  if (effectiveDie.empty()) {
    *error = "layout is empty and no die given";
    return false;
  }
  *out = sink->take(effectiveDie);
  return true;
}

long long writeFlatLayout(const layout::Layout& chip, const std::string& path,
                          OutputFormat format, bool compact) {
  if (format == OutputFormat::kGds && !compact) {
    return chip.writeGds(path);  // records its own gds.write
  }
  const bool oasis = format == OutputFormat::kOasis;
  obs::ScopedSpan span(oasis ? "oasis.write" : "gds.write", "io");
  const gds::Library lib = compact ? layout::toCompactGds(chip) : chip.toGds();
  return oasis ? gds::OasisWriter::writeFile(lib, path)
               : gds::Writer::writeFile(lib, path);
}

}  // namespace ofl::service
