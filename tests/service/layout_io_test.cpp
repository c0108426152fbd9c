// Flat layout I/O without a gds::Library: Layout::writeGds must write the
// bytes of Writer::serialize(toGds()), and loadFlatLayout must build the
// layout Reader::readFile + Layout::fromGds build from the same file.
#include "service/layout_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gds/gds_reader.hpp"
#include "gds/gds_writer.hpp"
#include "gds/oasis.hpp"
#include "geometry/polygon.hpp"
#include "layout/gds_compact.hpp"

namespace ofl::service {
namespace {

using geom::Rect;

std::vector<std::uint8_t> readBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string tempPath(const std::string& name) {
  return ::testing::TempDir() + "ofl_layout_io_" + name;
}

// Random rects with negative and positive coordinates.
std::vector<Rect> randomRects(Rng& rng, int count) {
  std::vector<Rect> rects;
  for (int i = 0; i < count; ++i) {
    const auto x = static_cast<geom::Coord>(rng.uniformInt(-5000, 5000));
    const auto y = static_cast<geom::Coord>(rng.uniformInt(-5000, 5000));
    const auto w = static_cast<geom::Coord>(rng.uniformInt(1, 400));
    const auto h = static_cast<geom::Coord>(rng.uniformInt(1, 400));
    rects.push_back({x, y, x + w, y + h});
  }
  return rects;
}

// Layer 0 random, layer 1 empty, layer 2 fills only, layer 3 wires only.
layout::Layout randomLayout(std::uint64_t seed) {
  Rng rng(seed);
  layout::Layout chip({-5000, -5000, 5400, 5400}, 4);
  chip.layer(0).wires = randomRects(rng, static_cast<int>(rng.uniformInt(0, 60)));
  chip.layer(0).fills = randomRects(rng, static_cast<int>(rng.uniformInt(0, 60)));
  chip.layer(2).fills = randomRects(rng, static_cast<int>(rng.uniformInt(1, 40)));
  chip.layer(3).wires = randomRects(rng, static_cast<int>(rng.uniformInt(1, 40)));
  return chip;
}

TEST(LayoutWriterTest, BytesEqualSerializeOfToGds) {
  std::vector<layout::Layout> layouts;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    layouts.push_back(randomLayout(seed));
  }
  layouts.emplace_back(Rect{0, 0, 100, 100}, 0);  // zero layers
  layouts.emplace_back(Rect{0, 0, 100, 100}, 3);  // layers, no shapes
  const std::string path = tempPath("writer.gds");
  for (const layout::Layout& chip : layouts) {
    const std::vector<std::uint8_t> expected =
        gds::Writer::serialize(chip.toGds());
    const long long bytes = chip.writeGds(path);
    EXPECT_EQ(bytes, static_cast<long long>(expected.size()));
    EXPECT_EQ(readBytes(path), expected);
    EXPECT_EQ(chip.gdsStreamSize(), gds::Writer::streamSize(chip.toGds()));
    EXPECT_EQ(chip.gdsStreamSize(), static_cast<long long>(expected.size()));
  }
  // A named top cell goes through the same records.
  const layout::Layout chip = randomLayout(99);
  EXPECT_EQ(chip.writeGds(path, "CHIP_A"),
            static_cast<long long>(
                gds::Writer::serialize(chip.toGds("CHIP_A")).size()));
  EXPECT_EQ(readBytes(path), gds::Writer::serialize(chip.toGds("CHIP_A")));
  EXPECT_EQ(chip.gdsStreamSize("CHIP_A"),
            gds::Writer::streamSize(chip.toGds("CHIP_A")));
  std::remove(path.c_str());
}

TEST(LayoutWriterTest, UnwritablePathReturnsMinusOne) {
  const layout::Layout chip = randomLayout(3);
  EXPECT_EQ(chip.writeGds("/nonexistent-dir/out.gds"), -1);
}

TEST(WriteFlatLayoutTest, EachFormatAndCompactPairWritesItsLibrary) {
  // A regular fill grid, so the compact Library holds an AREF and differs
  // from the flat one in both formats.
  layout::Layout chip = randomLayout(7);
  for (int r = 0; r < 5; ++r) {
    for (int c = 0; c < 8; ++c) {
      chip.layer(1).fills.push_back(
          {c * 110, r * 130, c * 110 + 90, r * 130 + 100});
    }
  }
  const gds::Library flat = chip.toGds();
  const gds::Library compact = layout::toCompactGds(chip);
  ASSERT_FALSE(compact.cells[0].arefs.empty());
  const struct {
    OutputFormat format;
    bool compact;
    std::vector<std::uint8_t> expected;
  } cases[] = {
      {OutputFormat::kGds, false, gds::Writer::serialize(flat)},
      {OutputFormat::kGds, true, gds::Writer::serialize(compact)},
      {OutputFormat::kOasis, false, gds::OasisWriter::serialize(flat)},
      {OutputFormat::kOasis, true, gds::OasisWriter::serialize(compact)},
  };
  const std::string path = tempPath("write_flat.out");
  for (const auto& c : cases) {
    const long long bytes = writeFlatLayout(chip, path, c.format, c.compact);
    const bool oasis = c.format == OutputFormat::kOasis;
    EXPECT_EQ(bytes, static_cast<long long>(c.expected.size()))
        << "oasis=" << oasis << " compact=" << c.compact;
    EXPECT_EQ(readBytes(path), c.expected)
        << "oasis=" << oasis << " compact=" << c.compact;
  }
  std::remove(path.c_str());
}

// The Library path loadFlatLayout replaced: read the whole Library (GDS,
// else OASIS), die = bbox of every boundary of every cell, layer count =
// highest GDS layer, then Layout::fromGds.
std::optional<layout::Layout> libraryLoad(const std::string& path,
                                          const std::optional<Rect>& die) {
  auto lib = gds::Reader::readFile(path);
  if (!lib.has_value()) lib = gds::OasisReader::readFile(path);
  if (!lib.has_value()) return std::nullopt;
  int maxLayer = 0;
  Rect bbox;
  for (const gds::Cell& cell : lib->cells) {
    for (const gds::Boundary& b : cell.boundaries) {
      maxLayer = std::max<int>(maxLayer, b.layer);
      bbox = bbox.bboxUnion(geom::Polygon(b.vertices).bbox());
    }
  }
  const Rect effectiveDie = die.value_or(bbox);
  if (effectiveDie.empty()) return std::nullopt;
  return layout::Layout::fromGds(*lib, effectiveDie, std::max(maxLayer, 1));
}

void expectSameLayout(const layout::Layout& a, const layout::Layout& b) {
  EXPECT_EQ(a.die(), b.die());
  ASSERT_EQ(a.numLayers(), b.numLayers());
  for (int l = 0; l < a.numLayers(); ++l) {
    EXPECT_EQ(a.layer(l).name, b.layer(l).name);
    EXPECT_EQ(a.layer(l).wires, b.layer(l).wires) << "layer " << l;
    EXPECT_EQ(a.layer(l).fills, b.layer(l).fills) << "layer " << l;
  }
}

// Loads `path` both ways (with and without a given die) and compares.
void expectLoadsAgree(const std::string& path) {
  for (const std::optional<Rect>& die :
       {std::optional<Rect>{}, std::optional<Rect>{Rect{-100, -100, 900, 900}}}) {
    const std::optional<layout::Layout> expected = libraryLoad(path, die);
    ASSERT_TRUE(expected.has_value());
    layout::Layout loaded({}, 0);
    std::string error;
    ASSERT_TRUE(loadFlatLayout(path, die, &loaded, &error)) << error;
    expectSameLayout(loaded, *expected);
  }
}

void writeLibrary(const gds::Library& lib, const std::string& path) {
  ASSERT_GT(gds::Writer::writeFile(lib, path), 0);
}

gds::Boundary boundary(std::int16_t layer, std::int16_t datatype,
                       std::vector<geom::Point> vertices) {
  gds::Boundary b;
  b.layer = layer;
  b.datatype = datatype;
  b.vertices = std::move(vertices);
  return b;
}

gds::Boundary rectBoundary(std::int16_t layer, std::int16_t datatype,
                           const Rect& r) {
  return boundary(layer, datatype,
                  {{r.xl, r.yl}, {r.xh, r.yl}, {r.xh, r.yh}, {r.xl, r.yh}});
}

TEST(LoadFlatLayoutTest, FlatFileMatchesLibraryPath) {
  const std::string path = tempPath("flat.gds");
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const layout::Layout chip = randomLayout(seed);
    ASSERT_GT(chip.writeGds(path), 0);
    expectLoadsAgree(path);
    // And the load gives back the layout that was written (its die is the
    // shapes' bbox, not the chip's).
    layout::Layout loaded({}, 0);
    std::string error;
    ASSERT_TRUE(loadFlatLayout(path, chip.die(), &loaded, &error));
    expectSameLayout(loaded, chip);
  }
  std::remove(path.c_str());
}

TEST(LoadFlatLayoutTest, CompactArefFileMatchesLibraryPath) {
  layout::Layout chip({0, 0, 4000, 4000}, 2);
  for (int r = 0; r < 5; ++r) {
    for (int c = 0; c < 8; ++c) {
      chip.layer(0).fills.push_back(
          {300 + c * 110, 200 + r * 130, 390 + c * 110, 300 + r * 130});
      chip.layer(1).fills.push_back(
          {1000 + c * 70, 1500 + r * 90, 1050 + c * 70, 1560 + r * 90});
    }
  }
  chip.layer(0).wires.push_back({100, 100, 3900, 150});
  chip.layer(1).fills.push_back({3000, 3000, 3111, 3222});  // stays flat
  const std::string path = tempPath("compact.gds");
  writeLibrary(layout::toCompactGds(chip), path);
  expectLoadsAgree(path);
  std::remove(path.c_str());
}

TEST(LoadFlatLayoutTest, OasisFileMatchesLibraryPath) {
  const std::string path = tempPath("layout.oas");
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const layout::Layout chip = randomLayout(seed);
    ASSERT_GT(gds::OasisWriter::writeFile(chip.toGds(), path), 0);
    expectLoadsAgree(path);
  }
  std::remove(path.c_str());
}

TEST(LoadFlatLayoutTest, PolygonZeroAreaAndLayerZeroMatchLibraryPath) {
  gds::Library lib;
  lib.cells.emplace_back();
  gds::Cell& top = lib.cells.back();
  // Non-rectangular: an L and a U, one starting on a vertical edge.
  top.boundaries.push_back(boundary(
      1, 0, {{0, 0}, {100, 0}, {100, 50}, {50, 50}, {50, 100}, {0, 100}}));
  top.boundaries.push_back(boundary(
      2, 1, {{200, 0}, {200, 100}, {240, 100}, {240, 40}, {280, 40},
             {280, 100}, {320, 100}, {320, 0}}));
  // A rect listed from a vertical edge, clockwise.
  top.boundaries.push_back(boundary(2, 0, {{10, 300}, {10, 400}, {90, 400},
                                           {90, 300}}));
  // Zero-area boundaries, one of them the farthest shape in x.
  top.boundaries.push_back(rectBoundary(1, 0, {500, 500, 500, 600}));
  top.boundaries.push_back(rectBoundary(1, 1, {400, 100, 2000, 100}));
  // Layer 0 (dropped from the layout, still counted in the die).
  top.boundaries.push_back(rectBoundary(0, 0, {-300, -300, -200, -200}));
  top.boundaries.push_back(rectBoundary(0, 1, {700, 700, 800, 800}));
  const std::string path = tempPath("shapes.gds");
  writeLibrary(lib, path);
  expectLoadsAgree(path);
  std::remove(path.c_str());
}

TEST(LoadFlatLayoutTest, MasterCellWideningTheBboxMatchesLibraryPath) {
  gds::Library lib;
  lib.cells.resize(3);
  lib.cells[0].name = "TOP";
  lib.cells[0].boundaries.push_back(rectBoundary(1, 0, {0, 0, 500, 500}));
  lib.cells[0].srefs.push_back({"FAR", {100, 100}});
  lib.cells[0].arefs.push_back(gds::Aref{"DOT", {50, 600}, 4, 3, 60, 70});
  // The master's own coordinates lie outside every placed copy.
  lib.cells[1].name = "FAR";
  lib.cells[1].boundaries.push_back(rectBoundary(3, 1, {-900, -800, -850, -760}));
  lib.cells[2].name = "DOT";
  lib.cells[2].boundaries.push_back(rectBoundary(2, 1, {0, 0, 30, 30}));
  lib.cells[2].srefs.push_back({"MISSING", {5, 5}});  // skipped both ways
  const std::string path = tempPath("master.gds");
  writeLibrary(lib, path);
  expectLoadsAgree(path);
  std::remove(path.c_str());
}

TEST(LoadFlatLayoutTest, ReferenceBackToTopCellMatchesLibraryPath) {
  // FlattenStream refuses these while streaming; flattenCell expands them
  // up to its depth cap, and loadFlatLayout must do the same.
  gds::Library self;
  self.cells.emplace_back();
  self.cells[0].name = "TOP";
  self.cells[0].boundaries.push_back(rectBoundary(1, 0, {0, 0, 10, 10}));
  self.cells[0].srefs.push_back({"TOP", {20, 0}});
  const std::string path = tempPath("self.gds");
  writeLibrary(self, path);
  expectLoadsAgree(path);

  gds::Library cycle;
  cycle.cells.resize(2);
  cycle.cells[0].name = "TOP";
  cycle.cells[0].boundaries.push_back(rectBoundary(1, 1, {0, 0, 10, 10}));
  cycle.cells[0].srefs.push_back({"M", {0, 30}});
  cycle.cells[1].name = "M";
  cycle.cells[1].boundaries.push_back(rectBoundary(2, 0, {0, 0, 5, 5}));
  cycle.cells[1].arefs.push_back(gds::Aref{"TOP", {100, 0}, 2, 1, 15, 0});
  writeLibrary(cycle, path);
  expectLoadsAgree(path);
  std::remove(path.c_str());
}

TEST(LoadFlatLayoutTest, UnreadableAndEmptyInputsFail) {
  layout::Layout loaded({}, 0);
  std::string error;
  EXPECT_FALSE(loadFlatLayout("", std::nullopt, &loaded, &error));
  EXPECT_FALSE(loadFlatLayout(tempPath("missing.gds"), std::nullopt, &loaded,
                              &error));
  EXPECT_NE(error.find("cannot read layout file"), std::string::npos);

  const std::string path = tempPath("empty.gds");
  writeLibrary(gds::Library{}, path);
  EXPECT_FALSE(loadFlatLayout(path, std::nullopt, &loaded, &error));
  EXPECT_EQ(error, "layout is empty and no die given");
  ASSERT_TRUE(loadFlatLayout(path, Rect{0, 0, 10, 10}, &loaded, &error));
  EXPECT_EQ(loaded.numLayers(), 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ofl::service
