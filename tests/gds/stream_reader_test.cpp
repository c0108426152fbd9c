// Streaming reader/writer coverage (ISSUE 9 satellite): the chunked
// RecordStream must be insensitive to where chunk boundaries fall, reject
// truncated files and oversized records with clear errors, and the
// StreamReader event path must reconstruct exactly the Library that
// Reader::parse builds — pinned here over 50 random libraries.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gds/gds_reader.hpp"
#include "gds/gds_writer.hpp"
#include "gds/stream_reader.hpp"
#include "gds/record_builder.hpp"
#include "gds/stream_writer.hpp"
#include "verify/layout_gen.hpp"

namespace ofl::gds {
namespace {

Library sampleStreamLibrary() {
  Library lib;
  lib.name = "STREAMLIB";
  lib.cells.emplace_back();
  Cell& cell = lib.cells.back();
  cell.name = "TOP";
  Writer::addRect(cell, 1, {0, 0, 100, 50});
  Writer::addRect(cell, 2, {-30, -40, 10, 20}, /*datatype=*/1);
  Boundary poly;
  poly.layer = 3;
  poly.vertices = {{0, 0}, {10, 0}, {10, 5}, {5, 5}, {5, 10}, {0, 10}};
  cell.boundaries.push_back(poly);
  cell.srefs.push_back({"SUB", {100, 200}});
  cell.arefs.push_back({"SUB", {0, 0}, 3, 2, 40, 50});
  lib.cells.emplace_back();
  lib.cells.back().name = "SUB";
  Writer::addRect(lib.cells.back(), 1, {1, 2, 3, 4});
  return lib;
}

std::string writeTemp(const std::vector<std::uint8_t>& bytes,
                      const std::string& name) {
  const std::string path = "/tmp/" + name;
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return path;
}

std::vector<std::uint8_t> readAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(StreamReaderTest, ChunkBoundarySplitsAreInvisible) {
  const Library lib = sampleStreamLibrary();
  const auto bytes = Writer::serialize(lib);
  const std::string path = writeTemp(bytes, "ofl_stream_chunks.gds");
  // Chunk sizes deliberately smaller than single records (a BOUNDARY with
  // XY data is tens of bytes), so every record straddles chunk refills.
  for (const std::size_t chunk : {16ul, 17ul, 64ul, 1024ul, bytes.size()}) {
    StreamReader::Options o;
    o.chunkBytes = chunk;
    LibraryCollector collector;
    std::string error;
    ASSERT_TRUE(StreamReader::scan(path, collector, &error, o))
        << "chunk " << chunk << ": " << error;
    EXPECT_EQ(Writer::serialize(collector.library()), bytes)
        << "chunk " << chunk;
  }
  std::remove(path.c_str());
}

TEST(StreamReaderTest, TruncatedFileFailsWithError) {
  const auto bytes = Writer::serialize(sampleStreamLibrary());
  for (const std::size_t cut :
       {1ul, 10ul, bytes.size() / 2, bytes.size() - 2}) {
    const std::vector<std::uint8_t> partial(bytes.begin(),
                                            bytes.begin() + static_cast<long>(cut));
    const std::string path = writeTemp(partial, "ofl_stream_trunc.gds");
    LibraryCollector collector;
    std::string error;
    EXPECT_FALSE(StreamReader::scan(path, collector, &error)) << "cut " << cut;
    EXPECT_FALSE(error.empty()) << "cut " << cut;
    std::remove(path.c_str());
  }
}

TEST(StreamReaderTest, MissingFileFailsWithError) {
  LibraryCollector collector;
  std::string error;
  EXPECT_FALSE(
      StreamReader::scan("/nonexistent/ofl_stream.gds", collector, &error));
  EXPECT_FALSE(error.empty());
}

TEST(StreamReaderTest, OversizedRecordRejectedWhenLimitLowered) {
  const Library lib = sampleStreamLibrary();
  const std::string path =
      writeTemp(Writer::serialize(lib), "ofl_stream_bigrec.gds");
  StreamReader::Options o;
  o.maxRecordBytes = 8;  // the 6-point polygon's XY record exceeds this
  LibraryCollector collector;
  std::string error;
  EXPECT_FALSE(StreamReader::scan(path, collector, &error, o));
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

// Property: for arbitrary libraries the streamed scan, the in-memory
// parse and the buffered readFile all agree byte-for-byte.
TEST(StreamReaderPropertyTest, MatchesReaderOnRandomLibraries) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    const Library lib = testing::LayoutGen::randomLibrary(rng);
    const auto bytes = Writer::serialize(lib);
    const std::string path = writeTemp(bytes, "ofl_stream_prop.gds");

    const auto parsed = Reader::parse(bytes);
    ASSERT_TRUE(parsed.has_value()) << "seed " << seed;
    const auto fromFile = Reader::readFile(path);
    ASSERT_TRUE(fromFile.has_value()) << "seed " << seed;

    StreamReader::Options o;
    o.chunkBytes = 512 + seed * 37;  // vary where refills land
    LibraryCollector collector;
    std::string error;
    ASSERT_TRUE(StreamReader::scan(path, collector, &error, o))
        << "seed " << seed << ": " << error;

    EXPECT_EQ(Writer::serialize(*parsed), bytes) << "seed " << seed;
    EXPECT_EQ(Writer::serialize(*fromFile), bytes) << "seed " << seed;
    EXPECT_EQ(Writer::serialize(collector.library()), bytes)
        << "seed " << seed;
    std::remove(path.c_str());
  }
}

// A file whose element records interleave without ENDEL: HEADER, BGNLIB,
// BGNSTR "TOP", then `body`, then ENDSTR, ENDLIB.
std::vector<std::uint8_t> interleavedFile(
    const std::vector<std::pair<RecordTag, std::vector<std::uint8_t>>>& body) {
  std::vector<std::uint8_t> out;
  std::vector<std::uint8_t> version;
  putU16(version, 600);
  record::append(out, RecordTag::kHeader, version);
  record::append(out, RecordTag::kBgnLib, record::timestampPayload());
  record::appendCellBegin(out, "TOP");
  for (const auto& [tag, payload] : body) record::append(out, tag, payload);
  record::appendCellEnd(out);
  record::appendFileEpilogue(out);
  return out;
}

std::vector<std::uint8_t> u16Payload(std::uint16_t v) {
  std::vector<std::uint8_t> p;
  putU16(p, v);
  return p;
}

std::vector<std::uint8_t> rectXy() {
  std::vector<std::uint8_t> p;
  for (const geom::Coord v : {5, 6, 15, 6, 15, 16, 5, 16, 5, 6}) {
    putI32(p, static_cast<std::int32_t>(v));
  }
  return p;
}

// Reader::parse and StreamReader feed the same RecordMachine, in which an
// element record closes the element still open: properties that follow
// apply to the new element only, in both readers.
TEST(ReaderParseTest, InterleavedElementsFollowTheRecordMachine) {
  using P = std::vector<std::uint8_t>;
  const auto rejected = interleavedFile({{RecordTag::kBoundary, P{}},
                                         {RecordTag::kSref, P{}},
                                         {RecordTag::kLayer, u16Payload(1)},
                                         {RecordTag::kEndEl, P{}}});
  EXPECT_FALSE(Reader::parse(rejected).has_value());
  const std::string rejectedPath = writeTemp(rejected, "ofl_interleave_a.gds");
  LibraryCollector ignored;
  std::string error;
  EXPECT_FALSE(StreamReader::scan(rejectedPath, ignored, &error));
  EXPECT_EQ(error, "malformed LAYER");
  std::remove(rejectedPath.c_str());

  const auto accepted = interleavedFile(
      {{RecordTag::kSref, P{}},
       {RecordTag::kSname, record::asciiPayload("SUB")},
       {RecordTag::kBoundary, P{}},
       {RecordTag::kLayer, u16Payload(2)},
       {RecordTag::kXy, rectXy()},
       {RecordTag::kEndEl, P{}}});
  const auto parsed = Reader::parse(accepted);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->cells.size(), 1u);
  const Cell& top = parsed->cells[0];
  ASSERT_EQ(top.srefs.size(), 1u);
  EXPECT_EQ(top.srefs[0].cellName, "SUB");
  EXPECT_EQ(top.srefs[0].origin, geom::Point(0, 0));
  ASSERT_EQ(top.boundaries.size(), 1u);
  EXPECT_EQ(top.boundaries[0].layer, 2);
  EXPECT_EQ(top.boundaries[0].vertices,
            (std::vector<geom::Point>{{5, 6}, {15, 6}, {15, 16}, {5, 16}}));

  const std::string acceptedPath = writeTemp(accepted, "ofl_interleave_b.gds");
  LibraryCollector collector;
  ASSERT_TRUE(StreamReader::scan(acceptedPath, collector, &error)) << error;
  EXPECT_EQ(Writer::serialize(collector.library()), Writer::serialize(*parsed));
  std::remove(acceptedPath.c_str());
}

// The append-only StreamWriter must emit exactly the bytes Writer::serialize
// produces — the sharded engine's byte-identity guarantee rests on this.
TEST(StreamWriterTest, ByteIdenticalToBatchSerialize) {
  const Library lib = sampleStreamLibrary();
  Library batch;  // StreamWriter defaults: name OPENFILL, 1e-3 / 1e-9 units
  batch.cells = lib.cells;
  const std::string path = "/tmp/ofl_stream_writer.gds";

  StreamWriter writer(path);
  ASSERT_TRUE(writer.ok());
  for (const Cell& cell : batch.cells) {
    writer.beginCell(cell.name);
    for (const Boundary& b : cell.boundaries) writer.addBoundary(b);
    for (const Sref& s : cell.srefs) writer.addSref(s);
    for (const Aref& a : cell.arefs) writer.addAref(a);
    writer.endCell();
  }
  const long long bytes = writer.finish();
  ASSERT_GT(bytes, 0);

  const auto expected = Writer::serialize(batch);
  EXPECT_EQ(static_cast<long long>(expected.size()), bytes);
  EXPECT_EQ(readAll(path), expected);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ofl::gds
