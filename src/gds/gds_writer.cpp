#include "gds/gds_writer.hpp"

#include <cstdio>
#include <span>

#include "gds/gds_records.hpp"
#include "gds/record_builder.hpp"

namespace ofl::gds {

namespace record {

void append(std::vector<std::uint8_t>& out, RecordTag tag,
            const std::vector<std::uint8_t>& payload) {
  putU16(out, static_cast<std::uint16_t>(4 + payload.size()));
  putU16(out, static_cast<std::uint16_t>(tag));
  out.insert(out.end(), payload.begin(), payload.end());
}

std::vector<std::uint8_t> asciiPayload(const std::string& s) {
  std::vector<std::uint8_t> p(s.begin(), s.end());
  if (p.size() % 2 != 0) p.push_back(0);  // GDS pads strings to even length
  return p;
}

std::vector<std::uint8_t> timestampPayload() {
  std::vector<std::uint8_t> p;
  for (int i = 0; i < 12; ++i) putU16(p, 0);
  return p;
}

std::size_t asciiRecordBytes(const std::string& s) {
  return 4 + (s.size() + 1) / 2 * 2;
}

std::size_t prologueBytes(const std::string& libName) {
  return (4 + 2) + (4 + 24) + asciiRecordBytes(libName) + (4 + 16);
}

std::size_t cellBeginBytes(const std::string& name) {
  return (4 + 24) + asciiRecordBytes(name);
}

void appendFilePrologue(std::vector<std::uint8_t>& out,
                        const std::string& libName, double userUnitsPerDbu,
                        double metersPerDbu) {
  {
    std::vector<std::uint8_t> p;
    putU16(p, 600);  // stream version
    append(out, RecordTag::kHeader, p);
  }
  append(out, RecordTag::kBgnLib, timestampPayload());
  append(out, RecordTag::kLibName, asciiPayload(libName));
  {
    std::vector<std::uint8_t> p;
    const std::uint64_t uu = encodeReal8(userUnitsPerDbu);
    const std::uint64_t mu = encodeReal8(metersPerDbu);
    for (int i = 7; i >= 0; --i)
      p.push_back(static_cast<std::uint8_t>((uu >> (8 * i)) & 0xFF));
    for (int i = 7; i >= 0; --i)
      p.push_back(static_cast<std::uint8_t>((mu >> (8 * i)) & 0xFF));
    append(out, RecordTag::kUnits, p);
  }
}

void appendCellBegin(std::vector<std::uint8_t>& out, const std::string& name) {
  append(out, RecordTag::kBgnStr, timestampPayload());
  append(out, RecordTag::kStrName, asciiPayload(name));
}

void appendSref(std::vector<std::uint8_t>& out, const Sref& s) {
  append(out, RecordTag::kSref);
  append(out, RecordTag::kSname, asciiPayload(s.cellName));
  std::vector<std::uint8_t> p;
  putI32(p, static_cast<std::int32_t>(s.origin.x));
  putI32(p, static_cast<std::int32_t>(s.origin.y));
  append(out, RecordTag::kXy, p);
  append(out, RecordTag::kEndEl);
}

void appendAref(std::vector<std::uint8_t>& out, const Aref& a) {
  append(out, RecordTag::kAref);
  append(out, RecordTag::kSname, asciiPayload(a.cellName));
  {
    std::vector<std::uint8_t> p;
    putU16(p, static_cast<std::uint16_t>(a.cols));
    putU16(p, static_cast<std::uint16_t>(a.rows));
    append(out, RecordTag::kColRow, p);
  }
  // AREF XY: origin, origin displaced cols*pitchX in x, origin displaced
  // rows*pitchY in y (GDSII stores the far lattice corners).
  std::vector<std::uint8_t> p;
  putI32(p, static_cast<std::int32_t>(a.origin.x));
  putI32(p, static_cast<std::int32_t>(a.origin.y));
  putI32(p, static_cast<std::int32_t>(a.origin.x + a.cols * a.pitchX));
  putI32(p, static_cast<std::int32_t>(a.origin.y));
  putI32(p, static_cast<std::int32_t>(a.origin.x));
  putI32(p, static_cast<std::int32_t>(a.origin.y + a.rows * a.pitchY));
  append(out, RecordTag::kXy, p);
  append(out, RecordTag::kEndEl);
}

namespace {

std::uint8_t* put16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v & 0xFF);
  return p + 2;
}

std::uint8_t* put32(std::uint8_t* p, geom::Coord v) {
  const auto u = static_cast<std::uint32_t>(static_cast<std::int32_t>(v));
  p[0] = static_cast<std::uint8_t>(u >> 24);
  p[1] = static_cast<std::uint8_t>((u >> 16) & 0xFF);
  p[2] = static_cast<std::uint8_t>((u >> 8) & 0xFF);
  p[3] = static_cast<std::uint8_t>(u & 0xFF);
  return p + 4;
}

std::uint8_t* putHeader(std::uint8_t* p, std::size_t payloadBytes,
                        RecordTag tag) {
  p = put16(p, static_cast<std::uint16_t>(4 + payloadBytes));
  return put16(p, static_cast<std::uint16_t>(tag));
}

// BOUNDARY, LAYER, DATATYPE, XY (the loop plus its repeated first vertex,
// which GDS stores to close it), ENDEL: boundaryBytes(loop.size()) bytes.
void encodeBoundary(std::uint8_t* p, std::int16_t layer, std::int16_t datatype,
                    std::span<const geom::Point> loop) {
  p = putHeader(p, 0, RecordTag::kBoundary);
  p = putHeader(p, 2, RecordTag::kLayer);
  p = put16(p, static_cast<std::uint16_t>(layer));
  p = putHeader(p, 2, RecordTag::kDataType);
  p = put16(p, static_cast<std::uint16_t>(datatype));
  const std::size_t points = loop.empty() ? 0 : loop.size() + 1;
  p = putHeader(p, 8 * points, RecordTag::kXy);
  for (const geom::Point& pt : loop) {
    p = put32(p, pt.x);
    p = put32(p, pt.y);
  }
  if (!loop.empty()) {
    p = put32(p, loop.front().x);
    p = put32(p, loop.front().y);
  }
  putHeader(p, 0, RecordTag::kEndEl);
}

void appendEncoded(std::vector<std::uint8_t>& out, std::int16_t layer,
                   std::int16_t datatype, std::span<const geom::Point> loop) {
  const std::size_t at = out.size();
  out.resize(at + boundaryBytes(loop.size()));
  encodeBoundary(out.data() + at, layer, datatype, loop);
}

}  // namespace

void appendBoundary(std::vector<std::uint8_t>& out, const Boundary& b) {
  appendEncoded(out, b.layer, b.datatype, b.vertices);
}

void appendRect(std::vector<std::uint8_t>& out, std::int16_t layer,
                const geom::Rect& r, std::int16_t datatype) {
  const geom::Point loop[4] = {
      {r.xl, r.yl}, {r.xh, r.yl}, {r.xh, r.yh}, {r.xl, r.yh}};
  appendEncoded(out, layer, datatype, loop);
}

void appendCellEnd(std::vector<std::uint8_t>& out) {
  append(out, RecordTag::kEndStr);
}

void appendFileEpilogue(std::vector<std::uint8_t>& out) {
  append(out, RecordTag::kEndLib);
}

}  // namespace record

std::vector<std::uint8_t> Writer::serialize(const Library& lib) {
  std::vector<std::uint8_t> out;
  record::appendFilePrologue(out, lib.name, lib.userUnitsPerDbu,
                             lib.metersPerDbu);
  for (const Cell& cell : lib.cells) {
    record::appendCellBegin(out, cell.name);
    for (const Boundary& b : cell.boundaries) record::appendBoundary(out, b);
    for (const Sref& s : cell.srefs) record::appendSref(out, s);
    for (const Aref& a : cell.arefs) record::appendAref(out, a);
    record::appendCellEnd(out);
  }
  record::appendFileEpilogue(out);
  return out;
}

long long Writer::writeFile(const Library& lib, const std::string& path) {
  const std::vector<std::uint8_t> bytes = serialize(lib);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return -1;
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  return written == bytes.size() ? static_cast<long long>(bytes.size()) : -1;
}

long long Writer::streamSize(const Library& lib) {
  // Closed-form accounting from the per-record sizes serialize() emits.
  auto size = static_cast<long long>(record::prologueBytes(lib.name));
  for (const Cell& cell : lib.cells) {
    size += static_cast<long long>(record::cellBeginBytes(cell.name));
    for (const Boundary& b : cell.boundaries) {
      size += static_cast<long long>(record::boundaryBytes(b.vertices.size()));
    }
    for (const Sref& s : cell.srefs) {
      size += 4;                    // SREF
      size += static_cast<long long>(record::asciiRecordBytes(s.cellName));
      size += 4 + 8;                // XY
      size += 4;                    // ENDEL
    }
    for (const Aref& a : cell.arefs) {
      size += 4;                    // AREF
      size += static_cast<long long>(record::asciiRecordBytes(a.cellName));
      size += 4 + 4;                // COLROW
      size += 4 + 24;               // XY (3 points)
      size += 4;                    // ENDEL
    }
    size += static_cast<long long>(record::kCellEndBytes);
  }
  return size + static_cast<long long>(record::kEpilogueBytes);
}

void Writer::addRect(Cell& cell, std::int16_t layer, const geom::Rect& r,
                     std::int16_t datatype) {
  Boundary b;
  b.layer = layer;
  b.datatype = datatype;
  b.vertices = {{r.xl, r.yl}, {r.xh, r.yl}, {r.xh, r.yh}, {r.xl, r.yh}};
  cell.boundaries.push_back(std::move(b));
}

}  // namespace ofl::gds
