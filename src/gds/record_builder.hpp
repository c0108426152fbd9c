// Shared GDSII record encoders.
//
// Writer::serialize (in-memory) and StreamWriter (bounded-memory append)
// both emit bytes through these helpers, so the streamed output is
// byte-identical to the batch output by construction rather than by test
// alone. Payload layouts follow gds_records.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gds/gds_records.hpp"
#include "gds/gds_writer.hpp"

namespace ofl::gds::record {

void append(std::vector<std::uint8_t>& out, RecordTag tag,
            const std::vector<std::uint8_t>& payload = {});

std::vector<std::uint8_t> asciiPayload(const std::string& s);

/// 12 zeroed int16 fields (modification + access time). The fixed epoch
/// keeps output byte-identical across runs, which the tests rely on.
std::vector<std::uint8_t> timestampPayload();

/// Record sizes in bytes, for closed-form stream sizes.
/// An ASCII record (LIBNAME, STRNAME, SNAME) with its even-length padding.
std::size_t asciiRecordBytes(const std::string& s);
/// HEADER + BGNLIB + LIBNAME + UNITS.
std::size_t prologueBytes(const std::string& libName);
/// BGNSTR + STRNAME.
std::size_t cellBeginBytes(const std::string& name);
/// BOUNDARY + LAYER + DATATYPE + XY + ENDEL for a loop of `vertices`
/// points (XY repeats the first one when there is any).
constexpr std::size_t boundaryBytes(std::size_t vertices) {
  return 4 + 6 + 6 + 4 + 8 * (vertices == 0 ? 0 : vertices + 1) + 4;
}
/// One rect as appendRect writes it.
inline constexpr std::size_t kRectBytes = boundaryBytes(4);
static_assert(kRectBytes == 64);
inline constexpr std::size_t kCellEndBytes = 4;   // ENDSTR
inline constexpr std::size_t kEpilogueBytes = 4;  // ENDLIB

/// HEADER + BGNLIB + LIBNAME + UNITS.
void appendFilePrologue(std::vector<std::uint8_t>& out,
                        const std::string& libName, double userUnitsPerDbu,
                        double metersPerDbu);

/// BGNSTR + STRNAME.
void appendCellBegin(std::vector<std::uint8_t>& out, const std::string& name);

void appendBoundary(std::vector<std::uint8_t>& out, const Boundary& b);
void appendSref(std::vector<std::uint8_t>& out, const Sref& s);
void appendAref(std::vector<std::uint8_t>& out, const Aref& a);

/// One rect as a BOUNDARY, in Writer::addRect vertex order: kRectBytes
/// bytes through the same encoder as appendBoundary, with no temporaries.
void appendRect(std::vector<std::uint8_t>& out, std::int16_t layer,
                const geom::Rect& r, std::int16_t datatype = 0);

void appendCellEnd(std::vector<std::uint8_t>& out);
void appendFileEpilogue(std::vector<std::uint8_t>& out);

}  // namespace ofl::gds::record
