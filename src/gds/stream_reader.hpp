// Chunked GDSII stream reader.
//
// Parses records from a bounded sliding buffer (gds/byte_source.hpp) and
// reports shapes through an event sink, so arbitrarily large inputs are
// read with O(record) memory instead of O(file). Consumers of the events:
//   - Reader::readFile builds a full Library through LibraryCollector
//     (the non-streamed path no longer slurps the file);
//   - service::loadFlatLayout builds a Layout's rect vectors directly;
//   - fill::ShardedEngine routes boundaries straight into per-window-row
//     spools without materializing a Layout at all.
//
// RecordMachine is the one GDS record state machine: StreamReader feeds it
// from the file, Reader::parse from an in-memory byte span, so both accept,
// skip and reject exactly the same record sequences.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "gds/byte_source.hpp"
#include "gds/gds_records.hpp"
#include "gds/gds_writer.hpp"

namespace ofl::gds {

/// Pull-based record source: yields (tag, payload) pairs from a bounded
/// buffer. Payload spans are valid until the next next() call.
class RecordStream {
 public:
  struct Options {
    std::size_t chunkBytes = 256 * 1024;
    /// Upper bound on one record (header + payload). GDSII length fields
    /// are 16-bit so 65535 always suffices; tests lower it to exercise
    /// the oversized-record rejection.
    std::size_t maxRecordBytes = 65535;
  };

  enum class Status { kRecord, kEnd, kError };

  explicit RecordStream(const std::string& path);
  RecordStream(const std::string& path, const Options& options);

  /// kRecord: tag/payload filled. kEnd: clean end of file. kError: IO or
  /// framing failure, error() explains.
  Status next(RecordTag& tag, std::span<const std::uint8_t>& payload);

  const std::string& error() const { return error_; }

 private:
  ByteSource source_;
  std::size_t maxRecordBytes_;
  std::size_t pendingConsume_ = 0;  // previous record, consumed lazily
  std::string error_;
};

/// Event sink for StreamReader::scan. Default implementations ignore the
/// event, so consumers override only what they need.
class StreamEvents {
 public:
  virtual ~StreamEvents() = default;
  /// Library name and UNITS, reported as the records arrive.
  virtual void onLibraryName(const std::string& /*name*/) {}
  virtual void onUnits(double /*userUnitsPerDbu*/, double /*metersPerDbu*/) {}
  /// A structure begins (BGNSTR); its name follows via onCellName.
  virtual void onBeginCell() {}
  virtual void onCellName(const std::string& /*name*/) {}
  /// Completed elements (at ENDEL / structure end / next element).
  virtual void onBoundary(const Boundary& /*b*/) {}
  virtual void onSref(const Sref& /*s*/) {}
  virtual void onAref(const Aref& /*a*/) {}
  virtual void onEndCell() {}
};

/// Record-level GDSII state machine: elements are accumulated across their
/// LAYER/DATATYPE/XY/SNAME/COLROW records and committed to the sink when
/// the element (or its structure) ends. Unknown records are skipped; the
/// repeated closing vertex of an XY loop is stripped. An element record
/// (BOUNDARY/SREF/AREF) or BGNSTR commits the element still open, so the
/// properties that follow apply only to the new one.
class RecordMachine {
 public:
  enum class Status { kContinue, kDone, kError };

  explicit RecordMachine(StreamEvents& events) : events_(events) {}

  /// kDone after ENDLIB; kError (error() explains) on malformed input.
  Status feed(RecordTag tag, std::span<const std::uint8_t> payload);

  const std::string& error() const { return error_; }

 private:
  enum class Element { kNone, kBoundary, kSref, kAref };

  Status fail(const char* message);
  void commitElement();

  StreamEvents& events_;
  bool sawHeader_ = false;
  bool inCell_ = false;
  Element element_ = Element::kNone;
  Boundary boundary_;  // reused: its vertex buffer keeps its capacity
  Sref sref_;
  Aref aref_;
  std::string error_;
};

class StreamReader {
 public:
  using Options = RecordStream::Options;

  /// Scans `path`, firing events in stream order. Returns false (with
  /// `*error` set when non-null) on IO failure or malformed input — the
  /// same inputs Reader::parse rejects.
  static bool scan(const std::string& path, StreamEvents& events,
                   std::string* error, const Options& options = {});
};

/// StreamEvents sink for the die and layer-count rule of a loaded layout:
/// the bounding box and the highest GDS layer over every boundary of every
/// structure, unflattened (service::loadFlatLayout and the sharded
/// engine's pre-scan both use it).
class ExtentScan : public StreamEvents {
 public:
  void onBoundary(const Boundary& b) override;
  geom::Rect bbox;  // {0,0,0,0} until a boundary; bboxUnion treats it as empty
  int maxLayer = 0;
};

/// StreamEvents sink that assembles a full Library (Reader::readFile's
/// backing store; also used by the stream-vs-batch equivalence tests).
class LibraryCollector : public StreamEvents {
 public:
  void onLibraryName(const std::string& name) override { lib_.name = name; }
  void onUnits(double uu, double mu) override {
    lib_.userUnitsPerDbu = uu;
    lib_.metersPerDbu = mu;
  }
  void onBeginCell() override { lib_.cells.emplace_back(); }
  void onCellName(const std::string& name) override {
    if (!lib_.cells.empty()) lib_.cells.back().name = name;
  }
  void onBoundary(const Boundary& b) override {
    if (!lib_.cells.empty()) lib_.cells.back().boundaries.push_back(b);
  }
  void onSref(const Sref& s) override {
    if (!lib_.cells.empty()) lib_.cells.back().srefs.push_back(s);
  }
  void onAref(const Aref& a) override {
    if (!lib_.cells.empty()) lib_.cells.back().arefs.push_back(a);
  }

  Library& library() { return lib_; }
  Library takeLibrary() { return std::move(lib_); }

 private:
  Library lib_;
};

}  // namespace ofl::gds
