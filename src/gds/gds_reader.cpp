#include "gds/gds_reader.hpp"

#include "gds/gds_records.hpp"
#include "gds/stream_reader.hpp"

namespace ofl::gds {
namespace {

struct Cursor {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;

  // Reads the next record header; returns false at end or on corruption.
  bool next(RecordTag& tag, std::span<const std::uint8_t>& payload) {
    if (pos + 4 > bytes.size()) return false;
    const std::uint16_t len = getU16(bytes.data() + pos);
    if (len < 4 || pos + len > bytes.size()) return false;
    tag = static_cast<RecordTag>(getU16(bytes.data() + pos + 2));
    payload = bytes.subspan(pos + 4, len - 4);
    pos += len;
    return true;
  }
};

}  // namespace

std::optional<Library> Reader::parse(std::span<const std::uint8_t> bytes) {
  Cursor cur{bytes};
  LibraryCollector collector;
  RecordMachine machine(collector);
  RecordTag tag;
  std::span<const std::uint8_t> payload;
  while (cur.next(tag, payload)) {
    switch (machine.feed(tag, payload)) {
      case RecordMachine::Status::kError:
        return std::nullopt;
      case RecordMachine::Status::kDone:
        return collector.takeLibrary();
      case RecordMachine::Status::kContinue:
        break;
    }
  }
  return std::nullopt;  // truncated, or missing ENDLIB
}

std::optional<Library> Reader::readFile(const std::string& path) {
  // Stream the file through the bounded-buffer scanner instead of slurping
  // it: peak RSS stays O(record) even for multi-gigabyte inputs.
  LibraryCollector collector;
  if (!StreamReader::scan(path, collector, nullptr)) return std::nullopt;
  return collector.takeLibrary();
}

}  // namespace ofl::gds
