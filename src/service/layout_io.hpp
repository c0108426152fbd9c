// Loading flattened layouts from disk and writing filled ones back, for
// the batch service and the CLI.
#pragma once

#include <optional>
#include <string>

#include "layout/layout.hpp"

namespace ofl::service {

/// Loads a layout from a GDS or OFL-OASIS file (auto-detected by trying
/// both readers). The die is `die` when given, else the bounding box of
/// every shape; the layer count is the highest GDS layer seen (floor 1).
/// Returns false and sets `*error` (never null) on unreadable files or an
/// empty layout with no die.
bool loadFlatLayout(const std::string& path,
                    const std::optional<geom::Rect>& die, layout::Layout* out,
                    std::string* error);

/// Output serialization of a filled layout (`openfill fill --format`).
enum class OutputFormat { kGds, kOasis };

/// Writes `chip` to `path`: flat GDS straight from the layout, or, with
/// `compact` or OASIS output, through a whole gds::Library (AREF-compacted
/// by layout::toCompactGds when `compact`, in either format).
/// Every branch runs inside one write span (gds.write, or oasis.write for
/// OASIS). Returns the bytes written, or -1 on an I/O failure.
long long writeFlatLayout(const layout::Layout& chip, const std::string& path,
                          OutputFormat format, bool compact);

}  // namespace ofl::service
