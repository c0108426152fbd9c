#include "gds/stream_flatten.hpp"

namespace ofl::gds {

void FlattenStream::onBeginCell() {
  if (!sawTop_) {
    sawTop_ = true;
    inTop_ = true;
    return;
  }
  inTop_ = false;
  masters_.emplace_back();
}

void FlattenStream::onCellName(const std::string& name) {
  if (inTop_) {
    top_.name = name;
  } else if (!masters_.empty()) {
    masters_.back().name = name;
  }
}

void FlattenStream::onBoundary(const Boundary& b) {
  if (inTop_) {
    sink_(b);
    if (keepTop_) top_.boundaries.push_back(b);
  } else if (!masters_.empty()) {
    masters_.back().boundaries.push_back(b);
  }
}

void FlattenStream::onSref(const Sref& s) {
  if (inTop_) {
    top_.srefs.push_back(s);
  } else if (!masters_.empty()) {
    masters_.back().srefs.push_back(s);
  }
}

void FlattenStream::onAref(const Aref& a) {
  if (inTop_) {
    top_.arefs.push_back(a);
  } else if (!masters_.empty()) {
    masters_.back().arefs.push_back(a);
  }
}

bool FlattenStream::finish(std::string* error) {
  // Later duplicates overwrite earlier ones, like flatten's indexCells.
  std::map<std::string, const Cell*> byName;
  if (keepTop_) byName[top_.name] = &top_;
  for (const Cell& c : masters_) byName[c.name] = &c;
  // Mirrors the top-level expandInto call: srefs in order, then arefs,
  // children expanded with one less depth budget.
  for (const Sref& s : top_.srefs) {
    if (!expandNamed(s.cellName, s.origin.x, s.origin.y, maxDepth_ - 1,
                     byName, error)) {
      return false;
    }
  }
  for (const Aref& a : top_.arefs) {
    for (int r = 0; r < a.rows; ++r) {
      for (int c = 0; c < a.cols; ++c) {
        if (!expandNamed(a.cellName, a.origin.x + c * a.pitchX,
                         a.origin.y + r * a.pitchY, maxDepth_ - 1, byName,
                         error)) {
          return false;
        }
      }
    }
  }
  return true;
}

bool FlattenStream::expandNamed(const std::string& name, geom::Coord dx,
                                geom::Coord dy, int depth,
                                const std::map<std::string, const Cell*>& byName,
                                std::string* error) {
  const auto it = byName.find(name);
  if (it == byName.end()) {
    if (name == top_.name) {
      // flattenCell would re-expand the already-streamed top geometry.
      if (error != nullptr) {
        *error = "reference to top cell '" + name +
                 "' cannot be expanded while streaming";
      }
      return false;
    }
    return true;  // unresolvable names are skipped, like flattenCell
  }
  return expandCell(*it->second, dx, dy, depth, byName, error);
}

bool FlattenStream::expandCell(const Cell& cell, geom::Coord dx,
                               geom::Coord dy, int depth,
                               const std::map<std::string, const Cell*>& byName,
                               std::string* error) {
  for (const Boundary& b : cell.boundaries) {
    Boundary moved = b;
    for (geom::Point& p : moved.vertices) {
      p.x += dx;
      p.y += dy;
    }
    sink_(moved);
  }
  if (depth <= 0) return true;
  for (const Sref& s : cell.srefs) {
    if (!expandNamed(s.cellName, dx + s.origin.x, dy + s.origin.y, depth - 1,
                     byName, error)) {
      return false;
    }
  }
  for (const Aref& a : cell.arefs) {
    for (int r = 0; r < a.rows; ++r) {
      for (int c = 0; c < a.cols; ++c) {
        if (!expandNamed(a.cellName, dx + a.origin.x + c * a.pitchX,
                         dy + a.origin.y + r * a.pitchY, depth - 1, byName,
                         error)) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace ofl::gds
