// Region: a value-semantic rectilinear area stored as a canonical disjoint
// rectangle set. Thin, convenient facade over the boolean engine for the
// fill flow (free-space computation, overlay measurement, clipping).
#pragma once

#include <span>
#include <vector>

#include "geometry/boolean.hpp"
#include "geometry/rect.hpp"

namespace ofl::geom {

class Region {
 public:
  Region() = default;
  /// From possibly-overlapping rects; normalizes to a disjoint set.
  explicit Region(std::span<const Rect> rects,
                  SweepKernel kernel = SweepKernel::kFlat);
  explicit Region(const std::vector<Rect>& rects,
                  SweepKernel kernel = SweepKernel::kFlat)
      : Region(std::span<const Rect>(rects), kernel) {}
  explicit Region(const Rect& rect);

  /// Adopts rects that the caller guarantees are already disjoint
  /// (e.g. output of booleanOp); skips normalization.
  static Region fromDisjoint(std::vector<Rect> rects);

  const std::vector<Rect>& rects() const { return rects_; }
  bool empty() const { return rects_.empty(); }
  std::size_t count() const { return rects_.size(); }

  Area area() const;
  Rect bbox() const;

  /// Boolean combinations. The kernel selects the sweep's coverage
  /// structure only (see SweepKernel); results are bit-identical across
  /// kernels.
  Region unite(const Region& other,
               SweepKernel kernel = SweepKernel::kFlat) const;
  Region intersect(const Region& other,
                   SweepKernel kernel = SweepKernel::kFlat) const;
  Region subtract(const Region& other,
                  SweepKernel kernel = SweepKernel::kFlat) const;

  /// Region clipped to `window`.
  Region clipped(const Rect& window) const;

  /// Area of overlap with a raw rect set without materializing the result.
  /// Counts every covered point ONCE even when `other` self-overlaps (the
  /// boolean engine tracks coverage counts, not pairwise products) — unlike
  /// the pairwise-sum kernel overlapAreaSum(), which counts a point once
  /// per covering shape. The two agree only on pairwise-disjoint input;
  /// overlapAreaDisjoint() asserts exactly that.
  Area overlapArea(std::span<const Rect> other) const {
    return intersectionArea(rects_, other);
  }
  Area overlapArea(const Region& other) const {
    return overlapArea(other.rects_);
  }

  /// Region minus a raw (possibly self-overlapping) rect set, in one
  /// boolean sweep. Byte-identical to subtract(Region(other)) — the sweep
  /// output is a pure function of the covered point set — but skips the
  /// normalization pass over `other`.
  Region subtract(std::span<const Rect> other,
                  SweepKernel kernel = SweepKernel::kFlat) const {
    return fromDisjoint(booleanOp(rects_, other, BoolOp::kSubtract, kernel));
  }

  /// Region shrunk by `d` DBU on all four sides of every covered point
  /// (morphological erosion). Used to keep fills `d` away from region
  /// boundaries. d must be >= 0.
  Region shrunk(Coord d) const;

  /// shrunk(d).empty(), usually without building the erosion: a rect of
  /// the region wider and taller than 2d keeps its centre, because the
  /// d-dilated complement that shrunk() subtracts cannot reach a point
  /// whose (2d+1)-square lies inside one rect of the region. Only when no
  /// single rect is that large (slivers, or slabs whose union alone admits
  /// the square) is shrunk() evaluated.
  bool erodedEmpty(Coord d) const;

  friend bool operator==(const Region&, const Region&) = default;

 private:
  std::vector<Rect> rects_;  // disjoint, RectYXLess-sorted
};

}  // namespace ofl::geom
