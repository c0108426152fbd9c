#include "geometry/decompose.hpp"

#include <algorithm>
#include <cassert>

namespace ofl::geom {
namespace {

struct VEdge {
  Coord x;
  Coord ylo;
  Coord yhi;
};

// Appends the vertical edges of one closed loop.
void appendVerticalEdges(std::span<const Point> v, std::vector<VEdge>& edges) {
  const std::size_t n = v.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Point& a = v[i];
    const Point& b = v[(i + 1) % n];
    if (a.x == b.x && a.y != b.y) {
      edges.push_back({a.x, std::min(a.y, b.y), std::max(a.y, b.y)});
    }
  }
}

// Slab decomposition under even-odd parity across the given vertical edges.
std::vector<Rect> slabDecompose(const std::vector<VEdge>& edges) {
  std::vector<Rect> out;
  if (edges.empty()) return out;

  std::vector<Coord> ys;
  ys.reserve(edges.size() * 2);
  for (const VEdge& e : edges) {
    ys.push_back(e.ylo);
    ys.push_back(e.yhi);
  }
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());

  std::vector<Coord> xs;  // reused per slab
  for (std::size_t s = 0; s + 1 < ys.size(); ++s) {
    const Coord ylo = ys[s];
    const Coord yhi = ys[s + 1];
    xs.clear();
    for (const VEdge& e : edges) {
      if (e.ylo <= ylo && yhi <= e.yhi) xs.push_back(e.x);
    }
    std::sort(xs.begin(), xs.end());
    // Even-odd: consecutive pairs of crossings bound interior runs. A
    // repeated x (two coincident edges) cancels out, which the pairing
    // handles naturally since the pair spans zero width.
    assert(xs.size() % 2 == 0);
    for (std::size_t i = 0; i + 1 < xs.size(); i += 2) {
      if (xs[i] < xs[i + 1]) out.push_back({xs[i], ylo, xs[i + 1], yhi});
    }
  }
  return mergeHorizontal(std::move(out));
}

}  // namespace

std::vector<Rect> decompose(const Polygon& polygon) {
  std::vector<Rect> out;
  decomposeInto(polygon.vertices(), out);
  return out;
}

void decomposeInto(std::span<const Point> loop, std::vector<Rect>& out) {
  if (loop.size() == 4) {
    // Edges alternate horizontal/vertical from either starting direction;
    // a and c are then opposite corners. The slab sweep would find the
    // same single rect (two vertical edges, one slab, one run).
    const Point& a = loop[0];
    const Point& b = loop[1];
    const Point& c = loop[2];
    const Point& d = loop[3];
    const bool hFirst = a.y == b.y && b.x == c.x && c.y == d.y && d.x == a.x;
    const bool vFirst = a.x == b.x && b.y == c.y && c.x == d.x && d.y == a.y;
    if ((hFirst || vFirst) && a.x != c.x && a.y != c.y) {
      out.push_back({std::min(a.x, c.x), std::min(a.y, c.y),
                     std::max(a.x, c.x), std::max(a.y, c.y)});
      return;
    }
  }
  std::vector<VEdge> edges;
  appendVerticalEdges(loop, edges);
  const std::vector<Rect> rects = slabDecompose(edges);
  out.insert(out.end(), rects.begin(), rects.end());
}

std::vector<Rect> decomposeEvenOdd(const std::vector<Polygon>& loops) {
  std::vector<VEdge> edges;
  for (const Polygon& poly : loops) appendVerticalEdges(poly.vertices(), edges);
  return slabDecompose(edges);
}

std::vector<Rect> mergeHorizontal(std::vector<Rect> rects) {
  if (rects.size() < 2) return rects;
  std::sort(rects.begin(), rects.end(), [](const Rect& a, const Rect& b) {
    if (a.yl != b.yl) return a.yl < b.yl;
    if (a.yh != b.yh) return a.yh < b.yh;
    return a.xl < b.xl;
  });
  std::vector<Rect> out;
  out.push_back(rects[0]);
  for (std::size_t i = 1; i < rects.size(); ++i) {
    Rect& last = out.back();
    const Rect& r = rects[i];
    if (r.yl == last.yl && r.yh == last.yh && r.xl == last.xh) {
      last.xh = r.xh;
    } else {
      out.push_back(r);
    }
  }
  return out;
}

std::vector<Rect> mergeVertical(std::vector<Rect> rects) {
  mergeVerticalInPlace(rects);
  return rects;
}

void mergeVerticalInPlace(std::vector<Rect>& rects) {
  if (rects.size() < 2) return;
  std::sort(rects.begin(), rects.end(), [](const Rect& a, const Rect& b) {
    if (a.xl != b.xl) return a.xl < b.xl;
    if (a.xh != b.xh) return a.xh < b.xh;
    return a.yl < b.yl;
  });
  // Compact in place: the write cursor never passes the read cursor.
  std::size_t w = 0;
  for (std::size_t i = 1; i < rects.size(); ++i) {
    Rect& last = rects[w];
    const Rect& r = rects[i];
    if (r.xl == last.xl && r.xh == last.xh && r.yl == last.yh) {
      last.yh = r.yh;
    } else {
      rects[++w] = r;
    }
  }
  rects.resize(w + 1);
}

}  // namespace ofl::geom
