#include "geom/spatial.h"

#include <algorithm>

#include "obs/obs.h"

namespace amg::geom {
namespace {

/// Closed intersection: per-axis gap <= 0 (shared edges and corners count).
/// This is the index's candidate predicate — deliberately the loosest of
/// the consumers' tests (strict overlap, electrical touch, gap < rule are
/// all subsets of it once the window carries the halo).
bool closedIntersects(const Box& a, const Box& b) {
  return a.x1 <= b.x2 && b.x1 <= a.x2 && a.y1 <= b.y2 && b.y1 <= a.y2;
}

}  // namespace

SpatialIndex::SpatialIndex(Coord cellSize)
    : cell_(cellSize > 0 ? cellSize : kDefaultCellSize) {}

/// Double the bucket's open-addressed column table and re-seat every
/// column.  The columns themselves (and the chain pool) never move.
void SpatialIndex::growTable(Bucket& b) {
  const std::size_t n = b.table.empty() ? 16 : b.table.size() * 2;
  b.table.assign(n, TableSlot{0, -1});
  const std::size_t mask = n - 1;
  for (std::size_t c = 0; c < b.cols.size(); ++c) {
    std::size_t i = hashKey(b.cols[c].cx) & mask;
    while (b.table[i].col >= 0) i = (i + 1) & mask;
    b.table[i] = TableSlot{b.cols[c].cx, static_cast<std::int32_t>(c)};
  }
}

/// Find-or-create the bucket's column at cell x `cx`.
SpatialIndex::Column& SpatialIndex::columnFor(Bucket& b, std::int64_t cx) {
  // Keep the load factor under 3/4 before probing so a newly claimed slot
  // survives the rehash.
  if ((b.cols.size() + 1) * 4 > b.table.size() * 3) growTable(b);
  const std::size_t mask = b.table.size() - 1;
  std::size_t i = hashKey(cx) & mask;
  while (b.table[i].col >= 0) {
    if (b.table[i].cx == cx) return b.cols[static_cast<std::size_t>(b.table[i].col)];
    i = (i + 1) & mask;
  }
  b.table[i] = TableSlot{cx, static_cast<std::int32_t>(b.cols.size())};
  b.cols.push_back(Column{cx, {}});
  return b.cols.back();
}

void SpatialIndex::insert(std::uint32_t id, std::uint32_t bucket, const Box& box) {
  OBS_COUNT("spatial.inserts");
  const std::int64_t cx1 = cellOf(box.x1, cell_), cx2 = cellOf(box.x2, cell_);
  const std::int64_t cy1 = cellOf(box.y1, cell_), cy2 = cellOf(box.y2, cell_);
  const auto idx = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(Entry{box, cx1, cy1, id});
  bounds_ = bounds_.unite(box);
  if (bucket >= buckets_.size()) buckets_.resize(bucket + 1);
  Bucket& b = buckets_[bucket];

  if ((cx2 - cx1 + 1) * (cy2 - cy1 + 1) > kMaxCellsPerEntry) {
    b.large.push_back(idx);
    return;
  }
  for (std::int64_t cx = cx1; cx <= cx2; ++cx) {
    Column& col = columnFor(b, cx);
    // Growing structures insert in ascending coordinate order, so the
    // lower_bound usually lands at the end and the middle-insert is rare.
    auto it = std::lower_bound(col.cells.begin(), col.cells.end(), cy1,
                               [](const Cell& c, std::int64_t v) { return c.cy < v; });
    for (std::int64_t cy = cy1; cy <= cy2; ++cy, ++it) {
      if (it == col.cells.end() || it->cy != cy) it = col.cells.insert(it, Cell{cy, -1});
      b.slots.push_back(Slot{idx, it->head});
      it->head = static_cast<std::int32_t>(b.slots.size() - 1);
    }
  }
}

const SpatialIndex::Column* SpatialIndex::findColumn(const Bucket& b, std::int64_t cx) {
  if (b.table.empty()) return nullptr;
  const std::size_t mask = b.table.size() - 1;
  for (std::size_t i = hashKey(cx) & mask; b.table[i].col >= 0; i = (i + 1) & mask)
    if (b.table[i].cx == cx) return &b.cols[static_cast<std::size_t>(b.table[i].col)];
  return nullptr;
}

template <class Fn, class Done>
bool SpatialIndex::walk(const Box& window, const Bucket* first, const Bucket* last, Side front,
                        Fn&& fn, Done&& done) const {
  // Clamp the walk to the content bounds: consumers issue band queries
  // that are unbounded along one axis (the compactor's cross-axis bands),
  // and nothing lives outside bounds_ by construction.
  const Coord wx1 = std::max(window.x1, bounds_.x1);
  const Coord wx2 = std::min(window.x2, bounds_.x2);
  const Coord wy1 = std::max(window.y1, bounds_.y1);
  const Coord wy2 = std::min(window.y2, bounds_.y2);
  if (wx1 > wx2 || wy1 > wy2) return false;  // window misses all content

  auto offer = [&](const Entry& e) { return closedIntersects(e.box, window) && fn(e.id); };
  // Entries too large for the grid have no level: offer them first.
  for (const Bucket* b = first; b != last; ++b)
    for (const std::uint32_t idx : b->large)
      if (offer(entries_[idx])) return true;

  const std::int64_t cx1 = cellOf(wx1, cell_), cx2 = cellOf(wx2, cell_);
  const std::int64_t cy1 = cellOf(wy1, cell_), cy2 = cellOf(wy2, cell_);
  const bool alongX = front == Side::Left || front == Side::Right;
  // Levels run from high cells to low ones when the front is Right/Top.
  const bool down = front == Side::Right || front == Side::Top;
  const std::int64_t lo = alongX ? cx1 : cy1, hi = alongX ? cx2 : cy2;
  const Coord far = reach(front, bounds_);
  // An entry sits in every cell it covers but is reported once: across
  // the walk from the first level it covers, across the other axis from
  // its first cell.  So every level after the first holds only entries
  // that begin (walking up) or end (walking down) inside it, which bounds
  // their reach.
  auto bound = [&](std::int64_t level) {
    if (level == (down ? hi : lo)) return far;
    return std::min(far, down ? (level + 1) * cell_ - 1 : -level * cell_);
  };
  auto reportedAt = [&](const Entry& e, std::int64_t level) {
    if (down) return level == hi || (alongX ? e.box.x2 : e.box.y2) < (level + 1) * cell_;
    return std::max(alongX ? e.cx1 : e.cy1, lo) == level;
  };
  auto offerCell = [&](const Bucket& b, const Cell& c, std::int64_t cx) {
    for (std::int32_t s = c.head; s >= 0; s = b.slots[s].next) {
      const Entry& e = entries_[b.slots[s].entry];
      const bool mine = alongX ? reportedAt(e, cx) && std::max(e.cy1, cy1) == c.cy
                               : reportedAt(e, c.cy) && std::max(e.cx1, cx1) == cx;
      if (mine && offer(e)) return true;
    }
    return false;
  };
  const auto byCy = [](const Cell& c, std::int64_t v) { return c.cy < v; };

  if (alongX) {
    // Only occupied cells in [cy1, cy2] are visited: a band window
    // spanning the whole structure costs the column's population, not the
    // window's cell count.
    for (std::int64_t cx = down ? hi : lo; down ? cx >= lo : cx <= hi; cx += down ? -1 : 1) {
      if (done(bound(cx))) return false;
      for (const Bucket* b = first; b != last; ++b) {
        const Column* col = findColumn(*b, cx);
        if (!col) continue;
        auto it = std::lower_bound(col->cells.begin(), col->cells.end(), cy1, byCy);
        for (; it != col->cells.end() && it->cy <= cy2; ++it)
          if (offerCell(*b, *it, cx)) return true;
      }
    }
    return false;
  }

  // A Top/Bottom front walks cell rows across the window's columns: one
  // cursor per occupied column, merged level by level.
  struct Cursor {
    const Bucket* b;
    const Column* col;
    std::int64_t cx;
    std::ptrdiff_t at, stop;  // cell indices; `stop` is one past the last
  };
  std::vector<Cursor> cursors;
  for (const Bucket* b = first; b != last; ++b)
    for (std::int64_t cx = cx1; !b->table.empty() && cx <= cx2; ++cx) {
      const Column* col = findColumn(*b, cx);
      if (!col) continue;
      const auto begin = col->cells.begin();
      const std::ptrdiff_t from = std::lower_bound(begin, col->cells.end(), cy1, byCy) - begin;
      const std::ptrdiff_t to = std::lower_bound(begin, col->cells.end(), cy2 + 1, byCy) - begin;
      if (from == to) continue;
      cursors.push_back(down ? Cursor{b, col, cx, to - 1, from - 1} : Cursor{b, col, cx, from, to});
    }
  while (!cursors.empty()) {
    std::int64_t level = cursors.front().col->cells[cursors.front().at].cy;
    for (const Cursor& c : cursors) {
      const std::int64_t cy = c.col->cells[c.at].cy;
      level = down ? std::max(level, cy) : std::min(level, cy);
    }
    if (done(bound(level))) return false;
    for (std::size_t k = 0; k < cursors.size();) {
      Cursor& c = cursors[k];
      const Cell& cell = c.col->cells[c.at];
      if (cell.cy != level) {
        ++k;
        continue;
      }
      if (offerCell(*c.b, cell, c.cx)) return true;
      c.at += down ? -1 : 1;
      if (c.at == c.stop) {
        cursors[k] = cursors.back();
        cursors.pop_back();
      } else {
        ++k;
      }
    }
  }
  return false;
}

bool SpatialIndex::visit(const Box& window, Visitor fn) const {
  return walkFromFront(window, Side::Left, fn, [](Coord) { return false; });
}

bool SpatialIndex::walkFromFront(const Box& window, Side front, Visitor fn,
                                 Cutoff done) const {
  std::size_t yielded = 0;
  auto counted = [&](std::uint32_t id) {
    ++yielded;
    return fn(id);
  };
  const bool stopped = walk(window, buckets_.data(), buckets_.data() + buckets_.size(), front,
                            counted, done);
  OBS_COUNT("spatial.queries");
  OBS_COUNT_N("spatial.candidates", yielded);
  return stopped;
}

namespace {

/// query()'s collector: appends every offered id to `out`, never stops.
auto appendTo(std::vector<std::uint32_t>& out) {
  return [&out](std::uint32_t id) {
    out.push_back(id);
    return false;
  };
}

/// The id-ordered answer of query(): every gathered id, sorted, once.
void sortUnique(std::vector<std::uint32_t>& out) {
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  OBS_COUNT("spatial.queries");
  OBS_COUNT_N("spatial.candidates", out.size());
}

}  // namespace

void SpatialIndex::query(const Box& window, std::vector<std::uint32_t>& out) const {
  out.clear();
  walk(window, buckets_.data(), buckets_.data() + buckets_.size(), Side::Left, appendTo(out),
       [](Coord) { return false; });
  sortUnique(out);
}

void SpatialIndex::query(std::uint32_t bucket, const Box& window,
                         std::vector<std::uint32_t>& out) const {
  out.clear();
  if (bucket >= buckets_.size()) return;
  walk(window, &buckets_[bucket], &buckets_[bucket] + 1, Side::Left, appendTo(out),
       [](Coord) { return false; });
  sortUnique(out);
}

}  // namespace amg::geom
