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

template <class Fn>
bool SpatialIndex::gather(const Bucket& b, const Box& window, Fn&& fn) const {
  // Clamp the cell walk to the content bounds: consumers issue band
  // queries that are unbounded along one axis (the compactor's cross-axis
  // bands), and nothing lives outside bounds_ by construction.
  const Coord wx1 = std::max(window.x1, bounds_.x1);
  const Coord wx2 = std::min(window.x2, bounds_.x2);
  const Coord wy1 = std::max(window.y1, bounds_.y1);
  const Coord wy2 = std::min(window.y2, bounds_.y2);
  if (wx1 > wx2 || wy1 > wy2) return false;  // window misses all content

  auto offer = [&](const Entry& e) { return closedIntersects(e.box, window) && fn(e.id); };
  if (!b.table.empty()) {
    const std::size_t mask = b.table.size() - 1;
    const std::int64_t cx1 = cellOf(wx1, cell_), cx2 = cellOf(wx2, cell_);
    const std::int64_t cy1 = cellOf(wy1, cell_), cy2 = cellOf(wy2, cell_);
    for (std::int64_t cx = cx1; cx <= cx2; ++cx) {
      std::size_t i = hashKey(cx) & mask;
      const Column* col = nullptr;
      while (b.table[i].col >= 0) {
        if (b.table[i].cx == cx) {
          col = &b.cols[static_cast<std::size_t>(b.table[i].col)];
          break;
        }
        i = (i + 1) & mask;
      }
      if (!col) continue;
      // Only occupied cells in [cy1, cy2] are visited: a band window
      // spanning the whole structure costs the column's population, not
      // the window's cell count.  An entry sits in every cell it covers,
      // so it is reported only from the first cell (per axis) it shares
      // with the walk.
      auto it = std::lower_bound(col->cells.begin(), col->cells.end(), cy1,
                                 [](const Cell& c, std::int64_t v) { return c.cy < v; });
      for (; it != col->cells.end() && it->cy <= cy2; ++it)
        for (std::int32_t s = it->head; s >= 0; s = b.slots[s].next) {
          const Entry& e = entries_[b.slots[s].entry];
          if (std::max(e.cx1, cx1) == cx && std::max(e.cy1, cy1) == it->cy && offer(e))
            return true;
        }
    }
  }
  for (const std::uint32_t idx : b.large)
    if (offer(entries_[idx])) return true;
  return false;
}

bool SpatialIndex::visit(const Box& window, Visitor fn) const {
  std::size_t yielded = 0;
  auto counted = [&](std::uint32_t id) {
    ++yielded;
    return fn(id);
  };
  bool stopped = false;
  for (const Bucket& b : buckets_)
    if ((stopped = gather(b, window, counted))) break;
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
  for (const Bucket& b : buckets_) gather(b, window, appendTo(out));
  sortUnique(out);
}

void SpatialIndex::query(std::uint32_t bucket, const Box& window,
                         std::vector<std::uint32_t>& out) const {
  out.clear();
  if (bucket >= buckets_.size()) return;
  gather(buckets_[bucket], window, appendTo(out));
  sortUnique(out);
}

}  // namespace amg::geom
