// Shared spatial index over axis-aligned boxes.
//
// The paper's §2.3 speed argument is that successive compaction needs only
// the outer edges of the growing structure — yet every other hot loop of
// the environment (constraint generation, DRC spacing, connectivity,
// placement legality) is naturally an all-pairs rectangle scan.  This index
// replaces those scans with range queries: entries are bucketed (consumers
// use the mask layer as the bucket) and kept in a uniform grid of
// cy-sorted cell columns, so a query visits only the occupied cells its
// window overlaps — even a band window spanning the whole structure on one
// axis — instead of every box in the database.
//
// Contract — designed so consumers stay byte-identical to brute force:
//
//  * the candidate set is *superset-exact*: every entry whose box
//    closed-intersects the window (per-axis gap <= 0, corner touch
//    included).  Consumers expand the window by their rule halo and apply
//    their exact predicate to the candidates; any predicate implying
//    closed intersection with the expanded window is answered exactly.
//  * visit() walks the grid and hands each candidate to a callback in no
//    particular order and stops as soon as the callback returns true.
//    Each entry is handed over once per walk, however many cells it
//    covers, so an id repeats only when it was re-inserted.  Yes/no tests
//    ("is anything in the way?") stop at their first blocker instead of
//    listing every shape.
//  * query() is the same walk plus sort+unique: ascending, deduplicated
//    ids, so iteration order matches a brute-force scan in id order — for
//    the consumers whose answer depends on that order.
//  * walkFromFront() is the same candidate set, offered front-first: grid
//    level by level (columns for a Left/Right front, cell rows for a
//    Top/Bottom one), starting at the level nearest the chosen side of the
//    content.  Before each level a cutoff callback receives an upper bound
//    on how far any entry not yet offered reaches towards that side, and
//    ends the walk by returning true.  This is how successive compaction
//    reads "only outer edges" (§2.3): a step that knows what it has seen
//    so far can prove the rest of the structure irrelevant and stop,
//    without a second structure to keep exact.  Entries spanning more
//    cells than the grid enumerates come first, before any cutoff.
//  * the index is incremental: insert() accepts new entries at any time
//    (the growing structure of successive compaction).  Re-inserting an
//    id with a new box *widens* that id's coverage (union semantics) —
//    the right tool for grow-only updates like auto-connect extensions.
//    Shrinking geometry needs no update at all: stale larger boxes keep
//    queries conservative, and the exact predicate filters the excess.
//  * queries are const and touch no mutable state: concurrent readers
//    (the parallel order search) need no synchronisation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "geom/box.h"

namespace amg::geom {

class SpatialIndex {
 public:
  /// Default grid pitch: a few typical 1 µm-process feature pitches per
  /// cell, so small shapes land in one cell and windows visit few cells.
  static constexpr Coord kDefaultCellSize = 4000;

  explicit SpatialIndex(Coord cellSize = kDefaultCellSize);

  /// A non-owning reference to a callable `bool(Arg)`; returning true
  /// stops the walk.  Pass a lambda straight into visit(): the reference
  /// must not outlive the callable.
  template <class Arg>
  class StopFn {
   public:
    template <class F, class = std::enable_if_t<
                           !std::is_same_v<std::decay_t<F>, StopFn>>>
    StopFn(F&& f)  // implicit: a lambda converts at the call
        : fn_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
          call_([](void* fn, Arg a) {
            return static_cast<bool>((*static_cast<std::remove_reference_t<F>*>(fn))(a));
          }) {}
    bool operator()(Arg a) const { return call_(fn_, a); }

   private:
    void* fn_;
    bool (*call_)(void*, Arg);
  };
  /// Called with each candidate id.
  using Visitor = StopFn<std::uint32_t>;
  /// Called with walkFromFront()'s reach bound before each level.
  using Cutoff = StopFn<Coord>;

  /// How far `b` reaches towards side `s`, larger = further out: x2 for
  /// Right, y2 for Top, −x1 for Left, −y1 for Bottom.
  static constexpr Coord reach(Side s, const Box& b) {
    switch (s) {
      case Side::Left: return -b.x1;
      case Side::Bottom: return -b.y1;
      case Side::Right: return b.x2;
      case Side::Top: return b.y2;
    }
    return 0;  // unreachable
  }

  /// Add one box under `id` to `bucket`.  Ids need not be unique: duplicate
  /// ids union their coverage (see header).  Buckets are dense small
  /// integers (consumers use tech::LayerId).
  void insert(std::uint32_t id, std::uint32_t bucket, const Box& box);

  /// Call `fn(id)` for the entries (any bucket) whose box closed-intersects
  /// `window` — unordered, each entry once (an id repeats only when it was
  /// re-inserted) — until `fn` returns true.  Returns true when `fn`
  /// stopped the walk.
  bool visit(const Box& window, Visitor fn) const;

  /// visit() in front-first order towards side `front`.  Before each grid
  /// level, `done(r)` is called with an r >= reach(front, box) of every
  /// entry the walk has not offered yet, r never increasing; when it
  /// returns true the walk ends (and returns false).  Returns true when
  /// `fn` stopped the walk.
  bool walkFromFront(const Box& window, Side front, Visitor fn, Cutoff done) const;

  /// Ids of all entries (any bucket) whose box closed-intersects `window`,
  /// ascending and deduplicated.  `out` is cleared first; reuse it across
  /// calls to avoid reallocation.
  void query(const Box& window, std::vector<std::uint32_t>& out) const;

  /// Same, restricted to one bucket.
  void query(std::uint32_t bucket, const Box& window,
             std::vector<std::uint32_t>& out) const;

  /// Number of insert() calls accepted.
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  Coord cellSize() const { return cell_; }
  /// Bounding box of everything inserted (empty Box when empty()).
  const Box& bounds() const { return bounds_; }

 private:
  /// `cx1`/`cy1` is the entry's low grid cell: a walk reports a
  /// multi-cell entry only from the first cell it shares with the window.
  struct Entry {
    Box box;
    std::int64_t cx1, cy1;
    std::uint32_t id;
  };
  /// One occupied grid cell within a column: `head` chains its entries
  /// through Bucket::slots (occupied cells always hold at least one).
  struct Cell {
    std::int64_t cy;
    std::int32_t head;
  };
  /// One chain link: entry index plus the next link of the same cell.
  struct Slot {
    std::uint32_t entry;
    std::int32_t next;
  };
  /// One x-column of the grid: its occupied cells sorted by cy.  The
  /// dominant consumers issue band queries spanning one axis (the
  /// compactor's cross-axis bands, the connectivity column sweeps), and a
  /// sorted column serves those by binary search + walk of *occupied*
  /// cells only, instead of probing every cell a tall window covers.
  struct Column {
    std::int64_t cx;
    std::vector<Cell> cells;
  };
  /// One open-addressed table slot: `col` indexes Bucket::cols (−1 =
  /// empty).  The cx key is duplicated here so probes stay in one array.
  struct TableSlot {
    std::int64_t cx;
    std::int32_t col;
  };
  /// One bucket: columns reached through an open-addressed table keyed by
  /// cx (power-of-two, linear probing; chains pooled in `slots` — no
  /// per-cell allocations, which is what keeps incremental inserts cheaper
  /// than the brute scans they replace), plus an overflow list for boxes
  /// spanning more cells than worth enumerating on insert.
  struct Bucket {
    std::vector<TableSlot> table;
    std::vector<Column> cols;
    std::vector<Slot> slots;
    std::vector<std::uint32_t> large;
  };

  /// Entries covering more cells than this go to the overflow list (they
  /// are scanned linearly by every query of their bucket — fine for the
  /// few wells/guard rings of a module, wrong for its thousands of cuts).
  static constexpr std::int64_t kMaxCellsPerEntry = 64;

  static std::int64_t cellOf(Coord v, Coord cell) {
    return v >= 0 ? v / cell : -((-v + cell - 1) / cell);
  }
  /// 64-bit finaliser (splitmix64 tail): neighbouring cell columns differ
  /// only in the low bits, so the table needs real avalanche.
  static std::size_t hashKey(std::int64_t cx) {
    auto k = static_cast<std::uint64_t>(cx);
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    return static_cast<std::size_t>(k);
  }

  static Column& columnFor(Bucket& b, std::int64_t cx);
  /// The bucket's column at cell x `cx`, or nullptr when it has none.
  static const Column* findColumn(const Bucket& b, std::int64_t cx);
  static void growTable(Bucket& b);
  /// The one cell walk behind visit(), walkFromFront() and query(): hands
  /// each entry of buckets [first, last) that closed-intersects `window`
  /// to `fn` once, front-first towards `front` with `done` asked before
  /// each level (see walkFromFront()), until `fn` returns true (then
  /// returns true).  A template so query()'s collector inlines into it.
  template <class Fn, class Done>
  bool walk(const Box& window, const Bucket* first, const Bucket* last, Side front, Fn&& fn,
            Done&& done) const;

  Coord cell_;
  Box bounds_;
  std::vector<Entry> entries_;
  std::vector<Bucket> buckets_;  // indexed by bucket id
};

}  // namespace amg::geom
