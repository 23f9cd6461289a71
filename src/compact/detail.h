// Internal to the compactor: the seam through which the step driver finds
// the target shapes near a window.  Production answers from a
// geom::SpatialIndex over the target; the all-pairs oracle under
// tests/oracle/ substitutes a source that offers every shape and runs the
// same driver, so the differential tests compare candidate enumeration
// only.  One lookup crosses the seam, walkFromFront(): any-layer, in no
// guaranteed order.  Candidates should come nearest the landing side
// first, with the cutoff asked before each group whether anything further
// back can still matter — so a step reads only the target's front (§2.3:
// "only outer edges").  Three callers use it:
//
//  * constraint generation keeps the largest and second-largest distinct
//    constraint and every binding pair, and cuts off once nothing behind
//    can reach the second;
//  * the auto-connect partner scan skips a partner only when a shape it
//    has seen provably blocks that partner's extension;
//  * the auto-connect safety test is an AND over a pure predicate that
//    stops at its first blocker; its cutoff never fires.
//
// The driver stays exact whatever the source does: the cutoff prunes
// work, never changes an answer, so the oracle may offer every shape and
// never ask it.
//
// Not part of the public API.
#pragma once

#include <vector>

#include "compact/compactor.h"
#include "geom/spatial.h"

namespace amg::compact::detail {

/// Target shapes that may interact with a window.  An answer may be any
/// superset of the live target shapes whose boxes touch the window —
/// retired, stale or distant ids included — because the driver runs the
/// exact rule predicates on every candidate.
class Candidates {
 public:
  virtual ~Candidates() = default;
  /// Target shape `id` on `layer` was added or now covers `box`.
  virtual void insert(db::ShapeId id, tech::LayerId layer, const Box& box) = 0;
  /// Calls `fn(id)` for candidates on any layer — an id repeating only
  /// when it was re-inserted — until `fn` returns true or `done` does.
  /// Preferably front-first towards side `front`, with `done` asked before
  /// each group (geom::SpatialIndex::walkFromFront); a source may ignore
  /// both.  Returns true when `fn` stopped the walk.
  virtual bool walkFromFront(const Box& window, Side front,
                             geom::SpatialIndex::Visitor fn,
                             geom::SpatialIndex::Cutoff done) const = 0;
};

/// What a step rewrote in place among the shape slots and array records
/// `target` held when it began — variable-edge shrinks, auto-connect
/// extensions, array rebuilds (grown containers, retired cuts, the record
/// itself).  Everything else a step does is appending.  Ids may repeat and
/// may name entries the step appended; the prefix tier stores exactly these
/// plus the appended tail (io::SessionDelta).
struct Edits {
  std::vector<db::ShapeId> shapes;
  std::vector<std::size_t> arrays;
};

/// One compaction step, the body of compact().  `cands` covers `target`
/// and stays a superset of it until the step returns; every shape the
/// merge adds is inserted.  `edits` (when given) collects what the step
/// rewrote; when it stays empty the step only appended, so a `cands` that
/// was exact on entry is exact on return.
Result compactStep(db::Module& target, const db::Module& obj, Dir dir,
                   const Options& options, Candidates& cands,
                   Edits* edits = nullptr);

/// compact(), also reporting what the step rewrote (the prefix tier).
Result compact(db::Module& target, const db::Module& obj, Dir dir,
               const Options& options, Edits& edits);

}  // namespace amg::compact::detail
