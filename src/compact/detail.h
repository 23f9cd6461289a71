// Internal to the compactor: the seam through which the step driver finds
// the target shapes near a window.  Production answers from a
// geom::SpatialIndex over the target; the all-pairs oracle under
// tests/oracle/ substitutes a source that offers every shape and runs the
// same driver, so the differential tests compare candidate enumeration
// only.  Two lookups cross the seam: an any-layer visit for the callers
// whose answer does not depend on order (constraint generation collects
// pairs it sorts itself; the auto-connect safety test is an AND over a
// pure predicate and stops at its first blocker), and a sorted one-layer
// query for the auto-connect partner loop, where an accepted extension
// changes the boxes later partners see, so id order fixes the result.
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
  /// Calls `fn(id)` for candidates on any layer — in no particular order,
  /// an id repeating only when it was re-inserted — until `fn` returns
  /// true.  Returns true when `fn` stopped the walk.
  virtual bool visit(const Box& window, geom::SpatialIndex::Visitor fn) const = 0;
  /// Candidates on `layer` in ascending id order; `out` is cleared first.
  virtual void query(tech::LayerId layer, const Box& window,
                     std::vector<db::ShapeId>& out) const = 0;
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
