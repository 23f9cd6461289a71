// Internal to the compactor: the seam through which the step driver finds
// the target shapes near a window.  Production answers from a
// geom::SpatialIndex over the target; the all-pairs oracle under
// tests/oracle/ substitutes a source that lists every shape and runs the
// same driver, so the differential tests compare candidate enumeration
// only.  Not part of the public API.
#pragma once

#include <vector>

#include "compact/compactor.h"

namespace amg::compact::detail {

/// Target shapes that may interact with a window.  An answer may be any
/// superset, in ascending id order, of the live target shapes whose boxes
/// touch the window — retired, stale or distant ids included — because the
/// driver runs the exact rule predicates on every candidate.
class Candidates {
 public:
  virtual ~Candidates() = default;
  /// Target shape `id` on `layer` was added or now covers `box`.
  virtual void insert(db::ShapeId id, tech::LayerId layer, const Box& box) = 0;
  /// Candidates on any layer; `out` is cleared first.
  virtual void query(const Box& window, std::vector<db::ShapeId>& out) const = 0;
  /// Candidates on `layer`; `out` is cleared first.
  virtual void query(tech::LayerId layer, const Box& window,
                     std::vector<db::ShapeId>& out) const = 0;
};

/// One compaction step, the body of compact() and Compactor::compact().
/// `cands` covers `target`.  With `session` set it outlives the call and is
/// kept current through every mutation the step makes; otherwise it only
/// has to stay a superset until the step returns.
Result compactStep(db::Module& target, const db::Module& obj, Dir dir,
                   const Options& options, Candidates& cands, bool session);

}  // namespace amg::compact::detail
