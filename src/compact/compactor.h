// The successive compactor of §2.3.
//
// "Complex modules are constructed by compacting either geometric
// primitives or hierarchically built objects to an existing structure.  In
// contrast to general compaction approaches, the compaction is done
// successively by involving only one new object in each step."
//
// One call moves a rigid object toward the target structure along one
// compass direction until the design rules stop it, then merges the object
// into the target.  Features reproduced from the paper:
//
//  * per-layer-pair minimum distances from the technology;
//  * "edges on the same potential are not considered during compaction,
//    because they can be merged" — same-layer shapes on the same named net
//    stop at abutment (distance 0) instead of the spacing rule, which is
//    how simple wiring is performed by compaction;
//  * a per-step list of layers that "are not relevant during this
//    compaction step": shapes of those layers behave as if they shared a
//    potential (abutment allowed) and are auto-connected afterwards;
//  * the avoid-overlap shape property: refuses overlap even across layers
//    that have no spacing rule (parasitic capacitances);
//  * variable edges: when the binding constraint involves a variable edge,
//    "the compactor tries to move it until it is no longer relevant";
//    shrunken containers have their cut arrays recalculated;
//  * auto-connection: after the move, same-potential shapes on the same
//    conducting layer that face each other across a gap are extended to
//    touch (Fig. 5a) when doing so violates no rule.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "db/module.h"

namespace amg::compact {

/// Per-step options of one compact() call.
struct Options {
  /// Layers "not relevant during this compaction step" (third parameter of
  /// the DSL's compact()).
  std::vector<tech::LayerId> ignoreLayers;
  /// Move variable edges of binding shapes (§2.3, Fig. 5b).
  bool enableVariableEdges = true;
  /// Extend same-potential conducting shapes to touch after the move.
  bool autoConnect = true;
  /// Extra clearance added on top of every spacing rule (0 = rule minimum,
  /// "the objects are placed with the minimum distance").
  Coord extraGap = 0;
};

/// Result of one compaction step.
struct Result {
  /// obj-raw-id -> new id in target (kNoShape for dead entries).
  std::vector<db::ShapeId> idMap;
  /// Applied translation of the object.
  Point translation;
  /// Number of variable-edge shrink operations performed.
  int edgeMoves = 0;
  /// Number of auto-connect extensions performed.
  int autoConnects = 0;
};

/// Compact `obj` onto `target` moving in `dir`, then merge it into
/// `target`.  An empty target receives the object unmoved (the DSL's first
/// compact() "copies the first transistor into the data structure").
/// Both modules must share the same Technology.  Shape pairs are
/// enumerated through a geom::SpatialIndex over the target; the all-pairs
/// oracle the tests compare against lives in tests/oracle/.
///
/// Successive construction keeps its state on the target: a step takes
/// the module's shape index (db::Module::takeShapeIndex), inserts what it
/// merges, and parks it again after a step that only appended shapes, so
/// the next call, or a checker, reuses it if the module was not mutated in
/// between.  A step that edited the target's own shapes (a variable-edge
/// shrink, an array rebuild, an auto-connect extension), an out-of-band
/// mutation, a move or a throw makes the next call rebuild it, and so does
/// the first call on a copy (counter db.index.builds).  Layouts do not
/// depend on which.
Result compact(db::Module& target, const db::Module& obj, Dir dir,
               const Options& options = {});

/// Convenience overload resolving ignore-layer names through the target's
/// technology, mirroring the DSL call  compact(diffcon, WEST, "pdiff").
Result compact(db::Module& target, const db::Module& obj, Dir dir,
               std::initializer_list<std::string_view> ignoreLayerNames);

/// How far side `s` of shape `id` may move inwards without violating its
/// own minimum width, its enclosure records, or the ability of its cut
/// arrays to hold at least one element.
Coord maxShrink(const db::Module& m, db::ShapeId id, Side s);

}  // namespace amg::compact
