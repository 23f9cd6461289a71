// Obstacle lookup for the routing routines.
//
// A router placing a wire or via needs to know whether the new geometry
// conflicts with the module's existing shapes — closer than the spacing
// rule to a foreign-net shape, or overlapping a shape on an unrelated
// layer.  The naive answer is a scan over every shape per placed segment,
// which turns channel routing into another O(n²) hot path; Obstacles
// takes the module's shape index (db::Module::takeShapeIndex) so each
// probe touches only the shapes within the rule halo of the probed box.
//
// Determinism contract: firstConflict() returns the *lowest-id*
// conflicting shape — index candidates come back sorted by id and the
// exact predicate (conflicts() below) is re-applied to each, so the answer
// is identical to a scan over every tracked shape (the oracle in
// tests/oracle/).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "db/module.h"
#include "geom/spatial.h"

namespace amg::route {

/// Whether tracked shape `o` conflicts with a shape `s` being placed: `o`
/// is on a non-marker layer, is not on the same (named) net as `s`, and
/// either violates the spacing rule between the two layers or — when no
/// rule exists — overlaps `s` outright.
inline bool conflicts(const tech::Technology& t, const db::Shape& s, const db::Shape& o) {
  if (t.info(o.layer).kind == tech::LayerKind::Marker) return false;
  if (s.net != db::kNoNet && o.net == s.net) return false;
  if (auto rule = t.minSpacing(s.layer, o.layer))
    return gapX(s.box, o.box) < *rule && gapY(s.box, o.box) < *rule;
  return s.box.overlaps(o.box);  // no rule, but a stray overlap changes devices
}

class Obstacles {
 public:
  /// Take the shape index of `m`, so the current shapes are the
  /// obstacles.  The module must outlive the Obstacles; shapes added to
  /// `m` later are only considered after an explicit add().
  explicit Obstacles(db::Module& m);

  /// Register a shape created after the snapshot (a placed wire segment)
  /// as an obstacle for subsequent probes.  Registering an id twice is
  /// harmless to probes, but the index is then no longer exact.
  void add(db::ShapeId id);

  /// The lowest-id tracked shape in conflict with `s` (see conflicts()),
  /// or nullopt when `s` is clear.
  std::optional<db::ShapeId> firstConflict(const db::Shape& s) const;

  /// Park the index on the module again, ending this tracker's use.  Only
  /// when every shape appended since construction was add()ed once, so
  /// the index is exact.
  void park() { m_->parkShapeIndex(std::move(idx_)); }

 private:
  db::Module* m_;
  std::shared_ptr<geom::SpatialIndex> idx_;  ///< the tracked obstacles
  mutable std::vector<std::uint32_t> scratch_;
};

}  // namespace amg::route
