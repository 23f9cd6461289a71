// Electrical connectivity extraction from geometry.
//
// Used by tests and the DRC checker to verify the compactor's
// auto-connection feature ("the rectangles on the same potential are
// merged", §2.3): after compaction the declared potentials must agree with
// the geometrically extracted components.
#pragma once

#include <vector>

#include "db/module.h"

namespace amg::db {

/// True when two boxes share more than a single point (edge abutment or
/// area overlap) — the condition for same-layer electrical contact.
bool electricallyTouching(const Box& a, const Box& b);

/// Connected components of a module's conducting geometry.
/// Same-layer shapes connect by touching; cut shapes connect shapes on the
/// layers the technology says the cut joins, when the cut overlaps both.
///
/// The extractor is gate-aware: a diffusion shape crossed by poly is split
/// into channel-separated fragments, so a MOS device does not short its
/// source to its drain.  A shape whose fragments land in different
/// components (the spanning diffusion of a transistor) reports
/// componentOf() == -1; connected() answers true when *any* fragments of
/// the two shapes share a component.
class Connectivity {
 public:
  /// Extract the components of `m`.  Candidate pairs come from a
  /// geom::SpatialIndex (a superset-exact prune); the all-pairs oracle the
  /// tests compare against lives in tests/oracle/.
  explicit Connectivity(const Module& m);

  /// True when any electrical parts of the two shapes share a component.
  bool connected(ShapeId a, ShapeId b) const;
  /// Component index of a shape; -1 for non-electrical shapes and for
  /// shapes that span several components (gated diffusion).
  int componentOf(ShapeId id) const;
  int componentCount() const { return componentCount_; }
  /// Shapes grouped by component, components ordered by first shape id.
  /// Spanning shapes (componentOf == -1) are not listed.
  std::vector<std::vector<ShapeId>> components() const;

  /// Component of the electrical fragment of `shape` containing point `p`
  /// (for gated diffusions whose fragments live on different nodes);
  /// -1 when no fragment of the shape contains the point.
  int componentAt(ShapeId shape, Point p) const;

  /// The declared net name of a component: the name of the first named
  /// shape whose (unique) component is `comp`; "" when none is named.
  std::string netNameOf(int comp) const;

 private:
  struct Node {
    ShapeId shape;
    Box box;
  };

  int find(int x) const;
  void unite(int a, int b);

  const Module* m_;
  std::vector<Node> nodes_;
  std::vector<std::vector<int>> nodesOf_;  // shape id -> node indices
  mutable std::vector<int> parent_;
  int componentCount_ = 0;
  std::vector<int> compIndex_;
};

}  // namespace amg::db
