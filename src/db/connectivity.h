// Electrical connectivity extraction from geometry.
//
// Used by tests and the DRC checker to verify the compactor's
// auto-connection feature ("the rectangles on the same potential are
// merged", §2.3): after compaction the declared potentials must agree with
// the geometrically extracted components.
//
// The extraction is a property of a module snapshot.  A module extracts it
// at most once per Module::stamp(): the first Connectivity built on a
// snapshot resolves every component and parks the result on the module;
// every later Connectivity at the same stamp (the DRC's same-net
// exemption, device extraction, LVS) shares it.  Any mutation changes the
// stamp, so the next Connectivity rebuilds; a copy of the module starts
// without the parked result.  Several threads may construct Connectivity
// on one const module at once; if they race to build, each result is
// correct and one of them stays parked.
#pragma once

#include <memory>
#include <string>
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
///
/// A Connectivity is a cheap handle on the resolved extraction; it stays
/// valid after the module changes or dies, and answers for the snapshot it
/// was made from.
class Connectivity {
 public:
  /// The components of `m`: the extraction parked on `m` when its stamp
  /// matches, otherwise a fresh one (counted by `connectivity.builds`),
  /// which is then parked.  Gate and shield candidates come from the
  /// module's shape index (Module::shapeIndex, a superset-exact prune);
  /// the all-pairs oracle the tests compare against lives in tests/oracle/.
  explicit Connectivity(const Module& m);

  /// True when any electrical parts of the two shapes share a component.
  bool connected(ShapeId a, ShapeId b) const;
  /// Component index of a shape; -1 for non-electrical shapes and for
  /// shapes that span several components (gated diffusion).
  int componentOf(ShapeId id) const;
  int componentCount() const;
  /// Shapes grouped by component, components ordered by first shape id.
  /// Spanning shapes (componentOf == -1) are not listed.
  std::vector<std::vector<ShapeId>> components() const;

  /// Component of the electrical fragment of `shape` containing point `p`
  /// (for gated diffusions whose fragments live on different nodes);
  /// -1 when no fragment of the shape contains the point.
  int componentAt(ShapeId shape, Point p) const;

  /// The declared net name of a component: the name of the first named
  /// shape whose (unique) component is `comp`; "" when none is named.
  const std::string& netNameOf(int comp) const;

 private:
  std::shared_ptr<const ConnectivityData> d_;
};

}  // namespace amg::db
