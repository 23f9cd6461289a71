// Test-only oracles: the all-pairs scans the spatial-index consumers
// replaced.
//
// Production enumerates candidate shape pairs through geom::SpatialIndex
// in the compactor, the DRC, the connectivity and device extractors and
// the router's obstacle lookup.  Each function here answers the same
// question by scanning every pair (or every shape), applying the exact
// predicates the production code uses (drc/detail.h, db/connectivity_detail.h,
// route::conflicts; the compactor runs its own step driver with a
// candidate source that lists every shape, compact/detail.h), so
// tests/spatial_test.cpp and bench_spatial can demand identical results —
// the index may prune, never change an answer.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "compact/compactor.h"
#include "drc/drc.h"
#include "drc/extract.h"

namespace amg::oracle {

/// compact::compact() with every target shape a candidate for constraints,
/// auto-connect partners and extension-safety checks.
compact::Result bruteCompact(db::Module& target, const db::Module& obj, Dir dir,
                             const compact::Options& options = {});

/// drc::check() with all-pairs spacing and all-covers enclosure scans.
std::vector<drc::Violation> bruteCheck(const db::Module& m,
                                       const drc::CheckOptions& options = {});

/// drc::extractMos() with every poly x diffusion shape pair a channel
/// candidate, in gate-id-then-diffusion-id order.
std::vector<drc::ExtractedMos> bruteExtractMos(const db::Module& m);

/// db::Connectivity's component partition, built by testing every node pair.
class BruteConnectivity {
 public:
  explicit BruteConnectivity(const db::Module& m);

  int componentCount() const { return componentCount_; }
  /// As db::Connectivity::componentOf: -1 for non-electrical shapes and
  /// for shapes whose fragments land in several components.
  int componentOf(db::ShapeId id) const;
  /// As db::Connectivity::components: components ordered by first shape.
  std::vector<std::vector<db::ShapeId>> components() const;
  /// As db::Connectivity::componentAt: the first fragment of `shape`
  /// containing `p`.
  int componentAt(db::ShapeId shape, Point p) const;
  /// As db::Connectivity::netNameOf, by scanning every shape of the module
  /// (which must outlive this object).
  std::string netNameOf(int comp) const;

 private:
  const db::Module* m_;
  std::vector<std::vector<int>> nodesOf_;  ///< shape id -> node indices
  std::vector<Box> nodeBox_;               ///< node -> fragment
  std::vector<int> nodeComp_;              ///< node -> dense component index
  int componentCount_ = 0;
};

/// route::Obstacles scanning every tracked shape on each probe.
class BruteObstacles {
 public:
  explicit BruteObstacles(const db::Module& m);
  void add(db::ShapeId id);
  std::optional<db::ShapeId> firstConflict(const db::Shape& s) const;

 private:
  const db::Module* m_;
  std::vector<db::ShapeId> ids_;  ///< tracked obstacles, ascending
};

}  // namespace amg::oracle
