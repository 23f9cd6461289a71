// Contour-based fast path of the successive compactor.
//
// The paper's §2.3 speed argument: "only outer edges of the main object
// have to be kept in the data structure and no general edge graph must be
// created.  This speeds up the compaction time."  FastCompactor is that
// outer-edge record: one piecewise-constant envelope per (layer, potential)
// pair of the growing structure.  Placing the next object queries the
// envelopes instead of scanning every stored rectangle, so a build of n
// objects costs O(n log n)-ish instead of the Ω(n²) pairwise scan (and far
// below the full constraint-graph baseline of tests/baseline).
//
// Restrictions of the fast path (it is a placement engine, not the full
// featured compactor): variable edges, avoid-overlap properties and
// auto-connection are not applied.  Equivalence with the reference engine
// under these restrictions is covered by tests.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "compact/compactor.h"
#include "geom/contour.h"

namespace amg::compact {

class FastCompactor {
 public:
  /// A fast compactor compacts along one fixed direction for one target
  /// module (whose technology supplies the rules).
  FastCompactor(const tech::Technology& tech, Dir dir);

  /// Incorporate the current shapes of `m` as stationary structure.
  void addStructure(const db::Module& m);

  /// The canonical-frame translation the rules require for `obj` — the
  /// fast equivalent of requiredTranslation().  Net matching is by name
  /// against the potentials seen via addStructure()/place() target.
  Coord required(const db::Module& target, const db::Module& obj,
                 const Options& options = {}) const;

  /// Full fast placement step: compute the translation, merge `obj` into
  /// `target`, and add the arrived shapes to the envelopes.
  Result place(db::Module& target, const db::Module& obj, const Options& options = {});

  /// Total number of envelope segments (the "outer edge" record size).
  std::size_t segmentCount() const;

 private:
  /// Interned potential name: 0 = anonymous ("" / kNoNet), named nets get
  /// ids 1.. in first-seen order.  Keeps the envelope map key POD-sized
  /// and makes the hot same-net test in required() an integer compare
  /// instead of a string compare per (object shape × envelope).
  using NetId = std::uint32_t;
  /// Lookup result for a net name never seen by addStructure()/place():
  /// matches no stored envelope, so same-net exemption never fires.
  static constexpr NetId kUnknownNet = 0xFFFFFFFFu;

  struct Key {
    tech::LayerId layer;
    NetId net;  // interned potential; 0 = anonymous
    bool operator<(const Key& o) const {
      return layer != o.layer ? layer < o.layer : net < o.net;
    }
  };

  const tech::Technology* tech_;
  Dir dir_;
  std::map<Key, geom::Contour> contours_;
  std::unordered_map<std::string, NetId> netIds_;

  NetId internNet(const std::string& name);
  NetId lookupNet(const std::string& name) const;
  void addShape(const db::Module& m, db::ShapeId id);
};

}  // namespace amg::compact
