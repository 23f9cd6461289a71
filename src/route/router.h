// Internal-wiring support (§1: "Several routing routines support the
// internal wiring of the modules").
//
// Module generators wire their devices three ways, all provided here:
//  1. explicit rectilinear wires (straight / L via angle adaptor / Z),
//  2. via stacks to change layers,
//  3. wiring-by-compaction: a strap on the shared potential is compacted
//     onto the structure and merges with it (§2.3, Fig. 5a).
//
// All widths default to the layer minimum; every function tags the created
// geometry with the net so the compactor's same-potential rules and the
// DRC exemptions apply.
#pragma once

#include <optional>
#include <string_view>

#include "compact/compactor.h"
#include "db/module.h"

namespace amg::route {

using db::Module;
using db::NetId;
using db::ShapeId;
using tech::LayerId;

/// A connection endpoint: a position on a layer.
struct Port {
  Point at;
  LayerId layer = 0;
};

/// Port at the centre of an existing shape.
Port portOf(const Module& m, ShapeId id);

/// Straight wire between two points sharing an axis (throws when the points
/// are not axis-aligned).  The wire is widened symmetrically to `width`.
ShapeId wireStraight(Module& m, LayerId layer, Point a, Point b,
                     std::optional<Coord> width = std::nullopt, NetId net = db::kNoNet);

/// L-shaped wire from `a` to `b`: horizontal first when `xFirst`, using the
/// angle-adaptor primitive at the bend.  Returns the two arm shapes.
std::pair<ShapeId, ShapeId> wireL(Module& m, LayerId layer, Point a, Point b,
                                  bool xFirst = true,
                                  std::optional<Coord> width = std::nullopt,
                                  NetId net = db::kNoNet);

/// Z-shaped wire: two parallel arms joined by a perpendicular jog at
/// coordinate `mid` (an x when the arms are vertical, a y when horizontal).
/// `horizontalArms` selects the arm orientation.  Returns the three shapes.
std::vector<ShapeId> wireZ(Module& m, LayerId layer, Point a, Point b, Coord mid,
                           bool horizontalArms,
                           std::optional<Coord> width = std::nullopt,
                           NetId net = db::kNoNet);

/// Via stack at a point: the cut connecting `from` and `to` plus landing
/// pads on both layers, all rule-sized.  Throws when the technology has no
/// cut between the layers.  Returns {pad-from, cut, pad-to}.
std::vector<ShapeId> viaStack(Module& m, Point at, LayerId from, LayerId to,
                              NetId net = db::kNoNet);

/// Wire two existing shapes on conducting layers: straight when aligned,
/// else L-shaped between their centres; inserts via stacks at both ends
/// when the routing layer differs from a shape's layer.  Returns the
/// created shapes.
std::vector<ShapeId> connectShapes(Module& m, ShapeId a, ShapeId b, LayerId onLayer,
                                   std::optional<Coord> width = std::nullopt);

/// Wiring by compaction: build a strap on `layer`/net spanning the net's
/// current geometry across the movement axis and compact it onto the module
/// from direction `dir`; same-potential merging connects everything the
/// strap reaches (the Fig. 5a idiom).  Returns the strap's shape id in `m`.
ShapeId strapByCompaction(Module& m, std::string_view netName, LayerId layer, Dir dir,
                          std::optional<Coord> width = std::nullopt);

/// Wire two named ports: via stacks onto `onLayer` at both ends, straight
/// or L-shaped between them.  Ports carry their own layers and nets.
std::vector<ShapeId> connectPorts(Module& m, const db::PortDef& a,
                                  const db::PortDef& b, LayerId onLayer,
                                  std::optional<Coord> width = std::nullopt);

/// One channel connection: a pin on the channel's top edge at `xTop` and a
/// pin on the bottom edge at `xBottom`, both on `vLayer`, to be joined.
struct ChannelNet {
  std::string net;
  Coord xTop = 0;
  Coord xBottom = 0;
};

/// Classic left-edge channel routing between y = `yBottom` and y = `yTop`
/// ("routing of these blocks" in the paper's three-step flow): horizontal
/// track segments on `hLayer`, verticals on `vLayer`, vias at the bends.
/// Nets are packed onto tracks greedily by their left edge; two nets share
/// a track when their spans do not conflict.  Returns the number of tracks
/// used; throws DesignRuleError when the channel is too small for them.
/// With `verifyClear`, every placed segment is additionally probed against
/// the module's pre-route geometry through route::Obstacles (the module's
/// shape index, parked again after the route) and a DesignRuleError names
/// the first foreign shape a segment conflicts with (off by default: the
/// classic flow trusts the caller's channel bounds).
int channelRoute(Module& m, const std::vector<ChannelNet>& nets, Coord yBottom,
                 Coord yTop, LayerId hLayer, LayerId vLayer,
                 std::optional<Coord> width = std::nullopt, bool verifyClear = false);

/// Mirror-symmetric wiring helper: every shape of `half` is added to `m`
/// twice — once as-is, once mirrored about the vertical axis `x` — with the
/// nets renamed through `netMap` (pairs of left-net -> right-net; nets not
/// listed keep their name on both sides).  This is how the centroid
/// differential pair achieves "fully symmetrical wiring [where] every net
/// has identical crossings" (Fig. 10).
void addMirrored(Module& m, const Module& half, Coord axisX,
                 const std::vector<std::pair<std::string, std::string>>& netMap);

}  // namespace amg::route
