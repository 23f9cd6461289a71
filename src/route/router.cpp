#include "route/router.h"

#include <algorithm>
#include <limits>

#include "obs/obs.h"
#include "primitives/primitives.h"
#include "route/obstacles.h"

namespace amg::route {
namespace {

using tech::Technology;

Coord wireWidth(const Technology& t, LayerId layer, std::optional<Coord> width) {
  const Coord w = width.value_or(t.minWidth(layer));
  if (w < t.minWidth(layer))
    throw DesignRuleError("wire width " + std::to_string(w) + " below minimum of '" +
                          t.info(layer).name + "'");
  return w;
}

}  // namespace

Port portOf(const Module& m, ShapeId id) {
  return Port{m.shape(id).box.center(), m.shape(id).layer};
}

ShapeId wireStraight(Module& m, LayerId layer, Point a, Point b,
                     std::optional<Coord> width, NetId net) {
  const Coord w = wireWidth(m.technology(), layer, width);
  if (a.x != b.x && a.y != b.y)
    throw DesignRuleError("wireStraight: endpoints are not axis-aligned");
  OBS_COUNT("route.wires");
  Box box;
  if (a.x == b.x) {
    const Coord lo = std::min(a.y, b.y) - w / 2, hi = std::max(a.y, b.y) + (w - w / 2);
    box = Box{a.x - w / 2, lo, a.x - w / 2 + w, hi};
  } else {
    const Coord lo = std::min(a.x, b.x) - w / 2, hi = std::max(a.x, b.x) + (w - w / 2);
    box = Box{lo, a.y - w / 2, hi, a.y - w / 2 + w};
  }
  return m.addShape(db::makeShape(box, layer, net));
}

std::pair<ShapeId, ShapeId> wireL(Module& m, LayerId layer, Point a, Point b,
                                  bool xFirst, std::optional<Coord> width, NetId net) {
  const Coord w = wireWidth(m.technology(), layer, width);
  if (a.x == b.x || a.y == b.y) {
    const ShapeId s = wireStraight(m, layer, a, b, w, net);
    return {s, s};
  }
  // Bend at (b.x, a.y) when horizontal-first, else at (a.x, b.y).
  const Point corner = xFirst ? Point{b.x, a.y} : Point{a.x, b.y};
  const Coord lenH = xFirst ? (a.x - corner.x) : (b.x - corner.x);
  const Coord lenV = xFirst ? (b.y - corner.y) : (a.y - corner.y);
  return prim::angleAdaptor(m, layer, corner, lenH, lenV, w, net);
}

std::vector<ShapeId> wireZ(Module& m, LayerId layer, Point a, Point b, Coord mid,
                           bool horizontalArms, std::optional<Coord> width,
                           NetId net) {
  const Coord w = wireWidth(m.technology(), layer, width);
  std::vector<ShapeId> out;
  if (horizontalArms) {
    // a --- (mid, a.y) | (mid, b.y) --- b
    out.push_back(wireStraight(m, layer, a, Point{mid, a.y}, w, net));
    out.push_back(wireStraight(m, layer, Point{mid, a.y}, Point{mid, b.y}, w, net));
    out.push_back(wireStraight(m, layer, Point{mid, b.y}, b, w, net));
  } else {
    out.push_back(wireStraight(m, layer, a, Point{a.x, mid}, w, net));
    out.push_back(wireStraight(m, layer, Point{a.x, mid}, Point{b.x, mid}, w, net));
    out.push_back(wireStraight(m, layer, Point{b.x, mid}, b, w, net));
  }
  return out;
}

std::vector<ShapeId> viaStack(Module& m, Point at, LayerId from, LayerId to,
                              NetId net) {
  const Technology& t = m.technology();
  if (from == to) return {};
  const auto cuts = t.cutsBetween(from, to);
  if (cuts.empty())
    throw DesignRuleError("no cut layer connects '" + t.info(from).name + "' and '" +
                          t.info(to).name + "'");
  const LayerId cut = cuts.front();
  OBS_COUNT("route.vias");
  const auto [cw, ch] = t.cutSize(cut);
  const Coord encFrom = t.enclosure(from, cut).value_or(0);
  const Coord encTo = t.enclosure(to, cut).value_or(0);

  std::vector<ShapeId> out;
  auto pad = [&](LayerId l, Coord enc) {
    const Coord pw = std::max(cw + 2 * enc, t.minWidth(l));
    const Coord ph = std::max(ch + 2 * enc, t.minWidth(l));
    return m.addShape(db::makeShape(Box::centredOn(at, pw, ph), l, net));
  };
  out.push_back(pad(from, encFrom));
  out.push_back(m.addShape(db::makeShape(Box::centredOn(at, cw, ch), cut, net)));
  out.push_back(pad(to, encTo));
  return out;
}

std::vector<ShapeId> connectShapes(Module& m, ShapeId a, ShapeId b, LayerId onLayer,
                                   std::optional<Coord> width) {
  // Copies, not references: the viaStack() calls below add shapes to `m`,
  // which may reallocate the shape vector out from under a reference.
  const db::Shape sa = m.shape(a);
  const db::Shape sb = m.shape(b);
  const NetId net = sa.net != db::kNoNet ? sa.net : sb.net;
  const Point pa = sa.box.center();
  const Point pb = sb.box.center();

  std::vector<ShapeId> out;
  if (sa.layer != onLayer) {
    auto v = viaStack(m, pa, sa.layer, onLayer, net);
    out.insert(out.end(), v.begin(), v.end());
  }
  if (sb.layer != onLayer) {
    auto v = viaStack(m, pb, sb.layer, onLayer, net);
    out.insert(out.end(), v.begin(), v.end());
  }
  if (pa.x == pb.x || pa.y == pb.y) {
    out.push_back(wireStraight(m, onLayer, pa, pb, width, net));
  } else {
    auto [h, v] = wireL(m, onLayer, pa, pb, /*xFirst=*/true, width, net);
    out.push_back(h);
    if (v != h) out.push_back(v);
  }
  return out;
}

std::vector<ShapeId> connectPorts(Module& m, const db::PortDef& a,
                                  const db::PortDef& b, LayerId onLayer,
                                  std::optional<Coord> width) {
  const NetId net = a.net != db::kNoNet ? a.net : b.net;
  std::vector<ShapeId> out;
  if (a.layer != onLayer) {
    auto v = viaStack(m, a.at, a.layer, onLayer, net);
    out.insert(out.end(), v.begin(), v.end());
  }
  if (b.layer != onLayer) {
    auto v = viaStack(m, b.at, b.layer, onLayer, net);
    out.insert(out.end(), v.begin(), v.end());
  }
  if (a.at.x == b.at.x || a.at.y == b.at.y) {
    out.push_back(wireStraight(m, onLayer, a.at, b.at, width, net));
  } else {
    auto [h, v] = wireL(m, onLayer, a.at, b.at, true, width, net);
    out.push_back(h);
    if (v != h) out.push_back(v);
  }
  return out;
}

int channelRoute(Module& m, const std::vector<ChannelNet>& nets, Coord yBottom,
                 Coord yTop, LayerId hLayer, LayerId vLayer,
                 std::optional<Coord> width, bool verifyClear) {
  obs::Span span("route.channel");
  span.arg("module", m.name())
      .arg("nets", static_cast<std::uint64_t>(nets.size()))
      .arg("verify", verifyClear);
  OBS_COUNT("route.channels");
  const Technology& t = m.technology();
  const Coord w = wireWidth(t, hLayer, width);
  const Coord wv = std::max(w, t.minWidth(vLayer));

  // The widest geometry a track carries is its via pads (when the layers
  // differ): pitch and horizontal clearance must clear pads, not just
  // wires.
  Coord trackExtent = w, postExtent = wv;
  if (hLayer != vLayer) {
    const auto cuts = t.cutsBetween(hLayer, vLayer);
    if (cuts.empty())
      throw DesignRuleError("channelRoute: no cut between the routing layers");
    const auto [cw, ch] = t.cutSize(cuts.front());
    for (const tech::LayerId l : {hLayer, vLayer}) {
      const Coord enc = t.enclosure(l, cuts.front()).value_or(0);
      trackExtent = std::max(trackExtent, ch + 2 * enc);
      postExtent = std::max(postExtent, cw + 2 * enc);
    }
  }
  const Coord hSpace = std::max(t.minSpacing(hLayer, hLayer).value_or(w),
                                t.minSpacing(vLayer, vLayer).value_or(wv));
  const Coord pitch = trackExtent + hSpace;

  // Left-edge algorithm: sort by left end, greedily pack onto tracks.
  struct Span {
    std::size_t net;
    Coord lo, hi;
  };
  std::vector<Span> spans;
  spans.reserve(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i)
    spans.push_back(Span{i, std::min(nets[i].xTop, nets[i].xBottom),
                         std::max(nets[i].xTop, nets[i].xBottom)});

  const Coord postSpace = t.minSpacing(vLayer, vLayer).value_or(wv);
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.lo < b.lo; });

  std::vector<Coord> trackRight;         // rightmost occupied x per track
  std::vector<int> trackOf(nets.size());  // net index -> track
  const Coord vClear = postExtent + hSpace;
  for (const Span& s : spans) {
    int track = -1;
    for (std::size_t ti = 0; ti < trackRight.size(); ++ti) {
      // The new span's left post (vertical + pad) must clear the previous
      // span's right post on the same track.
      if (trackRight[ti] + vClear <= s.lo) {
        track = static_cast<int>(ti);
        break;
      }
    }
    if (track < 0) {
      track = static_cast<int>(trackRight.size());
      trackRight.push_back(std::numeric_limits<Coord>::min() / 2);
    }
    trackOf[s.net] = track;
    trackRight[static_cast<std::size_t>(track)] = s.hi;
  }

  // Channel routing presumes distinct pin columns on each side: two nets
  // with posts closer than a wire plus spacing would short.  Posts on
  // opposite sides conflict only when their vertical extents overlap,
  // which the track assignment decides.
  for (std::size_t i = 0; i < nets.size(); ++i) {
    for (std::size_t j = 0; j < nets.size(); ++j) {
      if (i == j) continue;
      auto tooClose = [&](Coord a, Coord b) { return std::abs(a - b) < wv + postSpace; };
      const bool sameSide =
          (j > i) && (tooClose(nets[i].xTop, nets[j].xTop) ||
                      tooClose(nets[i].xBottom, nets[j].xBottom));
      // i's bottom post [yBottom..track_i] vs j's top post [track_j..yTop].
      const bool crossSide =
          tooClose(nets[i].xBottom, nets[j].xTop) && trackOf[i] >= trackOf[j];
      if (sameSide || crossSide)
        throw DesignRuleError("channelRoute: pin columns of nets '" + nets[i].net +
                              "' and '" + nets[j].net +
                              "' conflict; dogleg one of the pins");
    }
  }

  const int tracks = static_cast<int>(trackRight.size());
  const Coord margin = pitch;  // clearance to the channel edges
  if (2 * margin + tracks * pitch > yTop - yBottom)
    throw DesignRuleError("channelRoute: " + std::to_string(tracks) +
                          " tracks do not fit a channel of height " +
                          std::to_string(yTop - yBottom) + " nm");

  // Obstacle probe over the pre-route geometry: each placed segment is
  // checked against foreign shapes, then registered as an obstacle itself
  // (same-net segments are exempt from each other by design).  Every
  // shape the route appends goes through placed(), so the index is exact
  // at the end and is parked again.
  std::optional<Obstacles> obs;
  if (verifyClear) obs.emplace(m);
  auto placed = [&](ShapeId id) {
    if (!obs) return;
    if (const auto hit = obs->firstConflict(m.shape(id)))
      throw DesignRuleError("channelRoute: placed segment (shape " +
                            std::to_string(id) + ") conflicts with shape " +
                            std::to_string(*hit));
    obs->add(id);
  };

  for (std::size_t i = 0; i < nets.size(); ++i) {
    const NetId net = m.net(nets[i].net);
    const Coord y = yBottom + margin + trackOf[i] * pitch + w / 2;
    placed(wireStraight(m, vLayer, Point{nets[i].xBottom, yBottom},
                        Point{nets[i].xBottom, y}, wv, net));
    placed(wireStraight(m, vLayer, Point{nets[i].xTop, y}, Point{nets[i].xTop, yTop},
                        wv, net));
    if (nets[i].xTop != nets[i].xBottom) {
      placed(wireStraight(m, hLayer, Point{nets[i].xBottom, y}, Point{nets[i].xTop, y},
                          w, net));
      if (hLayer != vLayer) {
        for (const ShapeId id : viaStack(m, Point{nets[i].xBottom, y}, vLayer, hLayer, net))
          placed(id);
        for (const ShapeId id : viaStack(m, Point{nets[i].xTop, y}, vLayer, hLayer, net))
          placed(id);
      }
    }
  }
  if (obs) obs->park();
  span.arg("tracks", tracks);
  return tracks;
}

ShapeId strapByCompaction(Module& m, std::string_view netName, LayerId layer, Dir dir,
                          std::optional<Coord> width) {
  const Technology& t = m.technology();
  const Coord w = wireWidth(t, layer, width);
  const auto net = m.findNet(netName);
  if (!net)
    throw DesignRuleError("strapByCompaction: module has no net '" +
                          std::string(netName) + "'");
  // Cross-axis extent of the net's geometry on this layer.
  Box extent;
  for (ShapeId id : m.shapesOn(layer))
    if (m.shape(id).net == *net) extent = extent.unite(m.shape(id).box);
  if (extent.empty())
    throw DesignRuleError("strapByCompaction: net '" + std::string(netName) +
                          "' has no geometry on layer '" + t.info(layer).name + "'");

  // Build the strap far out on the arrival side and compact it in.
  Module strap(t, "strap");
  const Box bb = m.bboxAll();
  const Coord off = std::max(bb.width(), bb.height()) * 2 + 100 * kMicron;
  Box sb;
  if (isHorizontal(dir)) {
    const Coord x = dir == Dir::West ? bb.x2 + off : bb.x1 - off - w;
    sb = Box{x, extent.y1, x + w, extent.y2};
  } else {
    const Coord y = dir == Dir::South ? bb.y2 + off : bb.y1 - off - w;
    sb = Box{extent.x1, y, extent.x2, y + w};
  }
  strap.addShape(db::makeShape(sb, layer, strap.net(netName)));

  const auto r = compact::compact(m, strap, dir);
  return r.idMap[0];
}

void addMirrored(Module& m, const Module& half, Coord axisX,
                 const std::vector<std::pair<std::string, std::string>>& netMap) {
  m.merge(half, geom::Transform{});

  // Build the right half with swapped net names, then mirror it in.
  Module right = half;
  // Rename via temporaries to support swaps (a->b, b->a).
  for (std::size_t i = 0; i < netMap.size(); ++i) {
    if (auto n = right.findNet(netMap[i].first))
      right.moveNet(*n, right.net("__tmp" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < netMap.size(); ++i) {
    if (auto n = right.findNet("__tmp" + std::to_string(i)))
      right.moveNet(*n, right.net(netMap[i].second));
  }
  m.merge(right, geom::Transform::mirrorX(axisX));
}

}  // namespace amg::route
