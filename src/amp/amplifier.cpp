#include "amp/amplifier.h"

#include <algorithm>

#include "drc/drc.h"
#include "modules/basic.h"
#include "modules/bipolar.h"
#include "modules/centroid.h"
#include "modules/guard.h"
#include "modules/interdigitated.h"
#include "obs/obs.h"
#include "route/router.h"

namespace amg::amp {
namespace {

/// Bounding box of the widest shape of `net` on `layer` — the rail a
/// global route attaches to.
Box railOf(const db::Module& m, const std::string& net, tech::LayerId layer) {
  const auto n = m.findNet(net);
  if (!n) throw DesignRuleError("amplifier: no net '" + net + "'");
  Box best;
  for (db::ShapeId id : m.shapesOn(layer)) {
    const db::Shape& s = m.shape(id);
    if (s.net == *n && s.box.width() > best.width()) best = s.box;
  }
  if (best.empty())
    throw DesignRuleError("amplifier: net '" + net + "' has no rail on layer");
  return best;
}

db::Module makeBlockA(const Technology& t, const AmplifierSpec& spec) {
  modules::CascodeSpec a;
  a.w = spec.aW;
  a.l = spec.aL;
  a.fingers = spec.aFingers;
  a.gateLowNet = "bias1";
  a.gateHighNet = "bias2";
  a.sourceNet = "vss";
  a.midNet = "a_mid";
  a.outNet = "a_out";
  a.name = "blockA";
  return modules::cascodePair(t, a);
}

db::Module makeBlockB(const Technology& t, const AmplifierSpec& spec) {
  modules::MirrorSpec b;
  b.w = spec.bW;
  b.l = spec.bL;
  b.inNet = "b_in";
  b.outNet = "b_out";
  b.sourceNet = "vss";
  b.name = "blockB";
  return modules::currentMirror(t, b);
}

db::Module makeBlockC(const Technology& t, const AmplifierSpec& spec) {
  modules::CrossCoupledSpec c;
  c.w = spec.cW;
  c.l = spec.cL;
  c.pairsPerDevice = spec.cPairs;
  c.gateANet = "bias1";
  c.gateBNet = "bias1";
  c.drainANet = "c_ia";
  c.drainBNet = "c_ib";
  c.sourceNet = "vss";
  c.name = "blockC";
  return modules::crossCoupledPair(t, c);
}

db::Module makeBlockD(const Technology& t, const AmplifierSpec& spec) {
  modules::InterdigSpec d;
  d.w = spec.dW;
  d.l = spec.dL;
  d.fingers = spec.dFingers;
  d.gateNet = "d_g";
  d.sourceNet = "vss";
  d.drainNet = "d_out";
  d.name = "blockD";
  return modules::interdigitatedMos(t, d);
}

db::Module makeBlockF(const Technology& t, const AmplifierSpec& spec) {
  modules::NpnPairSpec f;
  f.emitterW = spec.fEmitterW;
  f.emitterL = spec.fEmitterL;
  f.leftPrefix = "f1_";
  f.rightPrefix = "f2_";
  f.name = "blockF";
  return modules::bipolarPair(t, f);
}

}  // namespace

std::vector<db::Module> buildBlocks(const Technology& t, const AmplifierSpec& spec) {
  std::vector<db::Module> out;
  out.push_back(makeBlockA(t, spec));
  out.push_back(makeBlockB(t, spec));
  out.push_back(makeBlockC(t, spec));
  out.push_back(makeBlockD(t, spec));
  out.push_back(buildModuleE(t, spec));
  if (spec.includeBipolar && t.findLayer("pbase").has_value())
    out.push_back(makeBlockF(t, spec));
  return out;
}

db::Module buildModuleE(const Technology& t, const AmplifierSpec& spec) {
  modules::CentroidSpec e;
  e.w = spec.eW;
  e.l = spec.eL;
  e.pairsPerSide = spec.ePairs;
  e.centerDummies = spec.eCenterDummies;
  e.edgeDummies = spec.eEdgeDummies;
  e.gateANet = "inp";
  e.gateBNet = "inn";
  e.drainANet = "e_outa";
  e.drainBNet = "e_outb";
  e.sourceNet = "e_tail";
  e.name = "blockE";
  return modules::centroidDiffPair(t, e);
}

AmplifierResult buildAmplifier(const Technology& t, const AmplifierSpec& spec) {
  AmplifierResult res{db::Module(t, "bicmos_amplifier")};

  // ----- module generation (one generator call per block) ----------------
  auto timed = [&](char id, const char* style, auto&& build) {
    obs::Span span("amp.block");
    span.arg("block", std::string(1, id)).arg("style", style);
    db::Module m = build();
    BlockReport r;
    r.id = id;
    r.style = style;
    r.width = m.bbox().width();
    r.height = m.bbox().height();
    r.rects = m.shapeCount();
    r.buildSeconds = span.elapsedSeconds();
    span.arg("rects", static_cast<std::uint64_t>(r.rects));
    res.blocks.push_back(r);
    res.totalSeconds += r.buildSeconds;
    return m;
  };

  db::Module blockA = timed('A', "cascode, inter-digital",
                            [&] { return makeBlockA(t, spec); });
  db::Module blockB = timed('B', "mirror, diode in the middle",
                            [&] { return makeBlockB(t, spec); });
  db::Module blockC = timed('C', "cross-coupled current sources",
                            [&] { return makeBlockC(t, spec); });
  db::Module blockD = timed('D', "plain inter-digital",
                            [&] { return makeBlockD(t, spec); });
  db::Module blockE =
      timed('E', "centroid cross-coupled + dummies", [&] { return buildModuleE(t, spec); });

  const bool withBipolar = spec.includeBipolar && t.findLayer("pbase").has_value();
  std::optional<db::Module> blockF;
  if (withBipolar)
    blockF = timed('F', "symmetric npn pair", [&] { return makeBlockF(t, spec); });

  // ----- manual placement (two rows with routing streets) ----------------
  obs::Span asmSpan("amp.assemble");
  db::Module& top = res.layout;
  const Coord s = spec.street;

  auto place = [&](db::Module& block, Coord x, Coord y) {
    const Box bb = block.bboxAll();
    block.translate(x - bb.x1, y - bb.y1);
    top.merge(block, geom::Transform{});
    return Box{x, y, x + bb.width(), y + bb.height()};
  };

  // Bottom row: D, E, F.  Top row: A, B, C.
  const Box bd = place(blockD, 0, 0);
  const Box be = place(blockE, bd.x2 + s, 0);
  const Box bf = withBipolar ? place(*blockF, be.x2 + s, 0) : be;
  const Coord rowTop = std::max({bd.y2, be.y2, bf.y2});
  const Box ba = place(blockA, 0, rowTop + s);
  const Box bb = place(blockB, ba.x2 + s, rowTop + s);
  const Box bc = place(blockC, bb.x2 + s, rowTop + s);
  (void)bc;

  // ----- manual global routing -------------------------------------------
  // All trunks on metal2.  Every block's own metal2 (the DB rails of C and
  // E, the diode jumper of B) sits in a known band, and trunks must also
  // not cross each other, so the paths below are chosen planar by hand —
  // exactly the paper's "the global routing was done manually".
  const tech::LayerId m1 = t.layer("metal1");
  const tech::LayerId m2 = t.layer("metal2");

  // A waypoint path with a layer per segment.  Vertical risers through
  // blocks run on metal2 (no rules against the block's metal1/poly);
  // horizontal street runs use metal1 so that a riser of one trunk may
  // cross a street run of another without shorting.  Vias appear at every
  // layer change and at the rail attachments.
  auto path = [&](const std::string& net, const std::vector<Point>& pts,
                  const std::vector<tech::LayerId>& layers) {
    const db::NetId n = top.net(net);
    if (layers.front() != m1) route::viaStack(top, pts.front(), m1, layers.front(), n);
    for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
      const Coord w = std::max(um(2), t.minWidth(layers[i]));
      route::wireStraight(top, layers[i], pts[i], pts[i + 1], w, n);
      if (i + 1 < layers.size() && layers[i + 1] != layers[i])
        route::viaStack(top, pts[i + 1], layers[i], layers[i + 1], n);
    }
    if (layers.back() != m1) route::viaStack(top, pts.back(), layers.back(), m1, n);
  };
  // Attachment point on a rail, clamped so the via pad (metal2 pad is
  // 2.8 um) stays inside it; narrow rails attach at their centre.
  auto attach = [&](const std::string& net, Coord wantX) {
    const Box r = railOf(top, net, m1);
    const Coord pad = um(1.4);
    const Coord lo = r.x1 + pad, hi = r.x2 - pad;
    const Coord x = lo <= hi ? std::clamp(wantX, lo, hi) : r.center().x;
    return Point{x, r.center().y};
  };

  // Street coordinates.
  const Coord yNorth = std::max({ba.y2, bb.y2, bc.y2}) + s / 2;
  const Coord yMid1 = rowTop + s / 3;   // lower middle lane (trunk t3)
  const Coord yMid2 = rowTop + 2 * s / 3;  // upper middle lane (trunk t4)
  const Coord ySouth1 = -s / 2;         // south lane (trunk t3)
  const Coord xDE = bd.x2 + s / 2;      // street between D and E
  const Coord xEast = std::max(bc.x2, bf.x2) + s / 2;  // east of everything

  // t1: cascode output (A) biases the mirror input (B) — north street.
  {
    const Point pa = attach("a_out", ba.center().x);
    const Point pb = attach("b_in", bb.center().x);
    path("a_out", {pa, Point{pa.x, yNorth}, Point{pb.x, yNorth}, pb},
         {m2, m1, m2});
  }
  // t2: mirror output (B) to the bipolar bases (F) — north street, down
  // the east side, then west into F on metal2 (F has no metal2 of its own).
  if (withBipolar) {
    const Point pa = attach("b_out", bb.x2 - um(4));
    const Point pb = attach("f1_b", bf.center().x);
    path("b_out",
         {pa, Point{pa.x, yNorth}, Point{xEast, yNorth}, Point{xEast, pb.y}, pb},
         {m2, m1, m2, m2});
  }
  // t3: current source drain A (C) feeds the diff pair tail (E): down
  // through C at the drain rail's west end (no metal2 rail above that
  // column), west along the lower middle lane, down the D|E street, east
  // along the south lane into E's tail.
  {
    const Point pa = attach("c_ia", railOf(top, "c_ia", m1).x1);
    const Point pb = attach("e_tail", be.x1 + um(6));
    path("c_ia",
         {pa, Point{pa.x, yMid1}, Point{xDE, yMid1}, Point{xDE, ySouth1},
          Point{pb.x, ySouth1}, pb},
         {m2, m1, m2, m1, m2});
  }
  // t4: diff pair output A (E) drives the helper device drain (D): up
  // through E at the drain rail's west end, west along the upper middle
  // lane, down into D.
  {
    const Point pa = attach("e_outa", railOf(top, "e_outa", m1).x1);
    const Point pb = attach("d_out", bd.center().x);
    path("e_outa", {pa, Point{pa.x, yMid2}, Point{pb.x, yMid2}, pb},
         {m2, m1, m2});
  }

  // Power: vss trunks along the south edge (bottom row) and north edge
  // (top row), joined by a vertical link on the empty west side.  Risers
  // leave each block's source rail at its west end and travel away from
  // the block's interior, so no metal2 rail band is in the way.
  {
    const db::NetId vss = top.net("vss");
    const Coord ySouth = -s;
    const Coord yN = yNorth + s / 3;
    const Coord xWest = -s / 2;
    const Coord wTrunk = std::max(um(3), t.minWidth(m1));
    const Coord wRiser = std::max(um(2), t.minWidth(m2));

    Coord sMax = xWest, nMax = xWest;
    for (db::ShapeId id : top.shapesOn(m1)) {
      // A copy: the appends below may reallocate the module's shapes.
      const db::Shape sh = top.shape(id);
      // Source rails are the wide horizontal vss straps of each block.
      if (sh.net != vss || sh.box.width() <= um(15) ||
          sh.box.width() <= 3 * sh.box.height())
        continue;
      const Coord x = sh.box.x1 + um(2);
      const Coord y = sh.box.center().y;
      const bool topRow = y > rowTop;
      const Coord yT = topRow ? yN : ySouth;
      route::viaStack(top, Point{x, y}, m1, m2, vss);
      route::wireStraight(top, m2, Point{x, y}, Point{x, yT}, wRiser, vss);
      route::viaStack(top, Point{x, yT}, m2, m1, vss);
      (topRow ? nMax : sMax) = std::max(topRow ? nMax : sMax, x);
    }
    route::wireStraight(top, m1, Point{xWest, ySouth}, Point{sMax, ySouth}, wTrunk,
                        vss);
    route::wireStraight(top, m1, Point{xWest, yN}, Point{nMax, yN}, wTrunk, vss);
    route::wireStraight(top, m1, Point{xWest, ySouth}, Point{xWest, yN}, wTrunk, vss);
  }

  // ----- substrate contacts until the latch-up rule holds -----------------
  // Taps go on the implicit substrate node: they connect through the bulk,
  // not through drawn wiring.
  res.substrateContacts = drc::insertSubstrateContacts(top, "sub");

  res.assembleSeconds = asmSpan.elapsedSeconds();
  asmSpan.arg("substrate_contacts", static_cast<std::int64_t>(res.substrateContacts));
  const Box bbAll = top.bbox();
  res.width = bbAll.width();
  res.height = bbAll.height();
  return res;
}

}  // namespace amg::amp
