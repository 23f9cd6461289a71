// Tests for the module library: every generator must produce DRC-clean
// layouts across a parameter sweep (the environment's core promise), and
// the structural properties the paper claims (symmetry, centroid, merging)
// must hold.
#include <gtest/gtest.h>

#include "baseline/handcrafted.h"
#include "db/connectivity.h"
#include "drc/drc.h"
#include "modules/basic.h"
#include "modules/bipolar.h"
#include "modules/centroid.h"
#include "modules/guard.h"
#include "modules/interdigitated.h"
#include "modules/resistor.h"
#include "tech/builtin.h"

namespace amg::modules {
namespace {

using db::Module;
using tech::bicmos1u;
using tech::cmos2u;

const tech::Technology& T() { return bicmos1u(); }

drc::CheckOptions noLatchUp() {
  drc::CheckOptions o;
  o.latchUp = false;
  return o;
}

/// True when every shape of `net` on conducting layers is one electrical
/// component.
bool netIsConnected(const Module& m, const std::string& net) {
  const auto n = m.findNet(net);
  if (!n) return false;
  const db::Connectivity conn(m);
  int comp = -1;
  for (db::ShapeId id : m.shapeIds()) {
    const db::Shape& s = m.shape(id);
    if (s.net != *n) continue;
    if (!m.technology().info(s.layer).conducting &&
        m.technology().info(s.layer).kind != tech::LayerKind::Cut)
      continue;
    const int c = conn.componentOf(id);
    if (c < 0) continue;
    if (comp == -1) comp = c;
    if (c != comp) return false;
  }
  return comp != -1;
}

// --------------------------------------------------------------------------
// Contact row (parameterized over W/L — Fig. 3)
// --------------------------------------------------------------------------

class ContactRowSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ContactRowSweep, RuleCorrectAcrossSizes) {
  const auto [wi, li] = GetParam();
  ContactRowSpec spec;
  spec.layer = "pdiff";
  if (wi > 0) spec.w = um(wi);
  if (li > 0) spec.l = um(li);
  spec.net = "n";
  const Module m = contactRow(T(), spec);
  EXPECT_NO_THROW(drc::expectClean(m, noLatchUp()));
  EXPECT_GE(m.shapesOn(T().layer("contact")).size(), 1u);
  EXPECT_TRUE(netIsConnected(m, "n"));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ContactRowSweep,
                         ::testing::Combine(::testing::Values(0, 3, 8, 25, 50),
                                            ::testing::Values(0, 3, 10)));

TEST(ContactRow, CountScalesWithLength) {
  ContactRowSpec a;
  a.layer = "poly";
  a.w = um(5);
  ContactRowSpec b = a;
  b.w = um(20);
  EXPECT_GT(contactRow(T(), b).shapesOn(T().layer("contact")).size(),
            contactRow(T(), a).shapesOn(T().layer("contact")).size());
}

TEST(ContactRow, WorksInOtherTechnology) {
  ContactRowSpec spec;
  spec.layer = "poly";
  spec.w = um(10);
  const Module m = contactRow(cmos2u(), spec);
  EXPECT_NO_THROW(drc::expectClean(m, noLatchUp()));
  // Scaled rules, scaled result: fewer contacts fit in the same 10 um.
  EXPECT_LT(m.shapesOn(cmos2u().layer("contact")).size(),
            contactRow(T(), spec).shapesOn(T().layer("contact")).size());
}

// --------------------------------------------------------------------------
// MOS transistor and diff pair
// --------------------------------------------------------------------------

class MosSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MosSweep, RuleCorrectAcrossSizes) {
  const auto [w, l] = GetParam();
  MosSpec spec;
  spec.w = um(w);
  spec.l = um(l);
  const Module m = mosTransistor(T(), spec);
  EXPECT_NO_THROW(drc::expectClean(m, noLatchUp()));
  // Gate, source, drain are each internally connected.
  EXPECT_TRUE(netIsConnected(m, "g"));
  EXPECT_TRUE(netIsConnected(m, "s"));
  EXPECT_TRUE(netIsConnected(m, "d"));
}

INSTANTIATE_TEST_SUITE_P(Sizes, MosSweep,
                         ::testing::Combine(::testing::Values(3, 10, 40),
                                            ::testing::Values(1, 2, 5)));

TEST(Mos, OptionalContactsReduceShapes) {
  MosSpec full;
  full.w = um(10);
  full.l = um(2);
  MosSpec bare = full;
  bare.gateContact = bare.sourceContact = bare.drainContact = false;
  EXPECT_GT(mosTransistor(T(), full).shapeCount(),
            mosTransistor(T(), bare).shapeCount());
  EXPECT_EQ(mosTransistor(T(), bare).shapeCount(), 2u);  // TWORECTS only
}

TEST(DiffPair, FiveStepStructure) {
  DiffPairSpec spec;
  spec.w = um(10);
  spec.l = um(2);
  const Module m = diffPair(T(), spec);
  EXPECT_NO_THROW(drc::expectClean(m, noLatchUp()));
  // Three diffusion contact rows (outa, tail, outb), two gates.
  for (const char* net : {"outa", "tail", "outb", "inp", "inn"})
    EXPECT_TRUE(netIsConnected(m, net)) << net;
  // Channel-aware extraction: the drain rows are NOT shorted to the tail
  // through the devices, but each row merges with the adjacent diffusion.
  const db::Connectivity conn(m);
  db::ShapeId rowA = db::kNoShape, rowTail = db::kNoShape;
  for (db::ShapeId id : m.shapesOn(T().layer("pdiff"))) {
    if (m.shape(id).net == *m.findNet("outa")) rowA = id;
    if (m.shape(id).net == *m.findNet("tail")) rowTail = id;
  }
  ASSERT_NE(rowA, db::kNoShape);
  ASSERT_NE(rowTail, db::kNoShape);
  EXPECT_FALSE(conn.connected(rowA, rowTail));
}

TEST(DiffPair, AreaComparableToHandcrafted) {
  // "The layout area ... comparable to an optimal hand-drafted version or
  // even better."
  DiffPairSpec spec;
  spec.w = um(10);
  spec.l = um(2);
  const Module gen = diffPair(T(), spec);
  const Module hand = handcrafted::diffPairExplicit(T(), um(10), um(2));
  EXPECT_LE(static_cast<double>(gen.area()),
            1.15 * static_cast<double>(hand.area()));
}

// --------------------------------------------------------------------------
// Handcrafted baselines themselves must be legal (they are the comparison)
// --------------------------------------------------------------------------

TEST(Handcrafted, ContactRowClean) {
  const Module m = handcrafted::contactRowExplicit(T(), um(8), um(3), "poly", "n");
  EXPECT_NO_THROW(drc::expectClean(m, noLatchUp()));
}

TEST(Handcrafted, DiffPairClean) {
  const Module m = handcrafted::diffPairExplicit(T(), um(10), um(2));
  EXPECT_NO_THROW(drc::expectClean(m, noLatchUp()));
}

TEST(Handcrafted, CodeSizesFavourTheLanguage) {
  // E9's claim in unit-test form: the DSL needs a fraction of the lines.
  const auto cr = handcrafted::contactRowCodeSize();
  EXPECT_LT(cr.dslLines * 3, cr.explicitLines);
  const auto dp = handcrafted::diffPairCodeSize();
  EXPECT_LT(dp.dslLines * 3, dp.explicitLines);
}

// --------------------------------------------------------------------------
// Inter-digital arrays
// --------------------------------------------------------------------------

class InterdigSweep : public ::testing::TestWithParam<int> {};

TEST_P(InterdigSweep, RuleCorrectAcrossFingerCounts) {
  InterdigSpec spec;
  spec.w = um(12);
  spec.l = um(1);
  spec.fingers = GetParam();
  const Module m = interdigitatedMos(T(), spec);
  EXPECT_NO_THROW(drc::expectClean(m, noLatchUp()));
  for (const char* net : {"g", "s", "d"}) EXPECT_TRUE(netIsConnected(m, net)) << net;
  // fingers gates + 1 rail on poly.
  EXPECT_EQ(m.shapesOn(T().layer("poly")).size(),
            static_cast<std::size_t>(spec.fingers) + 1u);
}

INSTANTIATE_TEST_SUITE_P(Fingers, InterdigSweep, ::testing::Values(1, 2, 3, 5, 8));

TEST(Interdig, WidthGrowsLinearlyWithFingers) {
  InterdigSpec a;
  a.w = um(12);
  a.l = um(1);
  a.fingers = 2;
  InterdigSpec b = a;
  b.fingers = 4;
  const Coord wa = interdigitatedMos(T(), a).bbox().width();
  const Coord wb = interdigitatedMos(T(), b).bbox().width();
  EXPECT_GT(wb, wa);
  EXPECT_LT(wb, 2 * wa);  // shared rows make it sub-linear
}

TEST(CurrentMirror, DiodeConnectedAndSymmetric) {
  MirrorSpec spec;
  spec.w = um(15);
  spec.l = um(2);
  const Module m = currentMirror(T(), spec);
  EXPECT_NO_THROW(drc::expectClean(m, noLatchUp()));
  // The mirror input (diode) net includes the gates: connected through the
  // metal2 jumper.
  EXPECT_TRUE(netIsConnected(m, spec.inNet));
  EXPECT_TRUE(netIsConnected(m, spec.outNet));
  EXPECT_TRUE(netIsConnected(m, spec.sourceNet));
  // Symmetric: the two out rows mirror about the module centre.
  std::vector<Coord> outRows;
  const auto out = *m.findNet(spec.outNet);
  for (db::ShapeId id : m.shapesOn(T().layer("pdiff")))
    if (m.shape(id).net == out) outRows.push_back(m.shape(id).box.center().x);
  ASSERT_EQ(outRows.size(), 2u);
  const Coord mid = m.bbox().center().x;
  EXPECT_NEAR(static_cast<double>(outRows[0] - mid), static_cast<double>(mid - outRows[1]),
              static_cast<double>(um(1)));
}

TEST(CrossCoupled, PatternAndRails) {
  CrossCoupledSpec spec;
  spec.w = um(12);
  spec.l = um(1);
  const Module m = crossCoupledPair(T(), spec);
  EXPECT_NO_THROW(drc::expectClean(m, noLatchUp()));
  for (const char* net : {"ga", "gb", "da", "db", "vss"})
    EXPECT_TRUE(netIsConnected(m, net)) << net;
  // Metal2 rail with one via per DB row.
  EXPECT_GE(m.shapesOn(T().layer("via")).size(), 1u);
  EXPECT_GE(m.shapesOn(T().layer("metal2")).size(), 1u);
}

TEST(Cascode, MidRailMerges) {
  CascodeSpec spec;
  spec.w = um(12);
  spec.l = um(1);
  spec.fingers = 2;
  const Module m = cascodePair(T(), spec);
  EXPECT_NO_THROW(drc::expectClean(m, noLatchUp()));
  EXPECT_TRUE(netIsConnected(m, "mid"));
  EXPECT_TRUE(netIsConnected(m, "vss"));
  EXPECT_TRUE(netIsConnected(m, "out"));
  // Stacked: taller than wide... at least taller than one device.
  InterdigSpec one;
  one.w = spec.w;
  one.l = spec.l;
  one.fingers = spec.fingers;
  EXPECT_GT(m.bbox().height(), interdigitatedMos(T(), one).bbox().height());
}

// --------------------------------------------------------------------------
// Centroid differential pair (Fig. 10)
// --------------------------------------------------------------------------

TEST(Centroid, PaperConfiguration) {
  CentroidSpec spec;
  spec.w = um(12);
  spec.l = um(1);
  const Module m = centroidDiffPair(T(), spec);
  EXPECT_NO_THROW(drc::expectClean(m, noLatchUp()));

  const auto sym = analyzeCentroid(m, spec);
  EXPECT_EQ(sym.fingersA, 4);
  EXPECT_EQ(sym.fingersB, 4);
  EXPECT_EQ(sym.dummies, 16);  // 8 centre + 2 x 4 edge
  EXPECT_TRUE(sym.fingerPlacementSymmetric);
  EXPECT_LT(sym.centroidOffsetUm, 0.01);  // common centroid

  for (const char* net : {"inp", "inn", "outa", "outb", "tail"})
    EXPECT_TRUE(netIsConnected(m, net)) << net;
}

TEST(Centroid, MorePairsStillSymmetric) {
  CentroidSpec spec;
  spec.w = um(12);
  spec.l = um(1);
  spec.pairsPerSide = 2;
  spec.centerDummies = 4;
  spec.edgeDummies = 2;
  const Module m = centroidDiffPair(T(), spec);
  EXPECT_NO_THROW(drc::expectClean(m, noLatchUp()));
  const auto sym = analyzeCentroid(m, spec);
  EXPECT_EQ(sym.fingersA, 8);
  EXPECT_EQ(sym.fingersB, 8);
  EXPECT_TRUE(sym.fingerPlacementSymmetric);
  EXPECT_LT(sym.centroidOffsetUm, 0.01);
}

// --------------------------------------------------------------------------
// Bipolar devices
// --------------------------------------------------------------------------

TEST(Bipolar, NpnStructure) {
  NpnSpec spec;
  spec.emitterW = um(2);
  spec.emitterL = um(8);
  const Module m = bipolarNpn(T(), spec);
  EXPECT_NO_THROW(drc::expectClean(m, noLatchUp()));
  for (const char* net : {"e", "b", "c"}) EXPECT_TRUE(netIsConnected(m, net)) << net;
  // The emitter nplus sits inside the base, the base inside the well.
  const auto base = m.shapesOn(T().layer("pbase"));
  const auto well = m.shapesOn(T().layer("nwell"));
  ASSERT_GE(base.size(), 1u);
  ASSERT_EQ(well.size(), 1u);
  Box baseBox;
  for (auto id : base) baseBox = baseBox.unite(m.shape(id).box);
  EXPECT_TRUE(m.shape(well[0]).box.contains(baseBox));
}

TEST(Bipolar, NotAvailableInCmosDeck) {
  NpnSpec spec;
  spec.emitterW = um(2);
  spec.emitterL = um(8);
  EXPECT_THROW(bipolarNpn(cmos2u(), spec), DesignRuleError);
}

TEST(Bipolar, PairIsMirrorSymmetric) {
  NpnPairSpec spec;
  spec.emitterW = um(2);
  spec.emitterL = um(8);
  const Module m = bipolarPair(T(), spec);
  EXPECT_NO_THROW(drc::expectClean(m, noLatchUp()));
  // Equal well sizes, mirrored placement.
  const auto wells = m.shapesOn(T().layer("nwell"));
  ASSERT_EQ(wells.size(), 2u);
  EXPECT_EQ(m.shape(wells[0]).box.width(), m.shape(wells[1]).box.width());
  EXPECT_EQ(m.shape(wells[0]).box.height(), m.shape(wells[1]).box.height());
}

// --------------------------------------------------------------------------
// Substrate contacts / guard ring and the latch-up rule end-to-end
// --------------------------------------------------------------------------

TEST(Guard, SubstrateRingSatisfiesLatchUp) {
  DiffPairSpec spec;
  spec.w = um(10);
  spec.l = um(2);
  Module m = diffPair(T(), spec);
  EXPECT_FALSE(drc::uncoveredActive(m).empty());  // no ties yet
  const int contacts = substrateRing(m, "gnd");
  EXPECT_GT(contacts, 4);
  EXPECT_TRUE(drc::uncoveredActive(m).empty());
  EXPECT_NO_THROW(drc::expectClean(m));  // including the latch-up check
  EXPECT_TRUE(netIsConnected(m, "gnd"));
}

TEST(Guard, NwellWithTapEnclosesAndVerifies) {
  MosSpec spec;
  spec.w = um(10);
  spec.l = um(2);
  Module m = mosTransistor(T(), spec);
  EXPECT_FALSE(drc::unenclosedPdiff(m).empty());  // no well yet

  const auto well = nwellWithTap(m, "vdd");
  EXPECT_TRUE(drc::unenclosedPdiff(m).empty());
  drc::CheckOptions opts = noLatchUp();
  opts.wellEnclosure = true;
  EXPECT_NO_THROW(drc::expectClean(m, opts));
  // The tap is inside the well and on the supply net.
  const Box wb = m.shape(well).box;
  const auto taps = m.shapesOn(T().layer("ndiff"));
  ASSERT_EQ(taps.size(), 1u);
  EXPECT_TRUE(wb.contains(m.shape(taps[0]).box));
  EXPECT_EQ(m.netName(m.shape(taps[0]).net), "vdd");
  EXPECT_TRUE(netIsConnected(m, "vdd"));
}

TEST(Guard, NwellNeedsDiffusion) {
  Module m(T(), "x");
  m.addShape(db::makeShape(Box{0, 0, um(4), um(4)}, T().layer("metal1")));
  EXPECT_THROW(nwellWithTap(m), DesignRuleError);
}

TEST(Guard, WellEnclosureCheckFlagsPartialWell) {
  Module m(T(), "x");
  m.addShape(db::makeShape(Box{0, 0, um(8), um(4)}, T().layer("pdiff")));
  // A well covering only half, with insufficient margin.
  m.addShape(db::makeShape(Box{-um(1.2), -um(1.2), um(4), um(5.2)}, T().layer("nwell")));
  const auto holes = drc::unenclosedPdiff(m);
  ASSERT_EQ(holes.size(), 1u);
  EXPECT_EQ(holes[0], (Box{um(2.8), 0, um(8), um(4)}));
}

TEST(Guard, SingleContact) {
  Module m(T(), "x");
  m.addShape(db::makeShape(Box{0, 0, um(4), um(4)}, T().layer("pdiff")));
  substrateContactAt(m, Point{um(10), um(2)});
  EXPECT_TRUE(drc::uncoveredActive(m).empty());
  EXPECT_NO_THROW(drc::expectClean(m));
}

TEST(Guard, SingleContactNeedsTieLayer) {
  tech::Technology t("notie");
  const auto contact = t.addLayer({"contact", tech::LayerKind::Cut, 1, "#000", "solid", true});
  const auto metal1 = t.addLayer({"metal1", tech::LayerKind::Metal, 2, "#000", "solid", true});
  t.setCutSize(contact, um(1), um(1));
  t.setMinWidth(metal1, um(1));
  t.addCutConnection(contact, metal1, metal1);
  Module m(t, "x");
  EXPECT_THROW(substrateContactAt(m, Point{0, 0}), DesignRuleError);
}

// --------------------------------------------------------------------------
// Poly resistors
// --------------------------------------------------------------------------

class ResistorSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ResistorSweep, SquaresMatchRequest) {
  const auto [squares, legs] = GetParam();
  ResistorSpec spec;
  spec.squares = squares;
  spec.legs = legs;
  const Module m = polyResistor(T(), spec);
  EXPECT_NO_THROW(drc::expectClean(m, noLatchUp()));
  EXPECT_NEAR(resistorSquares(m, spec), squares, 1.0);
  // One electrical node end to end.
  EXPECT_TRUE(netIsConnected(m, "r1"));
  EXPECT_TRUE(m.hasPort("r1"));
  EXPECT_TRUE(m.hasPort("r2"));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ResistorSweep,
                         ::testing::Combine(::testing::Values(20, 50, 200),
                                            ::testing::Values(1, 3, 5)));

TEST(Resistor, MoreSquaresMoreArea) {
  ResistorSpec a;
  a.squares = 20;
  ResistorSpec b;
  b.squares = 100;
  EXPECT_GT(polyResistor(T(), b).area(), polyResistor(T(), a).area());
}

TEST(Resistor, TooFewSquaresForLegsRejected) {
  ResistorSpec spec;
  spec.squares = 3;
  spec.legs = 6;
  EXPECT_THROW(polyResistor(T(), spec), DesignRuleError);
  ResistorSpec zeroLegs;
  zeroLegs.legs = 0;
  EXPECT_THROW(polyResistor(T(), zeroLegs), DesignRuleError);
}

}  // namespace
}  // namespace amg::modules
