// Tests for the independent DRC checker, including the latch-up rule of
// Fig. 1 and automatic substrate-contact insertion.
#include <gtest/gtest.h>

#include "compact/compactor.h"
#include "drc/detail.h"
#include "drc/drc.h"
#include "primitives/primitives.h"
#include "tech/builtin.h"

namespace amg::drc {
namespace {

using db::Module;
using db::ShapeId;
using db::makeShape;
using tech::bicmos1u;

const tech::Technology& T() { return bicmos1u(); }

bool hasKind(const std::vector<Violation>& vs, ViolationKind k) {
  return std::any_of(vs.begin(), vs.end(),
                     [&](const Violation& v) { return v.kind == k; });
}

CheckOptions noLatchUp() {
  CheckOptions o;
  o.latchUp = false;
  return o;
}

TEST(Drc, CleanModulePasses) {
  Module m(T());
  (void)prim::inbox(m, T().layer("poly"), 5000, 2200);
  (void)prim::inbox(m, T().layer("metal1"));
  (void)prim::array(m, T().layer("contact"));
  EXPECT_TRUE(check(m, noLatchUp()).empty());
  EXPECT_NO_THROW(expectClean(m, noLatchUp()));
}

TEST(Drc, MinWidthViolation) {
  Module m(T());
  m.addShape(makeShape(Box{0, 0, 500, 5000}, T().layer("poly")));
  const auto vs = check(m, noLatchUp());
  EXPECT_TRUE(hasKind(vs, ViolationKind::MinWidth));
}

TEST(Drc, CutSizeViolation) {
  Module m(T());
  m.addShape(makeShape(Box{0, 0, 900, 1000}, T().layer("contact")));
  const auto vs = check(m, noLatchUp());
  EXPECT_TRUE(hasKind(vs, ViolationKind::CutSize));
  EXPECT_TRUE(hasKind(vs, ViolationKind::Enclosure));  // floating cut too
}

TEST(Drc, SpacingViolationSameLayer) {
  Module m(T());
  m.addShape(makeShape(Box{0, 0, 2000, 2000}, T().layer("metal1"), m.net("a")));
  m.addShape(makeShape(Box{2500, 0, 4500, 2000}, T().layer("metal1"), m.net("b")));
  EXPECT_TRUE(hasKind(check(m, noLatchUp()), ViolationKind::Spacing));
}

TEST(Drc, SpacingOkAtRuleDistance) {
  Module m(T());
  m.addShape(makeShape(Box{0, 0, 2000, 2000}, T().layer("metal1"), m.net("a")));
  m.addShape(makeShape(Box{3200, 0, 5200, 2000}, T().layer("metal1"), m.net("b")));
  EXPECT_TRUE(check(m, noLatchUp()).empty());
}

TEST(Drc, ConnectedShapesExemptFromSpacing) {
  // Two abutting metal rects: connected, no violation.
  Module m(T());
  m.addShape(makeShape(Box{0, 0, 2000, 2000}, T().layer("metal1"), m.net("a")));
  m.addShape(makeShape(Box{2000, 0, 4000, 2000}, T().layer("metal1"), m.net("a")));
  EXPECT_TRUE(check(m, noLatchUp()).empty());

  // Only the exemption clears the pair: without it the abutment violates.
  const auto ids = m.shapeIds();
  EXPECT_TRUE(detail::spacingViolation(m, T(), ids[0], ids[1],
                                       [](ShapeId, ShapeId) { return false; }));
}

TEST(Drc, CrossLayerSpacing) {
  Module m(T());
  m.addShape(makeShape(Box{0, 0, 2000, 2000}, T().layer("pdiff")));
  m.addShape(makeShape(Box{3000, 0, 5000, 2000}, T().layer("ndiff")));  // 1000 < 2800
  EXPECT_TRUE(hasKind(check(m, noLatchUp()), ViolationKind::Spacing));
}

TEST(Drc, EnclosureSatisfiedByGeneratedRow) {
  Module m(T());
  (void)prim::inbox(m, T().layer("pdiff"), 8000, 2600);
  (void)prim::inbox(m, T().layer("metal1"));
  (void)prim::array(m, T().layer("contact"));
  EXPECT_FALSE(hasKind(check(m, noLatchUp()), ViolationKind::Enclosure));
}

TEST(Drc, EnclosureViolationWhenPadMissing) {
  Module m(T());
  m.addShape(makeShape(Box{0, 0, 5000, 5000}, T().layer("poly")));
  // Contact with poly but no metal1 anywhere.
  m.addShape(makeShape(Box{2000, 2000, 3000, 3000}, T().layer("contact")));
  EXPECT_TRUE(hasKind(check(m, noLatchUp()), ViolationKind::Enclosure));
}

TEST(Drc, EnclosureMarginMatters) {
  Module m(T());
  m.addShape(makeShape(Box{0, 0, 5000, 5000}, T().layer("poly")));
  // Metal pad covers the cut but with only 100 margin (< 600).
  m.addShape(makeShape(Box{1900, 1900, 3100, 3100}, T().layer("metal1")));
  m.addShape(makeShape(Box{2000, 2000, 3000, 3000}, T().layer("contact")));
  EXPECT_TRUE(hasKind(check(m, noLatchUp()), ViolationKind::Enclosure));
}

// ---------------------------------------------------------------------------
// Latch-up rule (Fig. 1)
// ---------------------------------------------------------------------------

Module moduleWithActiveAt(Coord x, Coord y) {
  Module m(T());
  m.addShape(makeShape(Box{x, y, x + 4000, y + 4000}, T().layer("pdiff")));
  return m;
}

void addTieAt(Module& m, Coord x, Coord y) {
  m.addShape(makeShape(Box{x, y, x + 2600, y + 2600}, T().layer("ptie"), m.net("gnd")));
  m.addShape(makeShape(Box{x + 200, y + 200, x + 2400, y + 2400}, T().layer("metal1"),
                       m.net("gnd")));
  m.addShape(makeShape(Box{x + 800, y + 800, x + 1800, y + 1800}, T().layer("contact"),
                       m.net("gnd")));
}

TEST(LatchUp, NoTieMeansUncovered) {
  Module m = moduleWithActiveAt(0, 0);
  const auto un = uncoveredActive(m);
  ASSERT_EQ(un.size(), 1u);
  EXPECT_EQ(un[0], (Box{0, 0, 4000, 4000}));
  EXPECT_TRUE(hasKind(check(m), ViolationKind::LatchUp));
}

TEST(LatchUp, NearbyTieCovers) {
  Module m = moduleWithActiveAt(0, 0);
  addTieAt(m, 8000, 0);  // well within the 50 um radius
  EXPECT_TRUE(uncoveredActive(m).empty());
  EXPECT_FALSE(hasKind(check(m), ViolationKind::LatchUp));
}

TEST(LatchUp, FarTieDoesNotCover) {
  Module m = moduleWithActiveAt(0, 0);
  addTieAt(m, 60000, 0);  // guard reaches x1 = 10000 > 4000? No: 60000-50000=10000
  const auto un = uncoveredActive(m);
  ASSERT_EQ(un.size(), 1u);  // active at [0,4000] entirely west of the guard
}

TEST(LatchUp, PartialCoverageCutsCorrectly) {
  Module m = moduleWithActiveAt(0, 0);
  // Tie whose guard covers only x >= 2000.
  addTieAt(m, 52000, 0);
  const auto un = uncoveredActive(m);
  ASSERT_EQ(un.size(), 1u);
  EXPECT_EQ(un[0], (Box{0, 0, 2000, 4000}));
}

TEST(LatchUp, JointCoverageByTwoTies) {
  Module m(T());
  // A long active strip coverable only by both guards together.
  m.addShape(makeShape(Box{0, 0, 120000, 4000}, T().layer("pdiff")));
  addTieAt(m, 10000, 8000);   // guard x in [-40000, 62600]
  addTieAt(m, 80000, 8000);   // guard x in [30000, 132600]
  EXPECT_TRUE(uncoveredActive(m).empty());
}

TEST(LatchUp, GuardBoxesComeFromTies) {
  Module m(T());
  addTieAt(m, 0, 0);
  const auto guards = latchUpGuards(m);
  ASSERT_EQ(guards.size(), 1u);
  EXPECT_EQ(guards[0], (Box{-50000, -50000, 52600, 52600}));
}

TEST(LatchUp, InsertSubstrateContactsFixesModule) {
  Module m = moduleWithActiveAt(0, 0);
  ASSERT_TRUE(hasKind(check(m), ViolationKind::LatchUp));
  const int n = insertSubstrateContacts(m);
  EXPECT_GE(n, 1);
  EXPECT_TRUE(uncoveredActive(m).empty());
  // And the insertion itself is clean.
  EXPECT_NO_THROW(expectClean(m));
}

TEST(LatchUp, InsertionHandlesMultipleFarAparts) {
  Module m(T());
  m.addShape(makeShape(Box{0, 0, 4000, 4000}, T().layer("pdiff")));
  m.addShape(makeShape(Box{300000, 0, 304000, 4000}, T().layer("ndiff")));
  const int n = insertSubstrateContacts(m);
  EXPECT_GE(n, 2);  // one tie cannot cover both (300 um apart, radius 50 um)
  EXPECT_TRUE(uncoveredActive(m).empty());
  EXPECT_NO_THROW(expectClean(m));
}

TEST(LatchUp, InsertionIsIdempotent) {
  Module m = moduleWithActiveAt(0, 0);
  (void)insertSubstrateContacts(m);
  EXPECT_EQ(insertSubstrateContacts(m), 0);
}

TEST(Drc, ViolationNames) {
  EXPECT_STREQ(violationName(ViolationKind::Spacing), "spacing");
  EXPECT_STREQ(violationName(ViolationKind::LatchUp), "latch-up");
}

TEST(Drc, CompactedPairStaysClean) {
  // End-to-end: geometry produced by the compactor passes the checker.
  Module target(T());
  (void)prim::inbox(target, T().layer("metal1"), 5000, 2000, target.net("a"));
  Module obj(T());
  (void)prim::inbox(obj, T().layer("metal1"), 5000, 2000, obj.net("b"));
  compact::compact(target, obj, Dir::West);
  EXPECT_NO_THROW(expectClean(target, noLatchUp()));
}

}  // namespace
}  // namespace amg::drc
