// Tests for the successive compactor (§2.3): spacing placement, potential
// merging, ignore-layers, variable edges and auto-connection.
#include <gtest/gtest.h>

#include "compact/compactor.h"
#include "db/connectivity.h"
#include "primitives/primitives.h"
#include "tech/builtin.h"

namespace amg::compact {
namespace {

using db::Module;
using db::ShapeId;
using db::makeShape;
using tech::bicmos1u;

const tech::Technology& T() { return bicmos1u(); }

Module modWithRect(const char* layer, Box b, const char* net = "",
                   const char* name = "m") {
  Module m(T(), name);
  m.addShape(makeShape(b, T().layer(layer), m.net(net)));
  return m;
}

TEST(Compact, EmptyTargetCopiesObject) {
  Module target(T());
  const Module obj = modWithRect("metal1", Box{100, 100, 200, 200});
  const Result r = compact(target, obj, Dir::West);
  EXPECT_EQ(target.shapeCount(), 1u);
  EXPECT_EQ(target.shape(r.idMap[0]).box, (Box{100, 100, 200, 200}));
  EXPECT_EQ(r.translation, (Point{0, 0}));
}

TEST(Compact, TechnologyMismatchRejected) {
  Module target(T());
  target.addShape(makeShape(Box{0, 0, 10, 10}, T().layer("poly")));
  Module obj(tech::cmos2u());
  obj.addShape(makeShape(Box{0, 0, 10, 10}, 0));
  EXPECT_THROW(compact(target, obj, Dir::West), Error);
}

TEST(Compact, MinimumSpacingAllDirections) {
  // "According to the design rules, the objects are placed with the
  // minimum distance."
  for (Dir d : {Dir::West, Dir::East, Dir::South, Dir::North}) {
    Module target = modWithRect("metal1", Box{0, 0, 2000, 2000}, "a");
    const Module obj = modWithRect("metal1", Box{0, 0, 2000, 2000}, "b");
    const Result r = compact(target, obj, d);
    const Box placed = target.shape(r.idMap[0]).box;
    EXPECT_EQ(boxGap(placed, Box{0, 0, 2000, 2000}), 1200) << dirName(d);
  }
}

TEST(Compact, SamePotentialAbutsAndConnects) {
  Module target = modWithRect("metal1", Box{0, 0, 2000, 2000}, "sig");
  const Module obj = modWithRect("metal1", Box{10000, 0, 12000, 2000}, "sig");
  const Result r = compact(target, obj, Dir::West);
  const Box placed = target.shape(r.idMap[0]).box;
  EXPECT_EQ(placed.x1, 2000);  // touching
  db::Connectivity conn(target);
  EXPECT_EQ(conn.componentCount(), 1);
}

TEST(Compact, AnonymousNetsKeepSpacing) {
  Module target = modWithRect("metal1", Box{0, 0, 2000, 2000});
  const Module obj = modWithRect("metal1", Box{10000, 0, 12000, 2000});
  const Result r = compact(target, obj, Dir::West);
  EXPECT_EQ(target.shape(r.idMap[0]).box.x1, 3200);
}

TEST(Compact, IgnoredLayerAbuts) {
  // compact(x, WEST, "poly"): poly keeps no spacing, only abutment.
  Module target = modWithRect("poly", Box{0, 0, 2000, 2000}, "a");
  const Module obj = modWithRect("poly", Box{10000, 0, 12000, 2000}, "b");
  const Result r = compact(target, obj, Dir::West, {"poly"});
  EXPECT_EQ(target.shape(r.idMap[0]).box.x1, 2000);
}

TEST(Compact, CrossLayerWithoutRuleUnconstrained) {
  // metal1 against poly: no rule; falls back to bounding-box abutment.
  Module target = modWithRect("poly", Box{0, 0, 2000, 2000});
  const Module obj = modWithRect("metal1", Box{10000, 0, 12000, 2000});
  const Result r = compact(target, obj, Dir::West);
  EXPECT_EQ(target.shape(r.idMap[0]).box.x1, 2000);  // bbox abut
}

TEST(Compact, AvoidOverlapStopsAtTouch) {
  Module target = modWithRect("poly", Box{0, 0, 2000, 2000});
  Module obj(T());
  auto s = makeShape(Box{10000, 0, 12000, 2000}, T().layer("metal1"));
  s.avoidOverlap = true;  // parasitic-capacitance avoidance
  obj.addShape(s);
  const Result r = compact(target, obj, Dir::West);
  EXPECT_EQ(target.shape(r.idMap[0]).box.x1, 2000);
  // Same but no flag and an unrelated rect behind: object may overlap poly.
}

TEST(Compact, ExtraGapAdds) {
  Module target = modWithRect("metal1", Box{0, 0, 2000, 2000}, "a");
  const Module obj = modWithRect("metal1", Box{10000, 0, 12000, 2000}, "b");
  Options opt;
  opt.extraGap = 800;
  const Result r = compact(target, obj, Dir::West, opt);
  EXPECT_EQ(target.shape(r.idMap[0]).box.x1, 4000);
}

TEST(Compact, CrossAxisEscapeNotConstrained) {
  // The object passes beside the target when separated on the cross axis.
  Module target = modWithRect("metal1", Box{0, 0, 2000, 2000}, "a");
  const Module obj = modWithRect("metal1", Box{10000, 5000, 12000, 7000}, "b");
  const Result r = compact(target, obj, Dir::West);
  // Only the bbox fallback? No: no pair constraint applies (cross gap
  // 3000 >= 1200), so fallback abuts bounding boxes.
  EXPECT_EQ(target.shape(r.idMap[0]).box.x1, 2000);
}

TEST(Compact, RequiredTranslationMatchesOutcome) {
  // The rule alone fixes the move: the object's leading edge lands one
  // metal1 spacing past the target's front.
  Module target = modWithRect("metal1", Box{0, 0, 2000, 2000}, "a");
  const Module obj = modWithRect("metal1", Box{10000, 0, 12000, 2000}, "b");
  Options opt;
  opt.enableVariableEdges = false;
  const Result r = compact(target, obj, Dir::West, opt);
  EXPECT_EQ(r.translation, (Point{2000 + 1200 - 10000, 0}));
}

// ---------------------------------------------------------------------------
// Variable edges (§2.3, Fig. 5b)
// ---------------------------------------------------------------------------

TEST(VariableEdges, BindingEdgeShrinks) {
  Module target(T());
  auto s = makeShape(Box{0, 0, 5000, 2000}, T().layer("metal1"), target.net("a"));
  s.varEdges.setVariable(Side::Right, true);
  const ShapeId tgt = target.addShape(s);
  const Module obj = modWithRect("metal1", Box{10000, 0, 11000, 2000}, "b");

  const Result r = compact(target, obj, Dir::West);
  EXPECT_GT(r.edgeMoves, 0);
  // The target's metal shrank to its minimum width...
  EXPECT_EQ(target.shape(tgt).box.width(), T().minWidth(T().layer("metal1")));
  // ...and the object landed at rule distance from the shrunken edge.
  EXPECT_EQ(target.shape(r.idMap[0]).box.x1, 1600 + 1200);
}

TEST(VariableEdges, FixedEdgeDoesNotMove) {
  Module target = modWithRect("metal1", Box{0, 0, 5000, 2000}, "a");
  const Module obj = modWithRect("metal1", Box{10000, 0, 11000, 2000}, "b");
  const Result r = compact(target, obj, Dir::West);
  EXPECT_EQ(r.edgeMoves, 0);
  EXPECT_EQ(target.shape(r.idMap[0]).box.x1, 5000 + 1200);
}

TEST(VariableEdges, ShrinkStopsAtSecondConstraint) {
  // A fixed shape slightly behind the variable one: the variable edge only
  // needs to retreat until the fixed shape binds ("until it is no longer
  // relevant").
  Module target(T());
  auto var = makeShape(Box{0, 0, 5000, 2000}, T().layer("metal1"), target.net("a"));
  var.varEdges.setVariable(Side::Right, true);
  const ShapeId v = target.addShape(var);
  target.addShape(makeShape(Box{0, 3000, 4000, 5000}, T().layer("metal1"), target.net("c")));
  Module obj(T());
  obj.addShape(makeShape(Box{10000, 0, 11000, 5000}, T().layer("metal1"), obj.net("b")));

  const Result r = compact(target, obj, Dir::West);
  // Object lands against the fixed shape at 4000 + 1200.
  EXPECT_EQ(target.shape(r.idMap[0]).box.x1, 5200);
  // The variable shape only shrank to 4000 (no longer relevant), not to min.
  EXPECT_EQ(target.shape(v).box.x2, 4000);
}

TEST(VariableEdges, ObjectSideShrinks) {
  Module target = modWithRect("metal1", Box{0, 0, 5000, 2000}, "a");
  Module obj(T());
  auto s = makeShape(Box{10000, 0, 15000, 2000}, T().layer("metal1"), obj.net("b"));
  s.varEdges.setVariable(Side::Left, true);
  obj.addShape(s);
  const Result r = compact(target, obj, Dir::West);
  EXPECT_GT(r.edgeMoves, 0);
  const Box placed = target.shape(r.idMap[0]).box;
  EXPECT_EQ(placed.width(), 1600);
  EXPECT_EQ(placed.x1, 6200);
}

TEST(VariableEdges, EnclosedInboxLimitsShrink) {
  Module target(T());
  auto outer = makeShape(Box{0, 0, 8000, 2200}, T().layer("poly"), target.net("g"));
  outer.varEdges.setVariable(Side::Right, true);
  const ShapeId o = target.addShape(outer);
  const ShapeId i =
      target.addShape(makeShape(Box{600, 600, 4000, 1600}, T().layer("metal1"), target.net("g")));
  target.addEncloseRecord(db::EncloseRecord{{o}, i});

  // maxShrink of poly right edge: to metal x2 + margin(=0, no rule) = 4000.
  EXPECT_EQ(maxShrink(target, o, Side::Right), 4000);

  const Module obj = modWithRect("poly", Box{20000, 0, 21000, 2200}, "h");
  const Result r = compact(target, obj, Dir::West);
  EXPECT_EQ(target.shape(o).box.x2, 4000);
  EXPECT_EQ(target.shape(r.idMap[0]).box.x1, 4000 + 1200);
}

TEST(VariableEdges, ContactArrayRebuiltAfterShrink) {
  // The contact-row scenario of Fig. 5b: the metal of the row shrinks and
  // its contact array is recalculated.
  Module target(T());
  auto metal = makeShape(Box{0, 0, 12000, 2200}, T().layer("metal1"), target.net("s"));
  metal.varEdges.setVariable(Side::Right, true);
  const ShapeId mId = target.addShape(metal);
  // 5 contacts inside the metal.
  auto cuts = prim::array(target, T().layer("contact"), {mId}, target.net("s"));
  ASSERT_EQ(cuts.size(), 5u);

  const Module obj = modWithRect("metal1", Box{20000, 0, 21000, 2200}, "d");
  const Result r = compact(target, obj, Dir::West);
  EXPECT_GT(r.edgeMoves, 0);

  // Metal shrank to hold exactly one contact: 1000 + 2*600.
  EXPECT_EQ(target.shape(mId).box.width(), 2200);
  const auto& rec = target.arrayRecords()[0];
  EXPECT_EQ(rec.elems.size(), 1u);
  for (const auto id : rec.elems)
    EXPECT_TRUE(target.shape(mId).box.contains(target.shape(id).box));
  // Object landed against the shrunken metal.
  EXPECT_EQ(target.shape(r.idMap[0]).box.x1, 2200 + 1200);
}

// ---------------------------------------------------------------------------
// Auto-connection (§2.3, Fig. 5a)
// ---------------------------------------------------------------------------

TEST(AutoConnect, ExtendsSameNetAcrossGap) {
  Module target(T());
  const ShapeId tall =
      target.addShape(makeShape(Box{0, 0, 1000, 3000}, T().layer("metal1"), target.net("s")));
  const ShapeId small =
      target.addShape(makeShape(Box{5000, 0, 6000, 1500}, T().layer("metal1"), target.net("s")));

  // A strap on the same net arrives from the north.
  Module obj(T());
  obj.addShape(makeShape(Box{0, 10000, 6000, 11000}, T().layer("metal1"), obj.net("s")));
  const Result r = compact(target, obj, Dir::South);

  // Strap stops on the tall column.
  EXPECT_EQ(target.shape(r.idMap[0]).box.y1, 3000);
  // "The outer diffusion contact rows were automatically connected to this
  // rectangle": the short column was extended to reach the strap.
  EXPECT_GT(r.autoConnects, 0);
  EXPECT_EQ(target.shape(small).box.y2, 3000);
  EXPECT_EQ(target.shape(tall).box.y2, 3000);
  db::Connectivity conn(target);
  EXPECT_EQ(conn.componentCount(), 1);
}

TEST(AutoConnect, RespectsForeignSpacing) {
  Module target(T());
  const ShapeId tall =
      target.addShape(makeShape(Box{0, 0, 1000, 3000}, T().layer("metal1"), target.net("s")));
  (void)tall;
  const ShapeId small =
      target.addShape(makeShape(Box{5000, 0, 6000, 1500}, T().layer("metal1"), target.net("s")));
  // A foreign metal east of the short column: legal now (gaps 800/1200),
  // but extending the column upwards would bring it within spacing.
  target.addShape(makeShape(Box{6800, 2700, 7800, 3500}, T().layer("metal1"), target.net("x")));

  Module obj(T());
  obj.addShape(makeShape(Box{0, 10000, 5500, 11000}, T().layer("metal1"), obj.net("s")));
  const Result r = compact(target, obj, Dir::South);

  // The strap itself clears the foreign metal (cross gap 1300) and lands
  // on the tall column...
  EXPECT_EQ(target.shape(r.idMap[0]).box.y1, 3000);
  // ...but extending the short column would violate metal spacing to the
  // foreign shape, so the auto-connect is skipped.
  EXPECT_EQ(target.shape(small).box.y2, 1500);
}

TEST(AutoConnect, DisabledByOption) {
  Module target(T());
  target.addShape(makeShape(Box{0, 0, 1000, 3000}, T().layer("metal1"), target.net("s")));
  const ShapeId small =
      target.addShape(makeShape(Box{5000, 0, 6000, 1500}, T().layer("metal1"), target.net("s")));
  Module obj(T());
  obj.addShape(makeShape(Box{0, 10000, 6000, 11000}, T().layer("metal1"), obj.net("s")));
  Options opt;
  opt.autoConnect = false;
  compact(target, obj, Dir::South, opt);
  EXPECT_EQ(target.shape(small).box.y2, 1500);
}

}  // namespace
}  // namespace amg::compact
