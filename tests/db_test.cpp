// Tests for the layout database: Module, nets, merge, connectivity and its
// per-snapshot memo.
#include <gtest/gtest.h>

#include <functional>
#include <thread>

#include "db/connectivity.h"
#include "db/module.h"
#include "drc/drc.h"
#include "drc/extract.h"
#include "obs/obs.h"
#include "tech/builtin.h"

namespace amg::db {
namespace {

using tech::bicmos1u;

Module makeModule(const std::string& name = "m") { return Module(bicmos1u(), name); }

TEST(Module, NetsAreInterned) {
  Module m = makeModule();
  const NetId a = m.net("vdd");
  const NetId b = m.net("gnd");
  const NetId a2 = m.net("vdd");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(m.net(""), kNoNet);
  EXPECT_EQ(m.netName(a), "vdd");
  EXPECT_EQ(m.findNet("gnd"), b);
  EXPECT_FALSE(m.findNet("zzz").has_value());
}

TEST(Module, AddRemoveShapes) {
  Module m = makeModule();
  const LayerId poly = bicmos1u().layer("poly");
  const ShapeId s = m.addShape(makeShape(Box{0, 0, 10, 10}, poly));
  EXPECT_EQ(m.shapeCount(), 1u);
  EXPECT_TRUE(m.isAlive(s));
  m.removeShape(s);
  EXPECT_EQ(m.shapeCount(), 0u);
  EXPECT_FALSE(m.isAlive(s));
  EXPECT_TRUE(m.shapeIds().empty());
  // The alive count is kept, not rescanned: a second removal and a raw
  // append of a dead entry (the session-state restore path) leave it be.
  m.removeShape(s);
  db::Shape dead = makeShape(Box{0, 0, 5, 5}, poly);
  dead.alive = false;
  const ShapeId d = m.appendRawShape(dead);
  const ShapeId live = m.appendRawShape(makeShape(Box{20, 0, 30, 10}, poly));
  EXPECT_EQ(m.shapeCount(), 1u);
  EXPECT_EQ(m.shapeCount(), m.shapeIds().size());
  EXPECT_EQ(Module(m).shapeCount(), 1u);
  // A raw slot rewrite (the session-delta restore path) follows the alive
  // flag it writes, either way.
  m.replaceRawShape(live, dead);
  EXPECT_EQ(m.shapeCount(), 0u);
  m.replaceRawShape(d, makeShape(Box{40, 0, 50, 10}, poly));
  m.replaceRawShape(d, makeShape(Box{40, 0, 60, 10}, poly));
  EXPECT_EQ(m.shapeCount(), 1u);
  EXPECT_EQ(m.shapeIds(), std::vector<ShapeId>{d});
}

TEST(Module, EmptyRectRejected) {
  Module m = makeModule();
  EXPECT_THROW(m.addShape(makeShape(Box{0, 0, 0, 10}, 0)), DesignRuleError);
}

TEST(Module, BboxSkipsMarkers) {
  Module m = makeModule();
  const auto& t = bicmos1u();
  m.addShape(makeShape(Box{0, 0, 10, 10}, t.layer("poly")));
  m.addShape(makeShape(Box{-100, -100, 100, 100}, t.layer("guard")));
  EXPECT_EQ(m.bbox(), (Box{0, 0, 10, 10}));
  EXPECT_EQ(m.bboxAll(), (Box{-100, -100, 100, 100}));
  EXPECT_EQ(m.area(), 100);
}

TEST(Module, TranslateAndTransformFlags) {
  Module m = makeModule();
  Shape s = makeShape(Box{0, 0, 10, 20}, bicmos1u().layer("metal1"));
  s.varEdges.setVariable(Side::Right, true);
  const ShapeId id = m.addShape(s);
  m.translate(5, 7);
  EXPECT_EQ(m.shape(id).box, (Box{5, 7, 15, 27}));

  m.transform(geom::Transform::mirrorX(0));
  EXPECT_EQ(m.shape(id).box, (Box{-15, 7, -5, 27}));
  // The variable right edge is now the left edge.
  EXPECT_TRUE(m.shape(id).varEdges.variable(Side::Left));
  EXPECT_FALSE(m.shape(id).varEdges.variable(Side::Right));
}

TEST(Module, MergeMapsNetsByName) {
  Module a = makeModule("a");
  Module b = makeModule("b");
  const auto& t = bicmos1u();
  const ShapeId sa = a.addShape(makeShape(Box{0, 0, 10, 10}, t.layer("metal1"), a.net("x")));
  (void)sa;
  b.addShape(makeShape(Box{0, 0, 5, 5}, t.layer("metal1"), b.net("x")));
  b.addShape(makeShape(Box{0, 10, 5, 15}, t.layer("metal1"), b.net("y")));

  const auto map = a.merge(b, geom::Transform::translate(100, 0));
  ASSERT_EQ(map.size(), 2u);
  const Shape& m0 = a.shape(map[0]);
  EXPECT_EQ(m0.box, (Box{100, 0, 105, 5}));
  EXPECT_EQ(a.netName(m0.net), "x");
  EXPECT_EQ(a.netName(a.shape(map[1]).net), "y");
  EXPECT_EQ(a.shapeCount(), 3u);
}

TEST(Module, MergeCarriesRecords) {
  Module b = makeModule("b");
  const auto& t = bicmos1u();
  const ShapeId outer = b.addShape(makeShape(Box{0, 0, 10, 10}, t.layer("poly")));
  const ShapeId inner = b.addShape(makeShape(Box{2, 2, 8, 8}, t.layer("metal1")));
  b.addEncloseRecord(EncloseRecord{{outer}, inner});
  const ShapeId cut = b.addShape(makeShape(Box{4, 4, 5, 5}, t.layer("contact")));
  b.addArrayRecord(ArrayRecord{{outer, inner}, t.layer("contact"), kNoNet, {cut}});

  Module a = makeModule("a");
  const auto map = a.merge(b, geom::Transform{});
  ASSERT_EQ(a.encloseRecords().size(), 1u);
  EXPECT_EQ(a.encloseRecords()[0].inner, map[inner]);
  ASSERT_EQ(a.arrayRecords().size(), 1u);
  EXPECT_EQ(a.arrayRecords()[0].containers.size(), 2u);
  EXPECT_EQ(a.arrayRecords()[0].elems[0], map[cut]);
}

TEST(Module, CopySemantics) {
  Module a = makeModule("a");
  const auto& t = bicmos1u();
  const ShapeId s = a.addShape(makeShape(Box{0, 0, 10, 10}, t.layer("poly")));
  Module b = a;  // the DSL's `trans2 = trans1`
  b.shape(s).box = Box{0, 0, 99, 99};
  EXPECT_EQ(a.shape(s).box, (Box{0, 0, 10, 10}));
}

// ---------------------------------------------------------------------------
// Connectivity extraction
// ---------------------------------------------------------------------------

TEST(Connectivity, TouchingSameLayerConnects) {
  Module m = makeModule();
  const auto& t = bicmos1u();
  const ShapeId a = m.addShape(makeShape(Box{0, 0, 10, 10}, t.layer("metal1")));
  const ShapeId b = m.addShape(makeShape(Box{10, 0, 20, 10}, t.layer("metal1")));  // abuts
  const ShapeId c = m.addShape(makeShape(Box{30, 0, 40, 10}, t.layer("metal1")));  // apart
  const Connectivity conn(m);
  EXPECT_TRUE(conn.connected(a, b));
  EXPECT_FALSE(conn.connected(a, c));
  EXPECT_EQ(conn.componentCount(), 2);
}

TEST(Connectivity, CornerTouchDoesNotConnect) {
  Module m = makeModule();
  const auto& t = bicmos1u();
  const ShapeId a = m.addShape(makeShape(Box{0, 0, 10, 10}, t.layer("metal1")));
  const ShapeId b = m.addShape(makeShape(Box{10, 10, 20, 20}, t.layer("metal1")));
  const Connectivity conn(m);
  EXPECT_FALSE(conn.connected(a, b));
}

TEST(Connectivity, CutConnectsDeclaredLayers) {
  Module m = makeModule();
  const auto& t = bicmos1u();
  const ShapeId poly = m.addShape(makeShape(Box{0, 0, 10, 10}, t.layer("poly")));
  const ShapeId met = m.addShape(makeShape(Box{0, 0, 10, 10}, t.layer("metal1")));
  const ShapeId met2 = m.addShape(makeShape(Box{0, 0, 10, 10}, t.layer("metal2")));
  const ShapeId cut = m.addShape(makeShape(Box{4, 4, 5, 5}, t.layer("contact")));
  const Connectivity conn(m);
  EXPECT_TRUE(conn.connected(poly, met));
  EXPECT_TRUE(conn.connected(poly, cut));
  // contact does not connect metal2.
  EXPECT_FALSE(conn.connected(met2, poly));
}

TEST(Connectivity, OverlapWithoutCutDoesNotConnectAcrossLayers) {
  Module m = makeModule();
  const auto& t = bicmos1u();
  const ShapeId poly = m.addShape(makeShape(Box{0, 0, 10, 10}, t.layer("poly")));
  const ShapeId met = m.addShape(makeShape(Box{0, 0, 10, 10}, t.layer("metal1")));
  const Connectivity conn(m);
  EXPECT_FALSE(conn.connected(poly, met));
  EXPECT_EQ(conn.componentCount(), 2);
}

TEST(Connectivity, NonConductingIgnored) {
  Module m = makeModule();
  const auto& t = bicmos1u();
  const ShapeId g = m.addShape(makeShape(Box{0, 0, 100, 100}, t.layer("guard")));
  EXPECT_EQ(Connectivity(m).componentOf(g), -1);
}

TEST(Connectivity, ElectricallyTouchingEdgeCases) {
  EXPECT_TRUE(electricallyTouching(Box{0, 0, 10, 10}, Box{5, 5, 15, 15}));
  EXPECT_TRUE(electricallyTouching(Box{0, 0, 10, 10}, Box{10, 2, 20, 8}));
  EXPECT_FALSE(electricallyTouching(Box{0, 0, 10, 10}, Box{10, 10, 20, 20}));
  EXPECT_FALSE(electricallyTouching(Box{0, 0, 10, 10}, Box{11, 0, 20, 10}));
}

// ---------------------------------------------------------------------------
// Connectivity memo: one extraction per module snapshot
// ---------------------------------------------------------------------------

/// Counts `connectivity.builds` / `.reused` from construction on, with
/// statistics switched on for its lifetime.
class ConnectivityCounts {
 public:
  ConnectivityCounts() : wasOn_(obs::statsEnabled()) {
    obs::enableStats(true);
    builds0_ = obs::Stats::global().value("connectivity.builds");
    reused0_ = obs::Stats::global().value("connectivity.reused");
  }
  ~ConnectivityCounts() { obs::enableStats(wasOn_); }
  ConnectivityCounts(const ConnectivityCounts&) = delete;
  ConnectivityCounts& operator=(const ConnectivityCounts&) = delete;
  std::uint64_t builds() const {
    return obs::Stats::global().value("connectivity.builds") - builds0_;
  }
  std::uint64_t reused() const {
    return obs::Stats::global().value("connectivity.reused") - reused0_;
  }

 private:
  bool wasOn_;
  std::uint64_t builds0_, reused0_;
};

/// Metal rails joined by a contact to poly, a gated diffusion and a loose
/// metal2 shape: several components, named and anonymous.
Module memoModule() {
  Module m = makeModule("memo");
  const auto& t = bicmos1u();
  m.addShape(makeShape(Box{0, 0, 10000, 2000}, t.layer("metal1"), m.net("a")));
  m.addShape(makeShape(Box{10000, 0, 20000, 2000}, t.layer("metal1")));
  m.addShape(makeShape(Box{0, 10000, 30000, 20000}, t.layer("pdiff"), m.net("sd")));
  m.addShape(makeShape(Box{14000, 8000, 16000, 22000}, t.layer("poly"), m.net("g")));
  m.addShape(makeShape(Box{14200, 500, 15200, 1500}, t.layer("contact")));
  m.addShape(makeShape(Box{14000, 0, 16000, 8000}, t.layer("poly")));
  m.addShape(makeShape(Box{40000, 0, 45000, 5000}, t.layer("metal2"), m.net("b")));
  return m;
}

/// Everything a Connectivity answers about `m`, as comparable values.
struct Answers {
  std::vector<std::vector<ShapeId>> components;
  std::vector<std::string> names;
  bool operator==(const Answers&) const = default;
};

Answers answersOf(const Connectivity& c) {
  Answers a{c.components(), {}};
  for (int i = 0; i < c.componentCount(); ++i) a.names.push_back(c.netNameOf(i));
  return a;
}

/// The answers of a fresh extraction: a copy carries no parked result.
Answers freshAnswers(const Module& m) {
  const Module copy = m;
  return answersOf(Connectivity(copy));
}

TEST(ConnectivityMemo, OneBuildPerSnapshot) {
  const Module m = memoModule();
  ConnectivityCounts n;
  const Connectivity first(m);
  const Connectivity second(m);
  EXPECT_EQ(n.builds(), 1u);
  EXPECT_EQ(n.reused(), 1u);
  EXPECT_EQ(answersOf(first), answersOf(second));
  EXPECT_EQ(first.componentCount(), 4);  // a+rail+poly, sd left, sd right, b
  EXPECT_EQ(first.netNameOf(first.componentOf(0)), "a");
  EXPECT_EQ(first.componentOf(2), -1);  // the gated diffusion spans two
  EXPECT_EQ(first.netNameOf(first.componentAt(2, Point{1000, 15000})), "");
  EXPECT_EQ(first.netNameOf(-1), "");
}

TEST(ConnectivityMemo, EveryMutatorForcesARebuild) {
  const auto& t = bicmos1u();
  const Module other = memoModule();
  const std::vector<std::pair<const char*, std::function<void(Module&)>>> mutators = {
      {"addShape",
       [&](Module& m) {
         m.addShape(makeShape(Box{45000, 0, 50000, 5000}, t.layer("metal2")));
       }},
      {"shape()", [](Module& m) { m.shape(1).box = Box{10000, 0, 12000, 2000}; }},
      {"shape() unchanged", [](Module& m) { (void)m.shape(1); }},
      {"removeShape", [](Module& m) { m.removeShape(1); }},
      {"moveNet", [](Module& m) { m.moveNet(*m.findNet("b"), *m.findNet("a")); }},
      {"translate", [](Module& m) { m.translate(100, -100); }},
      {"merge", [&](Module& m) { m.merge(other, geom::Transform::translate(0, 50000)); }},
  };
  for (const auto& [name, mutate] : mutators) {
    Module m = memoModule();
    ConnectivityCounts n;
    const Connectivity before(m);
    const Answers old = answersOf(before);
    mutate(m);
    const Connectivity after(m);
    EXPECT_EQ(n.builds(), 2u) << name;
    EXPECT_EQ(n.reused(), 0u) << name;
    EXPECT_EQ(answersOf(after), freshAnswers(m)) << name;
    // A handle answers for the snapshot it was made from.
    EXPECT_EQ(answersOf(before), old) << name;
  }
}

TEST(ConnectivityMemo, CopiesStartEmptyAndMovesEmptyBothSides) {
  Module m = memoModule();
  const Answers want = freshAnswers(m);
  ConnectivityCounts n;
  (void)Connectivity(m);
  Module copy = m;
  EXPECT_EQ(answersOf(Connectivity(copy)), want);
  EXPECT_EQ(n.builds(), 2u);  // the copy extracts its own
  (void)Connectivity(m);
  EXPECT_EQ(n.builds(), 2u);  // the unchanged source kept its result
  Module assigned = makeModule();
  assigned = m;
  (void)Connectivity(assigned);
  EXPECT_EQ(n.builds(), 3u);

  Module moved = std::move(m);
  EXPECT_EQ(answersOf(Connectivity(moved)), want);
  EXPECT_EQ(n.builds(), 4u);
  Module moveAssigned = makeModule();
  moveAssigned = std::move(moved);
  EXPECT_EQ(answersOf(Connectivity(moveAssigned)), want);
  EXPECT_EQ(n.builds(), 5u);
}

TEST(ConnectivityMemo, HandleOutlivesItsModule) {
  auto m = std::make_unique<Module>(memoModule());
  const Connectivity conn(*m);
  const Answers want = answersOf(conn);
  m.reset();
  EXPECT_EQ(answersOf(conn), want);
}

/// What one sign-off reader sees: connectivity, the DRC report and the
/// extracted devices, as comparable values.
struct SignOff {
  Answers conn;
  std::vector<std::string> violations, devices;
  bool operator==(const SignOff&) const = default;
};

SignOff signOffOf(const Module& m) {
  SignOff s{answersOf(Connectivity(m)), {}, {}};
  for (const drc::Violation& v : drc::check(m))
    s.violations.push_back(std::string(drc::violationName(v.kind)) + ' ' + std::to_string(v.a) +
                           ' ' + std::to_string(v.b) + ' ' + v.where.str() + ' ' + v.message);
  for (const drc::ExtractedMos& d : drc::extractMos(m))
    s.devices.push_back(d.gateNet + '|' + d.sourceNet + '|' + d.drainNet + '|' + d.diffLayer +
                        '|' + std::to_string(d.w) + '|' + std::to_string(d.l));
  return s;
}

TEST(ConnectivityMemo, ConcurrentConstReadersShareOneModule) {
  const Module m = memoModule();
  // A single-threaded run on a copy, which starts without parked data.
  ConnectivityCounts single;
  const SignOff want = signOffOf(Module(m));
  const std::uint64_t perRun = single.builds() + single.reused();
  ASSERT_FALSE(want.devices.empty());

  ConnectivityCounts n;
  const std::uint64_t indexBuilds0 = obs::Stats::global().value("db.index.builds");
  std::vector<std::thread> readers;
  std::vector<int> mismatches(4, 0);
  for (std::size_t r = 0; r < mismatches.size(); ++r)
    readers.emplace_back([&m, &want, &bad = mismatches[r]] {
      for (int i = 0; i < 50; ++i)
        if (signOffOf(m) != want) ++bad;
    });
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
  // Threads racing on the empty connectivity slot may each build; every
  // other reader takes the parked result.
  EXPECT_GE(n.builds(), 1u);
  EXPECT_LE(n.builds(), 4u);
  EXPECT_EQ(n.builds() + n.reused(), 200u * perRun);
  // The index slot stays empty: a reader that finds no parked index builds
  // its own and does not park it, so each sign-off builds two (check,
  // extractMos) and each connectivity extraction one.
  EXPECT_EQ(obs::Stats::global().value("db.index.builds") - indexBuilds0,
            2u * 200u + n.builds());
}

}  // namespace
}  // namespace amg::db
