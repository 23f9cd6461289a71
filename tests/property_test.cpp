// Property-based tests: randomized invariants of the geometry engine, the
// compactor and the database.  These complement the example-based suites:
// every invariant here is something the paper's environment promises
// implicitly ("the relevant design-rules are regarded automatically").
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>

#include "compact/compactor.h"
#include "db/connectivity.h"
#include "drc/drc.h"
#include "place/slicing.h"
#include "route/router.h"
#include "geom/subtract.h"
#include "geom/transform.h"
#include "primitives/primitives.h"
#include "tech/builtin.h"

namespace amg {
namespace {

using db::Module;
using db::makeShape;
using tech::bicmos1u;

const tech::Technology& T() { return bicmos1u(); }

drc::CheckOptions noLatchUp() {
  drc::CheckOptions o;
  o.latchUp = false;
  return o;
}

// --------------------------------------------------------------------------
// Subtraction / union algebra
// --------------------------------------------------------------------------

TEST(Property, SubtractThenAreaConsistent) {
  std::mt19937 rng(303);
  std::uniform_int_distribution<Coord> c(0, 50);
  for (int trial = 0; trial < 200; ++trial) {
    const Box a = Box::fromCorners(c(rng), c(rng), c(rng) + 1 + c(rng), c(rng) + 1 + c(rng));
    const Box b = Box::fromCorners(c(rng), c(rng), c(rng) + 1 + c(rng), c(rng) + 1 + c(rng));
    Coord rest = 0;
    for (const Box& piece : geom::cutRect(a, b)) rest += piece.area();
    EXPECT_EQ(rest, a.area() - a.intersect(b).area());
  }
}

TEST(Property, UnionAreaBounds) {
  std::mt19937 rng(404);
  std::uniform_int_distribution<Coord> c(0, 60);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Box> boxes;
    Coord sum = 0;
    Box bb;
    for (int i = 0; i < 6; ++i) {
      const Box b =
          Box::fromCorners(c(rng), c(rng), c(rng) + 1 + c(rng), c(rng) + 1 + c(rng));
      boxes.push_back(b);
      sum += b.area();
      bb = bb.unite(b);
    }
    const Coord u = geom::unionArea(boxes);
    EXPECT_LE(u, sum);
    EXPECT_LE(u, bb.area());
    Coord maxSingle = 0;
    for (const Box& b : boxes) maxSingle = std::max(maxSingle, b.area());
    EXPECT_GE(u, maxSingle);
  }
}

// --------------------------------------------------------------------------
// Transform group
// --------------------------------------------------------------------------

TEST(Property, OrientationsPreserveDimensionsAndCompose) {
  using geom::Orient;
  const Box b{3, 5, 17, 11};
  const Orient all[] = {Orient::R0,  Orient::R90,  Orient::R180, Orient::R270,
                        Orient::MX,  Orient::MX90, Orient::MY,   Orient::MY90};
  for (Orient o : all) {
    const geom::Transform tf(o, {0, 0});
    const Box tb = tf.apply(b);
    const bool swaps = o == Orient::R90 || o == Orient::R270 || o == Orient::MX90 ||
                       o == Orient::MY90;
    EXPECT_EQ(tb.width(), swaps ? b.height() : b.width());
    EXPECT_EQ(tb.height(), swaps ? b.width() : b.height());
    EXPECT_EQ(tb.area(), b.area());
  }
  // Closure: composing any two orientations yields one of the eight, and
  // applying it matches applying both in sequence.
  for (Orient a : all) {
    for (Orient c : all) {
      const geom::Transform ta(a, {0, 0});
      const geom::Transform tc(c, {0, 0});
      const geom::Transform both = ta.then(tc);
      for (const Point p : {Point{1, 0}, Point{0, 1}, Point{7, -3}})
        EXPECT_EQ(both.apply(p), tc.apply(ta.apply(p)));
    }
  }
}

// --------------------------------------------------------------------------
// Compaction invariants
// --------------------------------------------------------------------------

Module randomObject(std::mt19937& rng, int idx) {
  // Sizes at or above the largest layer minimum (metal2: 2 um).
  std::uniform_int_distribution<Coord> sz(2000, 8000);
  std::uniform_int_distribution<int> layerPick(0, 2);
  const char* layers[] = {"metal1", "metal2", "poly"};
  Module o(T(), "obj");
  const int nShapes = 1 + static_cast<int>(rng() % 3);
  Coord x = 0;
  for (int i = 0; i < nShapes; ++i) {
    const Coord w = sz(rng), h = sz(rng);
    o.addShape(makeShape(Box::fromSize(x, 0, w, h), T().layer(layers[layerPick(rng)]),
                         o.net("n" + std::to_string(idx))));
    x += w;  // abutting shapes of one object (same net)
  }
  return o;
}

TEST(Property, SuccessiveCompactionAlwaysDrcClean) {
  std::mt19937 rng(505);
  for (int trial = 0; trial < 25; ++trial) {
    Module m(T(), "t");
    const Dir dirs[] = {Dir::West, Dir::South, Dir::East, Dir::North};
    for (int i = 0; i < 8; ++i)
      compact::compact(m, randomObject(rng, i), dirs[rng() % 4]);
    const auto violations = drc::check(m, noLatchUp());
    EXPECT_TRUE(violations.empty())
        << "trial " << trial << ": " << violations.front().message;
  }
}

TEST(Property, VariableEdgesNeverIncreaseArea) {
  std::mt19937 rng(606);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Module> objs;
    for (int i = 0; i < 6; ++i) objs.push_back(randomObject(rng, i));

    Module fixed(T(), "f");
    for (const auto& o : objs) compact::compact(fixed, o, Dir::West);

    Module variable(T(), "v");
    for (auto o : objs) {
      for (db::ShapeId id : o.shapeIds())
        o.shape(id).varEdges = db::EdgeFlags::allVariable();
      compact::compact(variable, o, Dir::West);
    }
    EXPECT_LE(variable.bbox().width(), fixed.bbox().width()) << "trial " << trial;
    EXPECT_TRUE(drc::check(variable, noLatchUp()).empty()) << "trial " << trial;
  }
}

TEST(Property, ExtraGapIsMonotone) {
  std::mt19937 rng(707);
  for (int trial = 0; trial < 20; ++trial) {
    const Module a = randomObject(rng, 0);
    const Module b = randomObject(rng, 1);
    Coord prev = std::numeric_limits<Coord>::min();
    for (const Coord gap : {0, 500, 2000, 5000}) {
      Module m(T(), "t");
      compact::compact(m, a, Dir::West);
      compact::Options opt;
      opt.extraGap = gap;
      opt.enableVariableEdges = false;
      const auto r = compact::compact(m, b, Dir::West, opt);
      EXPECT_GE(r.translation.x, prev) << "trial " << trial << " gap " << gap;
      prev = r.translation.x;
    }
  }
}

TEST(Property, CompactionOrderPreservesShapeCount) {
  std::mt19937 rng(808);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Module> objs;
    std::size_t total = 0;
    for (int i = 0; i < 5; ++i) {
      objs.push_back(randomObject(rng, i));
      total += objs.back().shapeCount();
    }
    Module fwd(T(), "f"), rev(T(), "r");
    for (const auto& o : objs) compact::compact(fwd, o, Dir::West);
    for (auto it = objs.rbegin(); it != objs.rend(); ++it)
      compact::compact(rev, *it, Dir::West);
    EXPECT_EQ(fwd.shapeCount(), total);
    EXPECT_EQ(rev.shapeCount(), total);
  }
}

TEST(Property, MaxShrinkIsSafe) {
  // Shrinking any side by exactly maxShrink never violates min-width and
  // keeps enclosed shapes inside with margin.
  std::mt19937 rng(909);
  for (int trial = 0; trial < 30; ++trial) {
    Module m(T(), "t");
    const auto outer = prim::inbox(m, T().layer("poly"), um(4) + (rng() % 8) * 500,
                                   um(4) + (rng() % 8) * 500);
    const auto inner = prim::inbox(m, T().layer("contact"));
    for (Side s : {Side::Left, Side::Bottom, Side::Right, Side::Top}) {
      Module copy = m;
      const Coord d = compact::maxShrink(copy, outer, s);
      ASSERT_GE(d, 0);
      Box& b = copy.shape(outer).box;
      switch (s) {
        case Side::Left: b.x1 += d; break;
        case Side::Bottom: b.y1 += d; break;
        case Side::Right: b.x2 -= d; break;
        case Side::Top: b.y2 -= d; break;
      }
      EXPECT_GE(b.width(), T().minWidth(T().layer("poly")));
      EXPECT_GE(b.height(), T().minWidth(T().layer("poly")));
      // Enclosure of the contact still holds.
      const Box cb = copy.shape(inner).box;
      EXPECT_TRUE(b.expanded(-600).contains(cb))
          << sideName(s) << " " << b.str() << " vs " << cb.str();
    }
  }
}

// --------------------------------------------------------------------------
// Connectivity oracle
// --------------------------------------------------------------------------

TEST(Property, ConnectivityMatchesBfsOracle) {
  std::mt19937 rng(111);
  std::uniform_int_distribution<Coord> p(0, 30000);
  std::uniform_int_distribution<Coord> s(1600, 8000);
  for (int trial = 0; trial < 40; ++trial) {
    Module m(T(), "t");
    std::vector<db::ShapeId> ids;
    for (int i = 0; i < 12; ++i)
      ids.push_back(m.addShape(
          makeShape(Box::fromSize(p(rng), p(rng), s(rng), s(rng)), T().layer("metal1"))));
    const db::Connectivity conn(m);

    // BFS oracle over the touching graph.
    std::vector<int> comp(ids.size(), -1);
    int next = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (comp[i] != -1) continue;
      std::vector<std::size_t> stack{i};
      comp[i] = next;
      while (!stack.empty()) {
        const std::size_t cur = stack.back();
        stack.pop_back();
        for (std::size_t j = 0; j < ids.size(); ++j) {
          if (comp[j] != -1) continue;
          if (db::electricallyTouching(m.shape(ids[cur]).box, m.shape(ids[j]).box)) {
            comp[j] = next;
            stack.push_back(j);
          }
        }
      }
      ++next;
    }
    for (std::size_t i = 0; i < ids.size(); ++i)
      for (std::size_t j = 0; j < ids.size(); ++j)
        EXPECT_EQ(conn.connected(ids[i], ids[j]), comp[i] == comp[j])
            << "trial " << trial;
  }
}

// --------------------------------------------------------------------------
// Channel router invariants
// --------------------------------------------------------------------------

TEST(Property, ChannelRouteAlwaysCleanAndUnshorted) {
  std::mt19937 rng(1212);
  for (int trial = 0; trial < 20; ++trial) {
    // Distinct pin columns on an 8 um grid, random permutation below.
    const int n = 3 + static_cast<int>(rng() % 6);
    std::vector<int> perm(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
    std::shuffle(perm.begin(), perm.end(), rng);

    Module m(T(), "chan");
    std::vector<route::ChannelNet> nets;
    for (int i = 0; i < n; ++i)
      nets.push_back(route::ChannelNet{"n" + std::to_string(i), um(8.0 * i + 2),
                                       um(8.0 * perm[static_cast<std::size_t>(i)] + 6)});
    const int tracks = route::channelRoute(m, nets, 0, um(80), T().layer("metal1"),
                                           T().layer("metal2"));
    EXPECT_GE(tracks, 1) << trial;
    EXPECT_TRUE(drc::check(m, noLatchUp()).empty()) << trial;

    // No two nets share a component; each net is one component.
    const db::Connectivity conn(m);
    std::map<int, std::string> owner;
    for (db::ShapeId id : m.shapeIds()) {
      const auto& sh = m.shape(id);
      if (sh.net == db::kNoNet) continue;
      const int c = conn.componentOf(id);
      if (c < 0) continue;
      auto [it, fresh] = owner.emplace(c, m.netName(sh.net));
      EXPECT_EQ(it->second, m.netName(sh.net)) << trial;
    }
    std::set<std::string> seen;
    for (auto& [c, net] : owner) EXPECT_TRUE(seen.insert(net).second)
        << "net " << net << " fragmented, trial " << trial;
  }
}

TEST(Property, SlicingNeverOverlapsAndIsTight) {
  std::mt19937 rng(1313);
  std::uniform_int_distribution<Coord> d(3000, 40000);
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<Module> blocks;
    const int n = 2 + trial % 6;
    Coord totalArea = 0;
    for (int i = 0; i < n; ++i) {
      Module b(T(), "b");
      const Coord w = d(rng), h = d(rng);
      b.addShape(makeShape(Box{0, 0, w, h}, T().layer("metal1"),
                           b.net("n" + std::to_string(i))));
      totalArea += w * h;
      blocks.push_back(std::move(b));
    }
    const auto res = place::bestSlicing(T(), blocks, um(2));
    EXPECT_GE(res.width * res.height, totalArea) << trial;  // lower bound
    const auto ids = res.layout.shapeIds();
    for (std::size_t i = 0; i < ids.size(); ++i)
      for (std::size_t j = i + 1; j < ids.size(); ++j)
        EXPECT_FALSE(
            res.layout.shape(ids[i]).box.overlaps(res.layout.shape(ids[j]).box))
            << trial;
  }
}

}  // namespace
}  // namespace amg
