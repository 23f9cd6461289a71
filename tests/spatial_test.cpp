// The shared spatial index and its determinism contract.
//
// Two layers of randomized checking:
//  1. the index itself — query() must return exactly the closed-intersecting
//     entries (superset-exact contract) in ascending id order, visit() must
//     offer each entry once and stop when told to, and the incremental
//     structure must answer like a freshly rebuilt one;
//  2. every consumer — the compactor, the DRC, the connectivity extractor
//     and the router obstacles must be *identical* to their all-pairs
//     oracles (tests/oracle/spatial.h): same violations in the same order,
//     same translations, same net partition, same conflict answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>

#include "bench/sweep.h"
#include "compact/compactor.h"
#include "db/connectivity.h"
#include "drc/drc.h"
#include "geom/spatial.h"
#include "lang/interp.h"
#include "obs/obs.h"
#include "oracle/spatial.h"
#include "route/obstacles.h"
#include "tech/builtin.h"

namespace amg {
namespace {

using db::Module;
using db::makeShape;
using geom::SpatialIndex;
using tech::bicmos1u;

const tech::Technology& T() { return bicmos1u(); }

bool closedIntersects(const Box& a, const Box& b) {
  return a.x1 <= b.x2 && b.x1 <= a.x2 && a.y1 <= b.y2 && b.y1 <= a.y2;
}

// --------------------------------------------------------------------------
// The index vs. an exhaustive scan
// --------------------------------------------------------------------------

struct RefEntry {
  std::uint32_t id;
  std::uint32_t bucket;
  Box box;
};

std::vector<std::uint32_t> bruteQuery(const std::vector<RefEntry>& entries,
                                      const Box& window,
                                      std::optional<std::uint32_t> bucket) {
  std::vector<std::uint32_t> out;
  for (const RefEntry& e : entries) {
    if (bucket && e.bucket != *bucket) continue;
    if (closedIntersects(e.box, window)) out.push_back(e.id);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TEST(SpatialIndex, RandomQueriesMatchExhaustiveScan) {
  std::mt19937 rng(11);
  std::uniform_int_distribution<Coord> pos(-50000, 50000);
  std::uniform_int_distribution<Coord> sz(1, 30000);  // tiny to multi-cell
  std::uniform_int_distribution<std::uint32_t> bucketPick(0, 3);
  for (int trial = 0; trial < 30; ++trial) {
    SpatialIndex idx;
    std::vector<RefEntry> ref;
    for (std::uint32_t i = 0; i < 120; ++i) {
      const Box b = Box::fromSize(pos(rng), pos(rng), sz(rng), sz(rng));
      const std::uint32_t bucket = bucketPick(rng);
      idx.insert(i, bucket, b);
      ref.push_back(RefEntry{i, bucket, b});
    }
    std::vector<std::uint32_t> got;
    for (int q = 0; q < 40; ++q) {
      const Box w = Box::fromSize(pos(rng), pos(rng), sz(rng), sz(rng));
      idx.query(w, got);
      EXPECT_EQ(got, bruteQuery(ref, w, std::nullopt)) << "trial " << trial;
      const std::uint32_t bucket = bucketPick(rng);
      idx.query(bucket, w, got);
      EXPECT_EQ(got, bruteQuery(ref, w, bucket)) << "trial " << trial;
    }
  }
}

TEST(SpatialIndex, BandWindowsWithHugeExtentsMatch) {
  // The compactor queries cross-axis bands whose movement-axis extent is
  // effectively infinite; the window clamp must not lose entries.
  constexpr Coord kFar = std::numeric_limits<Coord>::max() / 2;
  std::mt19937 rng(22);
  std::uniform_int_distribution<Coord> pos(-40000, 40000);
  std::uniform_int_distribution<Coord> sz(100, 12000);
  SpatialIndex idx;
  std::vector<RefEntry> ref;
  for (std::uint32_t i = 0; i < 200; ++i) {
    const Box b = Box::fromSize(pos(rng), pos(rng), sz(rng), sz(rng));
    idx.insert(i, 0, b);
    ref.push_back(RefEntry{i, 0, b});
  }
  std::vector<std::uint32_t> got;
  for (int q = 0; q < 60; ++q) {
    const Coord lo = pos(rng);
    const Coord hi = lo + sz(rng);
    const Box hBand{-kFar, lo, kFar, hi};
    idx.query(hBand, got);
    EXPECT_EQ(got, bruteQuery(ref, hBand, std::nullopt)) << "h q" << q;
    const Box vBand{lo, -kFar, hi, kFar};
    idx.query(vBand, got);
    EXPECT_EQ(got, bruteQuery(ref, vBand, std::nullopt)) << "v q" << q;
  }
}

TEST(SpatialIndex, IncrementalInsertsMatchRebuiltIndex) {
  std::mt19937 rng(33);
  std::uniform_int_distribution<Coord> pos(-30000, 30000);
  std::uniform_int_distribution<Coord> sz(100, 9000);
  SpatialIndex grown;
  std::vector<RefEntry> ref;
  std::vector<std::uint32_t> a, b;
  for (std::uint32_t i = 0; i < 150; ++i) {
    const Box box = Box::fromSize(pos(rng), pos(rng), sz(rng), sz(rng));
    grown.insert(i, i % 2, box);
    ref.push_back(RefEntry{i, i % 2, box});

    // After every insert the incremental index answers like one rebuilt
    // from scratch over the same entries.
    SpatialIndex rebuilt;
    for (const RefEntry& e : ref) rebuilt.insert(e.id, e.bucket, e.box);
    for (int q = 0; q < 3; ++q) {
      const Box w = Box::fromSize(pos(rng), pos(rng), sz(rng), sz(rng));
      grown.query(w, a);
      rebuilt.query(w, b);
      EXPECT_EQ(a, b) << "after insert " << i;
      EXPECT_EQ(a, bruteQuery(ref, w, std::nullopt)) << "after insert " << i;
    }
  }
}

TEST(SpatialIndex, ReinsertUnionsCoverage) {
  // Re-inserting an id with a grown box (the auto-connect extension case)
  // makes the id visible through windows touching the new region.
  SpatialIndex idx;
  idx.insert(7, 0, Box{0, 0, 1000, 1000});
  std::vector<std::uint32_t> got;
  idx.query(Box{5000, 0, 6000, 1000}, got);
  EXPECT_TRUE(got.empty());
  idx.insert(7, 0, Box{0, 0, 6000, 1000});  // the shape grew east
  idx.query(Box{5000, 0, 6000, 1000}, got);
  EXPECT_EQ(got, (std::vector<std::uint32_t>{7}));
  // ...and the id is reported once, not once per covering insert.
  idx.query(Box{0, 0, 6000, 1000}, got);
  EXPECT_EQ(got, (std::vector<std::uint32_t>{7}));
}

TEST(SpatialIndex, VisitOffersQueryIdsAndStopsWhenTold) {
  // Tiny, multi-cell and overflow ("large", > 64 cells) boxes, some ids
  // re-inserted with a grown box: visit() offers each entry once, in any
  // order (a re-inserted id once per entry), as a set it is query(), and a
  // true return ends it.
  std::mt19937 rng(99);
  std::uniform_int_distribution<Coord> pos(-60000, 60000);
  std::uniform_int_distribution<Coord> small(1, 9000);
  std::uniform_int_distribution<Coord> big(33000, 90000);
  std::uniform_int_distribution<std::uint32_t> bucketPick(0, 2);
  int stoppedEarly = 0;
  for (int trial = 0; trial < 20; ++trial) {
    SpatialIndex idx;
    std::vector<RefEntry> ref;
    for (std::uint32_t i = 0; i < 150; ++i) {
      const bool large = rng() % 10 == 0;
      const Box b = Box::fromSize(pos(rng), pos(rng), large ? big(rng) : small(rng),
                                  large ? big(rng) : small(rng));
      const std::uint32_t bucket = bucketPick(rng);
      idx.insert(i, bucket, b);
      ref.push_back(RefEntry{i, bucket, b});
      if (i % 7 == 3) {  // re-insert an earlier id, grown
        const RefEntry& e = ref[rng() % ref.size()];
        const Box grown = e.box.unite(Box::fromSize(pos(rng), pos(rng), small(rng), small(rng)));
        idx.insert(e.id, e.bucket, grown);
        ref.push_back(RefEntry{e.id, e.bucket, grown});
      }
    }
    std::vector<std::uint32_t> want;
    for (int q = 0; q < 40; ++q) {
      const Box w = Box::fromSize(pos(rng), pos(rng), small(rng) * 3, small(rng) * 3);
      idx.query(w, want);
      EXPECT_EQ(want, bruteQuery(ref, w, std::nullopt)) << "trial " << trial;

      std::multiset<std::uint32_t> offered;
      EXPECT_FALSE(idx.visit(w, [&](std::uint32_t id) {
        offered.insert(id);
        return false;
      }));
      const std::set<std::uint32_t> distinct(offered.begin(), offered.end());
      EXPECT_EQ(std::vector<std::uint32_t>(distinct.begin(), distinct.end()), want)
          << "trial " << trial << " q " << q;
      // Each entry is offered once, however many cells it covers: an id
      // repeats only as often as it was inserted with a box touching `w`.
      std::multiset<std::uint32_t> entries;
      for (const RefEntry& e : ref)
        if (closedIntersects(e.box, w)) entries.insert(e.id);
      EXPECT_EQ(offered, entries) << "trial " << trial << " q " << q;

      // Stopping at the k-th offer makes exactly k calls.
      for (const std::size_t k : {std::size_t{1}, offered.size() / 2, offered.size()}) {
        if (k == 0 || k > offered.size()) continue;
        std::size_t calls = 0;
        EXPECT_TRUE(idx.visit(w, [&](std::uint32_t) { return ++calls == k; }));
        EXPECT_EQ(calls, k) << "trial " << trial << " q " << q;
        if (k < offered.size()) ++stoppedEarly;
      }
    }
  }
  EXPECT_GT(stoppedEarly, 0);  // the walks really were cut short
}

TEST(SpatialIndex, WalkFromFrontBoundsEveryLaterEntry) {
  // walkFromFront() offers visit()'s entries, and each cutoff bound covers
  // every entry offered after it: a consumer that stops at a bound has
  // seen every entry reaching further towards the front.  Boxes, and bands
  // unbounded along either axis, on all four sides; overflow entries come
  // before the first bound.
  constexpr Coord kFar = std::numeric_limits<Coord>::max() / 2;
  std::mt19937 rng(77);
  std::uniform_int_distribution<Coord> pos(-60000, 60000);
  std::uniform_int_distribution<Coord> small(1, 9000);
  std::uniform_int_distribution<Coord> big(33000, 90000);
  int cutShort = 0;
  for (int trial = 0; trial < 12; ++trial) {
    SpatialIndex idx;
    std::vector<RefEntry> ref;
    for (std::uint32_t i = 0; i < 150; ++i) {
      const bool large = rng() % 10 == 0;
      const Box b = Box::fromSize(pos(rng), pos(rng), large ? big(rng) : small(rng),
                                  large ? big(rng) : small(rng));
      idx.insert(i, i % 3, b);
      ref.push_back(RefEntry{i, i % 3, b});
    }
    for (int q = 0; q < 10; ++q) {
      const Coord lo = pos(rng), hi = lo + small(rng) * 3;
      const Box windows[] = {
          Box::fromSize(pos(rng), pos(rng), small(rng) * 3, small(rng) * 3),
          Box{-kFar, lo, kFar, hi}, Box{lo, -kFar, hi, kFar}};
      for (const Box& w : windows)
        for (const Side side : {Side::Left, Side::Bottom, Side::Right, Side::Top}) {
          const std::string where = "trial " + std::to_string(trial) + " q " +
                                    std::to_string(q) + " " + sideName(side);
          const std::vector<std::uint32_t> want = bruteQuery(ref, w, std::nullopt);
          std::vector<std::uint32_t> offered;
          std::vector<Coord> reaches;
          bool bounded = false;
          Coord last = std::numeric_limits<Coord>::max();
          EXPECT_FALSE(idx.walkFromFront(
              w, side,
              [&](std::uint32_t id) {
                offered.push_back(id);
                if (bounded) {
                  EXPECT_LE(SpatialIndex::reach(side, ref[id].box), last) << where;
                }
                return false;
              },
              [&](Coord r) {
                EXPECT_LE(r, last) << where;
                last = r;
                bounded = true;
                return false;
              }));
          for (std::uint32_t id : offered) reaches.push_back(SpatialIndex::reach(side, ref[id].box));
          std::sort(offered.begin(), offered.end());
          EXPECT_EQ(offered, want) << where;  // each entry once
          if (reaches.size() < 2) continue;

          // Cut off at the median reach: whatever was not offered reaches
          // no further than the bound that ended the walk.
          std::nth_element(reaches.begin(), reaches.begin() + reaches.size() / 2, reaches.end());
          const Coord median = reaches[reaches.size() / 2];
          std::set<std::uint32_t> seen;
          std::optional<Coord> stoppedAt;
          idx.walkFromFront(
              w, side,
              [&](std::uint32_t id) {
                seen.insert(id);
                return false;
              },
              [&](Coord r) {
                if (r >= median) return false;
                stoppedAt = r;
                return true;
              });
          for (std::uint32_t id : want) {
            if (seen.count(id)) continue;
            ASSERT_TRUE(stoppedAt.has_value()) << where;
            EXPECT_LE(SpatialIndex::reach(side, ref[id].box), *stoppedAt) << where;
          }
          if (seen.size() < want.size()) ++cutShort;

          // A true return from the visitor still ends the walk at once.
          std::size_t calls = 0;
          EXPECT_TRUE(idx.walkFromFront(
              w, side, [&](std::uint32_t) { return ++calls == 1; },
              [](Coord) { return false; }));
          EXPECT_EQ(calls, 1u) << where;
        }
    }
  }
  EXPECT_GT(cutShort, 0);  // the cutoffs really pruned
}

// --------------------------------------------------------------------------
// Consumer equivalence: indexed engines vs. brute-force oracles
// --------------------------------------------------------------------------

/// A deliberately messy module: random boxes on several layers, close
/// enough to violate spacings, overlap, and form odd connectivity.
Module messyModule(std::mt19937& rng, int nShapes) {
  std::uniform_int_distribution<Coord> pos(0, 40000);
  std::uniform_int_distribution<Coord> sz(800, 6000);
  std::uniform_int_distribution<int> layerPick(0, 5);
  std::uniform_int_distribution<int> netPick(0, 3);
  const char* layers[] = {"metal1", "metal2", "poly", "ndiff", "contact", "via"};
  Module m(T(), "messy");
  for (int i = 0; i < nShapes; ++i) {
    const auto layer = T().layer(layers[layerPick(rng)]);
    const int n = netPick(rng);
    const db::NetId net = n == 0 ? db::kNoNet : m.net("n" + std::to_string(n));
    m.addShape(makeShape(Box::fromSize(pos(rng), pos(rng), sz(rng), sz(rng)), layer, net));
  }
  return m;
}

TEST(SpatialConsumers, DrcViolationsIdenticalToBruteForce) {
  std::mt19937 rng(44);
  for (int trial = 0; trial < 15; ++trial) {
    const Module m = messyModule(rng, 60);
    drc::CheckOptions opt;
    opt.latchUp = false;

    const auto vi = drc::check(m, opt);
    const auto vb = oracle::bruteCheck(m, opt);
    ASSERT_EQ(vi.size(), vb.size()) << "trial " << trial;
    for (std::size_t k = 0; k < vi.size(); ++k) {
      EXPECT_EQ(vi[k].kind, vb[k].kind) << "trial " << trial << " #" << k;
      EXPECT_EQ(vi[k].a, vb[k].a) << "trial " << trial << " #" << k;
      EXPECT_EQ(vi[k].b, vb[k].b) << "trial " << trial << " #" << k;
      EXPECT_EQ(vi[k].where, vb[k].where) << "trial " << trial << " #" << k;
      EXPECT_EQ(vi[k].message, vb[k].message) << "trial " << trial << " #" << k;
    }
  }
}

TEST(SpatialConsumers, ConnectivityIdenticalToBruteForce) {
  std::mt19937 rng(55);
  for (int trial = 0; trial < 15; ++trial) {
    Module m = messyModule(rng, 50);
    // Force some gated diffusions: poly strips across diffusion shapes.
    std::uniform_int_distribution<Coord> pos(0, 40000);
    for (int i = 0; i < 6; ++i)
      m.addShape(makeShape(Box::fromSize(pos(rng), pos(rng), 1000, 12000),
                           T().layer("poly")));

    const db::Connectivity ci(m);
    const oracle::BruteConnectivity cb(m);
    EXPECT_EQ(ci.componentCount(), cb.componentCount()) << "trial " << trial;
    EXPECT_EQ(ci.components(), cb.components()) << "trial " << trial;
    for (db::ShapeId id : m.shapeIds())
      EXPECT_EQ(ci.componentOf(id), cb.componentOf(id)) << "trial " << trial;
  }
}

Module randomCompactObject(std::mt19937& rng, int idx) {
  std::uniform_int_distribution<Coord> sz(2000, 8000);
  std::uniform_int_distribution<int> layerPick(0, 2);
  const char* layers[] = {"metal1", "metal2", "poly"};
  Module o(T(), "obj");
  const int nShapes = 1 + static_cast<int>(rng() % 3);
  Coord x = 0;
  for (int i = 0; i < nShapes; ++i) {
    const Coord w = sz(rng), h = sz(rng);
    // Half the objects share net "bus" so auto-connect and same-potential
    // abutment fire; the rest get a private net.
    const std::string net = idx % 2 == 0 ? "bus" : "n" + std::to_string(idx);
    auto& s = o.shape(o.addShape(makeShape(
        Box::fromSize(x, 0, w, h), T().layer(layers[layerPick(rng)]), o.net(net))));
    if (rng() % 2) s.varEdges = db::EdgeFlags::allVariable();
    x += w;
  }
  return o;
}

/// An object for the long differential sequences: one to four shapes,
/// mostly on one layer and offset so they stack behind one another (a
/// hidden same-layer shape can set the second-largest need, and so how far
/// a variable edge shrinks), on net "bus" (same-net arrivals), a private
/// net or none, half of them with variable edges.
Module stackedObject(std::mt19937& rng, int idx) {
  std::uniform_int_distribution<Coord> sz(1500, 7000);
  std::uniform_int_distribution<Coord> off(-3000, 6000);
  const char* layers[] = {"metal1", "metal2", "poly"};
  Module o(T(), "obj");
  const int nShapes = 1 + static_cast<int>(rng() % 4);
  const char* layer = layers[rng() % 3];
  Coord x = 0, y = 0;
  for (int i = 0; i < nShapes; ++i) {
    if (rng() % 4 == 0) layer = layers[rng() % 3];
    const int netPick = static_cast<int>(rng() % 3);
    const db::NetId net = netPick == 0   ? o.net("bus")
                          : netPick == 1 ? o.net("n" + std::to_string(idx))
                                         : db::kNoNet;
    auto& s = o.shape(o.addShape(makeShape(Box::fromSize(x, y, sz(rng), sz(rng)),
                                           T().layer(layer), net)));
    if (rng() % 2) s.varEdges = db::EdgeFlags::allVariable();
    x += off(rng);
    y += off(rng);
  }
  return o;
}

void expectSameLayout(const Module& a, const Module& b, const std::string& where) {
  ASSERT_EQ(a.rawSize(), b.rawSize()) << where;
  for (db::ShapeId id = 0; id < a.rawSize(); ++id) {
    EXPECT_EQ(a.isAlive(id), b.isAlive(id)) << where << " shape " << id;
    if (!a.isAlive(id) || !b.isAlive(id)) continue;
    EXPECT_EQ(a.shape(id).box, b.shape(id).box) << where << " shape " << id;
    EXPECT_EQ(a.shape(id).layer, b.shape(id).layer) << where << " shape " << id;
    EXPECT_EQ(a.shape(id).net, b.shape(id).net) << where << " shape " << id;
  }
}

void expectSameStep(const compact::Result& a, const compact::Result& b,
                    const std::string& where) {
  EXPECT_EQ(a.translation, b.translation) << where;
  EXPECT_EQ(a.edgeMoves, b.edgeMoves) << where;
  EXPECT_EQ(a.autoConnects, b.autoConnects) << where;
  EXPECT_EQ(a.idMap, b.idMap) << where;
}

TEST(SpatialConsumers, CompactorIdenticalToBruteForce) {
  std::mt19937 rng(66);
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<Module> objs;
    for (int i = 0; i < 8; ++i) objs.push_back(randomCompactObject(rng, i));
    const Dir dirs[] = {Dir::West, Dir::South, Dir::East, Dir::North};
    std::vector<Dir> order;
    for (std::size_t i = 0; i < objs.size(); ++i) order.push_back(dirs[rng() % 4]);

    Module mi(T(), "t"), mb(T(), "t");
    for (std::size_t i = 0; i < objs.size(); ++i) {
      const auto ri = compact::compact(mi, objs[i], order[i]);
      const auto rb = oracle::bruteCompact(mb, objs[i], order[i]);
      EXPECT_EQ(ri.translation, rb.translation) << "trial " << trial << " step " << i;
      EXPECT_EQ(ri.edgeMoves, rb.edgeMoves) << "trial " << trial << " step " << i;
      EXPECT_EQ(ri.autoConnects, rb.autoConnects) << "trial " << trial << " step " << i;
      EXPECT_EQ(ri.idMap, rb.idMap) << "trial " << trial << " step " << i;
    }
    // The final geometry is identical shape by shape.
    ASSERT_EQ(mi.rawSize(), mb.rawSize()) << "trial " << trial;
    for (db::ShapeId id = 0; id < mi.rawSize(); ++id) {
      EXPECT_EQ(mi.isAlive(id), mb.isAlive(id)) << "trial " << trial;
      if (!mi.isAlive(id) || !mb.isAlive(id)) continue;
      EXPECT_EQ(mi.shape(id).box, mb.shape(id).box) << "trial " << trial << " shape " << id;
      EXPECT_EQ(mi.shape(id).layer, mb.shape(id).layer) << "trial " << trial;
      EXPECT_EQ(mi.shape(id).net, mb.shape(id).net) << "trial " << trial;
    }
  }

  // Scattered targets: overlapping random boxes on named nets and on no
  // net, one object arriving from far east, in each direction.
  std::uniform_int_distribution<Coord> pos(0, 40000);
  std::uniform_int_distribution<Coord> sz(1600, 6000);
  std::uniform_int_distribution<int> pick(0, 2);
  const char* layers[] = {"metal1", "metal2", "poly"};
  const char* nets[] = {"", "a", "b"};
  for (Dir d : {Dir::West, Dir::East, Dir::South, Dir::North}) {
    for (int trial = 0; trial < 25; ++trial) {
      Module mi(T(), "t");
      for (int i = 0; i < 12; ++i)
        mi.addShape(makeShape(Box::fromSize(pos(rng), pos(rng), sz(rng), sz(rng)),
                              T().layer(layers[pick(rng)]), mi.net(nets[pick(rng)])));
      Module obj(T(), "obj");
      for (int i = 0; i < 4; ++i)
        obj.addShape(makeShape(Box::fromSize(pos(rng) + 100000, pos(rng), sz(rng), sz(rng)),
                               T().layer(layers[pick(rng)]), obj.net(nets[pick(rng)])));
      Module mb = mi;
      const std::string where = std::string(dirName(d)) + " trial " + std::to_string(trial);
      expectSameStep(compact::compact(mi, obj, d), oracle::bruteCompact(mb, obj, d), where);
      expectSameLayout(mi, mb, where);
    }
  }

  // Long sequences, deep enough that the front-first cutoffs prune: 60–80
  // steps of stacked objects, one direction per trial or a random one per
  // step, with random ignore layers, extra gaps and variable edges, checked
  // box by box after every step.
  obs::enableStats(true);
  obs::Stats& stats = obs::Stats::global();
  const Dir dirs[] = {Dir::West, Dir::South, Dir::East, Dir::North};
  std::uint64_t indexedCands = 0, bruteCands = 0, walled = 0;
  int edgeMoves = 0, autoConnects = 0;
  for (int trial = 0; trial < 12; ++trial) {
    Module mi(T(), "t"), mb(T(), "t");
    const int steps = 60 + static_cast<int>(rng() % 21);
    for (int i = 0; i < steps; ++i) {
      const Module obj = stackedObject(rng, i);
      const Dir d = trial < 4 ? dirs[trial] : dirs[rng() % 4];
      compact::Options opt;
      if (rng() % 3 == 0) opt.ignoreLayers.push_back(T().layer(layers[pick(rng)]));
      if (rng() % 3 == 0) opt.extraGap = 250 * static_cast<Coord>(1 + rng() % 3);
      opt.enableVariableEdges = rng() % 5 != 0;
      const std::string where = "long trial " + std::to_string(trial) + " step " +
                                std::to_string(i) + " " + dirName(d);
      std::uint64_t before = stats.value("compact.constraints.candidates");
      const std::uint64_t walledBefore = stats.value("compact.autoconnect.walled");
      const auto ri = compact::compact(mi, obj, d, opt);
      indexedCands += stats.value("compact.constraints.candidates") - before;
      walled += stats.value("compact.autoconnect.walled") - walledBefore;
      before = stats.value("compact.constraints.candidates");
      const auto rb = oracle::bruteCompact(mb, obj, d, opt);
      bruteCands += stats.value("compact.constraints.candidates") - before;
      expectSameStep(ri, rb, where);
      expectSameLayout(mi, mb, where);
      edgeMoves += ri.edgeMoves;
      autoConnects += ri.autoConnects;
      if (::testing::Test::HasFailure()) break;
    }
  }
  obs::enableStats(false);
  EXPECT_LT(4 * indexedCands, bruteCands) << "the constraint cutoff did not prune";
  EXPECT_GT(walled, 0u) << "no auto-connect partner was settled by a wall";
  EXPECT_GT(edgeMoves, 0);
  EXPECT_GT(autoConnects, 0);
}

TEST(SpatialConsumers, KeptIndexIdenticalToRebuiltAndBruteForce) {
  // compact() keeps its index on the target across append-only steps and
  // rebuilds it after a step that edited the target (arrivals, auto-connect
  // extensions, variable-edge shrinks, array rebuilds with retired ids all
  // occur here).  It must match a target copied before every step, whose
  // index is therefore rebuilt on every step, and the all-pairs oracle,
  // which keeps no index at all.
  std::mt19937 rng(88);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Module> objs;
    for (int i = 0; i < 10; ++i) objs.push_back(randomCompactObject(rng, i));
    const Dir dirs[] = {Dir::West, Dir::South, Dir::East, Dir::North};
    std::vector<Dir> order;
    for (std::size_t i = 0; i < objs.size(); ++i) order.push_back(dirs[rng() % 4]);

    Module mk(T(), "t"), mr(T(), "t"), mb(T(), "t");
    for (std::size_t i = 0; i < objs.size(); ++i) {
      const std::string where = "trial " + std::to_string(trial) + " step " +
                                std::to_string(i);
      const auto rk = compact::compact(mk, objs[i], order[i]);
      Module fresh = mr;  // a copy carries no index
      const auto rr = compact::compact(fresh, objs[i], order[i]);
      mr = std::move(fresh);
      const auto rb = oracle::bruteCompact(mb, objs[i], order[i]);
      expectSameStep(rk, rr, where + " (rebuilt)");
      expectSameStep(rk, rb, where + " (brute)");
    }
    expectSameLayout(mk, mr, "trial " + std::to_string(trial) + " (rebuilt)");
    expectSameLayout(mk, mb, "trial " + std::to_string(trial) + " (brute)");
  }
}

/// `(a1, c1)-(a2, c2)` in the frame of a step in direction `d`: `a` runs
/// along the movement axis (the object's leading edge is its low-`a` side),
/// `c` across it.
Box oriented(Dir d, Coord a1, Coord c1, Coord a2, Coord c2) {
  switch (d) {
    case Dir::West: return Box{a1, c1, a2, c2};
    case Dir::East: return Box{-a2, c1, -a1, c2};
    case Dir::South: return Box{c1, a1, c2, a2};
    case Dir::North: return Box{c1, -a2, c2, -a1};
  }
  return {};
}

/// Cell `k` of a row built by successive compaction in direction `d`: a
/// metal1 "bus" stub and a poly "g" stub (the same-net partners every later
/// cell meets), a private metal1 spacer outside both bands that sets the
/// pitch, and — by `rng` — a private metal1 blocker in the bus band and an
/// ndiff blocker in the poly band, which a poly extension may not cross.
Module rowCell(Dir d, int k, std::mt19937& rng) {
  Module o(T(), "cell");
  auto add = [&](const char* layer, const std::string& net, Coord a1, Coord c1, Coord a2,
                 Coord c2) {
    o.addShape(makeShape(oriented(d, a1, c1, a2, c2), T().layer(layer),
                         net.empty() ? db::kNoNet : o.net(net)));
  };
  add("metal1", "bus", 0, 0, 2000, 2000);
  add("poly", "g", 0, 6000, 1000, 7000);
  add("metal1", "s" + std::to_string(k), 0, 10000, 5000, 12000);
  if (rng() % 2) add("metal1", "b" + std::to_string(k), 3200, 0, 4800, 2000);
  if (rng() % 2) add("ndiff", "", 2000, 4000, 4000, 9000);
  return o;
}

TEST(SpatialConsumers, RowAutoConnectIdenticalToBruteForceInEveryDirection) {
  // Every cell's bus and poly stubs face the same-net stubs of all earlier
  // cells: the far ones are blocked by the cells in between, the previous
  // one is extended when its cell drew no blocker.  The early-exit safety
  // visit and the deduplicated constraint visit must step exactly like the
  // all-pairs oracle.
  obs::enableStats(true);
  obs::Stats& stats = obs::Stats::global();
  std::mt19937 rng(1234);
  for (const Dir d : {Dir::West, Dir::East, Dir::South, Dir::North}) {
    stats.reset();
    const int cells = 60 + static_cast<int>(rng() % 61);
    Module mk(T(), "row"), mb(T(), "row");
    int autoConnects = 0;
    for (int k = 0; k < cells; ++k) {
      const std::string where =
          std::string(dirName(d)) + " cell " + std::to_string(k);
      const Module cell = rowCell(d, k, rng);
      const auto rk = compact::compact(mk, cell, d);
      const auto rb = oracle::bruteCompact(mb, cell, d);
      expectSameStep(rk, rb, where);
      autoConnects += rk.autoConnects;
    }
    expectSameLayout(mk, mb, dirName(d));
    // Both index and oracle ran, so halve the shared counters.
    const std::uint64_t extensions = stats.value("compact.autoconnect.extensions") / 2;
    const std::uint64_t partners = stats.value("compact.autoconnect.partners") / 2;
    EXPECT_EQ(extensions, static_cast<std::uint64_t>(autoConnects)) << dirName(d);
    EXPECT_GT(autoConnects, 0) << dirName(d);
    EXPECT_GT(partners, extensions) << dirName(d) << ": no partner was blocked";
    EXPECT_GT(stats.value("compact.autoconnect.safety_candidates"), 0u) << dirName(d);
  }
  obs::enableStats(false);
}

/// A rigid k×k checker of metal1/metal2 squares on a private net,
/// pre-placed in column `idx % cols`: stacked with Dir::South it neither
/// shrinks nor auto-connects anything, so every step only appends.
Module tileObject(int k, int idx, int cols) {
  Module o(T(), "tile");
  const Coord x0 = (idx % cols) * (k * 4000 + 4000);
  for (int i = 0; i < k; ++i)
    for (int j = 0; j < k; ++j)
      o.addShape(makeShape(Box::fromSize(x0 + i * 4000, j * 4000, 2500, 2500),
                           T().layer((i + j) % 2 ? "metal2" : "metal1"),
                           o.net("t" + std::to_string(idx))));
  return o;
}

Module metalStrap(const Box& box, const std::string& net, bool variableTop = false) {
  Module o(T(), "strap");
  auto s = makeShape(box, T().layer("metal1"), o.net(net));
  s.varEdges.setVariable(Side::Top, variableTop);
  o.addShape(s);
  return o;
}

TEST(SpatialConsumers, KeptIndexInsertsEachShapeOnceAndRebuildsAfterEdits) {
  obs::enableStats(true);
  obs::Stats& stats = obs::Stats::global();

  // An append-only successive build inserts each shape into the index once
  // (the parked index is reused), so the total is linear in the shapes,
  // not quadratic; only the first step, onto the empty target, builds one.
  stats.reset();
  Module tiles(T(), "tiles"), tilesBrute(T(), "tiles");
  for (int i = 0; i < 36; ++i) {
    const Module tile = tileObject(3, i, 6);
    compact::compact(tiles, tile, Dir::South);
    oracle::bruteCompact(tilesBrute, tile, Dir::South);
  }
  EXPECT_EQ(stats.value("spatial.inserts"), tiles.shapeCount());
  EXPECT_EQ(stats.value("db.index.builds"), 1u);
  expectSameLayout(tiles, tilesBrute, "tiles");

  // Each event that leaves the parked index stale costs exactly one
  // rebuild, on the next step, and the layout stays the oracle's.
  Module mk(T(), "t"), mb(T(), "t");
  int n = 0;
  auto step = [&](const Module& obj) {
    const std::string where = "step " + std::to_string(n++);
    const std::uint64_t before = stats.value("db.index.builds");
    const auto rk = compact::compact(mk, obj, Dir::South);
    const auto rb = oracle::bruteCompact(mb, obj, Dir::South);
    expectSameStep(rk, rb, where);
    expectSameLayout(mk, mb, where);
    return std::pair{stats.value("db.index.builds") - before, rk};
  };
  Module pair(T(), "pair");
  pair.addShape(makeShape(Box{0, 0, 1000, 3000}, T().layer("metal1"), pair.net("s")));
  pair.addShape(makeShape(Box{5000, 0, 6000, 1500}, T().layer("metal1"), pair.net("s")));
  EXPECT_EQ(step(pair).first, 1u);  // the empty target's first index
  Coord y = 10000;
  auto strap = [&](const std::string& net, bool variableTop = false) {
    y += 20000;
    return metalStrap(Box{0, y, 6000, y + 4000}, net, variableTop);
  };

  // An auto-connect extension: the short column grows to the strap.
  const auto [extendRebuilds, extendResult] = step(strap("s"));
  EXPECT_EQ(extendRebuilds, 0u);
  EXPECT_GT(extendResult.autoConnects, 0);
  EXPECT_EQ(step(strap("a")).first, 1u);
  EXPECT_EQ(step(strap("b", true)).first, 0u);

  // A target-side variable-edge shrink: the next strap binds on the
  // variable top edge of the last one.
  const auto [shrinkRebuilds, shrinkResult] = step(strap("c"));
  EXPECT_EQ(shrinkRebuilds, 0u);
  EXPECT_GT(shrinkResult.edgeMoves, 0);
  EXPECT_EQ(step(strap("d")).first, 1u);
  EXPECT_EQ(step(strap("e")).first, 0u);

  // An out-of-band addShape.
  mk.addShape(makeShape(Box{20000, 0, 21000, 1000}, T().layer("metal1")));
  mb.addShape(makeShape(Box{20000, 0, 21000, 1000}, T().layer("metal1")));
  EXPECT_EQ(step(strap("f")).first, 1u);
  EXPECT_EQ(step(strap("g")).first, 0u);

  // A copy starts without an index; the unchanged source keeps its own.
  Module copy = mk;
  const std::uint64_t before = stats.value("db.index.builds");
  compact::compact(copy, strap("h"), Dir::South);
  EXPECT_EQ(stats.value("db.index.builds") - before, 1u);
  y -= 20000;  // the same strap again for mk
  EXPECT_EQ(step(strap("h")).first, 0u);
  expectSameLayout(copy, mk, "copy");
  EXPECT_EQ(step(strap("i")).first, 0u);

  // A move leaves neither side an index.
  Module moved = std::move(mk);
  mk = std::move(moved);
  EXPECT_EQ(step(strap("j")).first, 1u);
  EXPECT_EQ(step(strap("k")).first, 0u);

  // A step that throws (a foreign technology) drops the index.
  Module foreign(tech::cmos2u(), "foreign");
  foreign.addShape(makeShape(Box{0, 0, 1000, 1000}, tech::cmos2u().layer("metal1")));
  EXPECT_THROW(compact::compact(mk, foreign, Dir::South), Error);
  EXPECT_EQ(step(strap("l")).first, 1u);
  EXPECT_EQ(step(strap("m")).first, 0u);

  obs::enableStats(false);
}

TEST(SpatialConsumers, ObstaclesIdenticalToBruteForce) {
  std::mt19937 rng(77);
  std::uniform_int_distribution<Coord> pos(0, 40000);
  std::uniform_int_distribution<Coord> sz(500, 5000);
  std::uniform_int_distribution<int> layerPick(0, 3);
  const char* layers[] = {"metal1", "metal2", "poly", "contact"};
  for (int trial = 0; trial < 10; ++trial) {
    Module m = messyModule(rng, 50);
    route::Obstacles oi(m);
    oracle::BruteObstacles ob(m);
    for (int q = 0; q < 60; ++q) {
      db::Shape probe = makeShape(Box::fromSize(pos(rng), pos(rng), sz(rng), sz(rng)),
                                  T().layer(layers[layerPick(rng)]),
                                  q % 3 == 0 ? m.net("n1") : db::kNoNet);
      EXPECT_EQ(oi.firstConflict(probe), ob.firstConflict(probe))
          << "trial " << trial << " probe " << q;
      if (q % 10 == 5) {
        // Grow both trackers identically and keep comparing.
        const db::ShapeId id = m.addShape(probe);
        oi.add(id);
        ob.add(id);
      }
    }
  }
}

// --------------------------------------------------------------------------
// Work per compaction step
// --------------------------------------------------------------------------

/// Counter `name` per compaction step over one Sweep build of `rows` rows.
std::map<std::string, double> sweepWorkPerStep(int rows,
                                               const std::vector<std::string>& names) {
  obs::Stats& stats = obs::Stats::global();
  stats.reset();
  obs::enableStats(true);
  lang::Interpreter in(T());
  in.run("s = Sweep(rows = " + std::to_string(rows) + ", W = 6)\n" + bench::kSweepLib);
  obs::enableStats(false);
  const double steps = static_cast<double>(stats.value("compact.steps"));
  EXPECT_EQ(steps, rows + 1.0);
  std::map<std::string, double> out;
  for (const std::string& n : names) out[n] = static_cast<double>(stats.value(n)) / steps;
  return out;
}

TEST(CompactionWork, PerStepWorkIsFlatOnTheSweepRow) {
  // §2.3: successive compaction involves "only outer edges" of the growing
  // structure.  A step's constraint candidates and auto-connect partners
  // stay the same however long the row already is; an O(n) step reads ~8x
  // more of both at 400 rows than at 50.
  const std::vector<std::string> names = {"compact.constraints.candidates",
                                          "compact.autoconnect.candidates",
                                          "compact.autoconnect.partners"};
  const auto at50 = sweepWorkPerStep(50, names);
  const auto at400 = sweepWorkPerStep(400, names);
  for (const std::string& n : names) {
    EXPECT_LE(at400.at(n), 2.0 * at50.at(n)) << n << ": " << at50.at(n) << " per step at 50 rows, "
                                              << at400.at(n) << " at 400";
  }
  EXPECT_GT(at50.at("compact.constraints.candidates"), 0.0);
  EXPECT_GT(at50.at("compact.autoconnect.partners"), 0.0);
}

}  // namespace
}  // namespace amg
