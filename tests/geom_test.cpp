// Unit and property tests for the geometry substrate.
#include <gtest/gtest.h>

#include <random>

#include "geom/box.h"
#include "geom/subtract.h"
#include "geom/transform.h"

namespace amg::geom {
namespace {

TEST(Box, BasicAccessors) {
  const Box b{10, 20, 110, 220};
  EXPECT_EQ(b.width(), 100);
  EXPECT_EQ(b.height(), 200);
  EXPECT_EQ(b.area(), 20000);
  EXPECT_EQ(b.center(), (Point{60, 120}));
  EXPECT_FALSE(b.empty());
  EXPECT_TRUE(Box{}.empty());
  EXPECT_EQ(Box{}.area(), 0);
}

TEST(Box, FromCornersNormalizes) {
  EXPECT_EQ(Box::fromCorners(5, 7, 1, 2), (Box{1, 2, 5, 7}));
  EXPECT_EQ(Box::fromCorners(1, 2, 5, 7), (Box{1, 2, 5, 7}));
}

TEST(Box, CentredOnExactSize) {
  const Box b = Box::centredOn({0, 0}, 10, 6);
  EXPECT_EQ(b.width(), 10);
  EXPECT_EQ(b.height(), 6);
  const Box odd = Box::centredOn({0, 0}, 7, 5);
  EXPECT_EQ(odd.width(), 7);
  EXPECT_EQ(odd.height(), 5);
}

TEST(Box, OverlapTouchContain) {
  const Box a{0, 0, 10, 10};
  EXPECT_TRUE(a.overlaps(Box{5, 5, 15, 15}));
  EXPECT_FALSE(a.overlaps(Box{10, 0, 20, 10}));  // edge touch is not overlap
  EXPECT_TRUE(a.contains(Box{2, 2, 8, 8}));
  EXPECT_TRUE(a.contains(Box{0, 0, 10, 10}));
  EXPECT_FALSE(a.contains(Box{2, 2, 12, 8}));
  EXPECT_TRUE(a.contains(Point{10, 10}));
}

TEST(Box, IntersectUnite) {
  const Box a{0, 0, 10, 10}, b{5, 5, 20, 20};
  EXPECT_EQ(a.intersect(b), (Box{5, 5, 10, 10}));
  EXPECT_TRUE(a.intersect(Box{10, 10, 20, 20}).empty());
  EXPECT_EQ(a.unite(b), (Box{0, 0, 20, 20}));
  EXPECT_EQ(Box{}.unite(a), a);
  EXPECT_EQ(a.unite(Box{}), a);
}

TEST(Box, Gaps) {
  const Box a{0, 0, 10, 10};
  EXPECT_EQ(gapX(a, Box{15, 0, 20, 10}), 5);
  EXPECT_EQ(gapY(a, Box{0, 12, 10, 20}), 2);
  EXPECT_EQ(boxGap(a, Box{15, 0, 20, 10}), 5);
  EXPECT_EQ(boxGap(a, Box{3, 3, 7, 7}), 0);   // overlap
  EXPECT_EQ(boxGap(a, Box{10, 10, 20, 20}), 0);  // corner touch
  EXPECT_EQ(boxGap(a, Box{13, 14, 20, 20}), 4);  // diagonal: max(3, 4)
}

TEST(Box, SideAccess) {
  Box b{1, 2, 3, 4};
  EXPECT_EQ(b.side(Side::Left), 1);
  EXPECT_EQ(b.side(Side::Bottom), 2);
  EXPECT_EQ(b.side(Side::Right), 3);
  EXPECT_EQ(b.side(Side::Top), 4);
  b.setSide(Side::Right, 30);
  EXPECT_EQ(b, (Box{1, 2, 30, 4}));
}

TEST(Dirs, OppositeAndSides) {
  EXPECT_EQ(opposite(Dir::West), Dir::East);
  EXPECT_EQ(opposite(Dir::South), Dir::North);
  EXPECT_EQ(frontSide(Dir::West), Side::Left);
  EXPECT_EQ(frontSide(Dir::North), Side::Top);
  EXPECT_EQ(landingSide(Dir::West), Side::Right);
  EXPECT_EQ(landingSide(Dir::South), Side::Top);
}

// ---------------------------------------------------------------------------
// Rectangle subtraction: the 16 overlap cases of the paper's Fig. 1.
// The horizontal and vertical overlap of the cutter relative to the solid
// each fall into one of four interacting classes; the parameterized test
// enumerates the full 4x4 matrix.
// ---------------------------------------------------------------------------

struct OverlapCase {
  const char* name;
  Coord lo, hi;  // cutter range on this axis (solid is [0, 100])
};

// Four per-axis classes with a non-degenerate remainder where applicable.
const OverlapCase kAxisCases[] = {
    {"low", -50, 40},      // covers the low end
    {"high", 60, 150},     // covers the high end
    {"inside", 30, 70},    // strictly inside
    {"covers", -10, 110},  // covers everything
};

class CutRect16 : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CutRect16, RemainderIsExactComplement) {
  const auto [hi, vi] = GetParam();
  const Box solid{0, 0, 100, 100};
  const Box cutter{kAxisCases[hi].lo, kAxisCases[vi].lo, kAxisCases[hi].hi,
                   kAxisCases[vi].hi};
  const auto pieces = cutRect(solid, cutter);

  // Pieces are disjoint, inside the solid, and avoid the cutter.
  Coord area = 0;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    EXPECT_TRUE(solid.contains(pieces[i])) << pieces[i].str();
    EXPECT_FALSE(pieces[i].overlaps(cutter)) << pieces[i].str();
    area += pieces[i].area();
    for (std::size_t j = i + 1; j < pieces.size(); ++j)
      EXPECT_FALSE(pieces[i].overlaps(pieces[j]));
  }
  // Total area accounts for everything not covered by the cutter.
  EXPECT_EQ(area, solid.area() - solid.intersect(cutter).area());
}

INSTANTIATE_TEST_SUITE_P(
    AllSixteen, CutRect16,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return std::string(kAxisCases[std::get<0>(info.param)].name) + "_h_" +
             kAxisCases[std::get<1>(info.param)].name + "_v";
    });

TEST(CutRect, DisjointReturnsOriginal) {
  const Box a{0, 0, 10, 10};
  const auto r = cutRect(a, Box{20, 20, 30, 30});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], a);
}

TEST(CutRect, FullCoverReturnsEmpty) {
  EXPECT_TRUE(cutRect(Box{0, 0, 10, 10}, Box{-1, -1, 11, 11}).empty());
  EXPECT_TRUE(cutRect(Box{0, 0, 10, 10}, Box{0, 0, 10, 10}).empty());
}

TEST(ClassifyOverlap, AllClasses) {
  EXPECT_EQ(classifyOverlap(0, 100, 200, 300), OverlapClass::None);
  EXPECT_EQ(classifyOverlap(0, 100, -10, 50), OverlapClass::Low);
  EXPECT_EQ(classifyOverlap(0, 100, 50, 110), OverlapClass::High);
  EXPECT_EQ(classifyOverlap(0, 100, 20, 80), OverlapClass::Inside);
  EXPECT_EQ(classifyOverlap(0, 100, 0, 100), OverlapClass::Covers);
}

TEST(SubtractAll, LatchUpStyleCoverage) {
  // Two guard rectangles covering a solid only jointly.
  const Box solid{0, 0, 100, 100};
  EXPECT_FALSE(isCovered(solid, {Box{0, 0, 60, 100}}));
  EXPECT_TRUE(isCovered(solid, {Box{0, 0, 60, 100}, Box{50, 0, 100, 100}}));
  // Four quadrants cover exactly.
  EXPECT_TRUE(isCovered(solid, {Box{0, 0, 50, 50}, Box{50, 0, 100, 50},
                                Box{0, 50, 50, 100}, Box{50, 50, 100, 100}}));
  // A pinhole remains.
  EXPECT_FALSE(isCovered(solid, {Box{0, 0, 50, 50}, Box{50, 0, 100, 50},
                                 Box{0, 50, 50, 100}, Box{51, 51, 100, 100}}));
}

TEST(SubtractAll, RandomizedAgainstGridOracle) {
  std::mt19937 rng(42);
  std::uniform_int_distribution<Coord> d(0, 20);
  for (int trial = 0; trial < 200; ++trial) {
    const Box solid{0, 0, 20, 20};
    std::vector<Box> cutters;
    for (int i = 0; i < 4; ++i) {
      const Coord x1 = d(rng), y1 = d(rng);
      const Coord x2 = x1 + 1 + d(rng) / 2, y2 = y1 + 1 + d(rng) / 2;
      cutters.push_back(Box{x1, y1, x2, y2});
    }
    const auto rem = subtractAll({solid}, cutters);
    // Oracle: per-unit-cell coverage.
    Coord remArea = 0;
    for (Coord x = 0; x < 20; ++x)
      for (Coord y = 0; y < 20; ++y) {
        const Box cell{x, y, x + 1, y + 1};
        bool cut = false;
        for (const Box& c : cutters) cut = cut || c.contains(cell);
        if (!cut) {
          // Partially covered cells may still be subtracted piecewise; use
          // exact overlap instead: cell survives iff no cutter overlaps it
          // fully... compute survived area via pieces.
        }
        bool inRem = false;
        for (const Box& r : rem)
          if (r.contains(cell)) inRem = true;
        // Any fully-uncut cell must be in the remainder.
        bool touched = false;
        for (const Box& c : cutters) touched = touched || c.overlaps(cell);
        if (!touched) {
          EXPECT_TRUE(inRem) << "cell " << cell.str();
        }
        if (inRem) remArea += 1;
      }
    // Remainder area equals union-complement area.
    std::vector<Box> all = cutters;
    Coord cutArea = 0;
    {
      std::vector<Box> clipped;
      for (const Box& c : cutters) {
        const Box k = c.intersect(solid);
        if (!k.empty()) clipped.push_back(k);
      }
      cutArea = unionArea(clipped);
    }
    Coord remTotal = 0;
    for (const Box& r : rem) remTotal += r.area();
    EXPECT_EQ(remTotal, solid.area() - cutArea);
  }
}

TEST(UnionArea, OverlapsCountedOnce) {
  EXPECT_EQ(unionArea({Box{0, 0, 10, 10}, Box{5, 0, 15, 10}}), 150);
  EXPECT_EQ(unionArea({Box{0, 0, 10, 10}, Box{0, 0, 10, 10}}), 100);
  EXPECT_EQ(unionArea({}), 0);
}

TEST(BoundingBox, OfSet) {
  EXPECT_EQ(boundingBox({Box{0, 0, 1, 1}, Box{5, -3, 6, 2}}), (Box{0, -3, 6, 2}));
  EXPECT_TRUE(boundingBox({}).empty());
}

// ---------------------------------------------------------------------------
// Transforms
// ---------------------------------------------------------------------------

TEST(Transform, MirrorX) {
  const auto tf = Transform::mirrorX(50);
  EXPECT_EQ(tf.apply(Point{10, 20}), (Point{90, 20}));
  EXPECT_EQ(tf.apply(Box{10, 20, 30, 40}), (Box{70, 20, 90, 40}));
  EXPECT_EQ(tf.apply(Side::Left), Side::Right);
  EXPECT_EQ(tf.apply(Side::Top), Side::Top);
}

TEST(Transform, MirrorY) {
  const auto tf = Transform::mirrorY(0);
  EXPECT_EQ(tf.apply(Point{10, 20}), (Point{10, -20}));
  EXPECT_EQ(tf.apply(Side::Bottom), Side::Top);
  EXPECT_EQ(tf.apply(Side::Left), Side::Left);
}

TEST(Transform, Rotate180) {
  const auto tf = Transform::rotate180(Point{0, 0});
  EXPECT_EQ(tf.apply(Box{1, 2, 3, 4}), (Box{-3, -4, -1, -2}));
  EXPECT_EQ(tf.apply(Side::Left), Side::Right);
  EXPECT_EQ(tf.apply(Side::Bottom), Side::Top);
}

TEST(Transform, Composition) {
  const auto mx = Transform::mirrorX(0);
  const auto tr = Transform::translate(100, 0);
  const auto both = mx.then(tr);
  EXPECT_EQ(both.apply(Point{10, 5}), (Point{90, 5}));
}

TEST(Transform, MirrorTwiceIsIdentity) {
  const auto tf = Transform::mirrorX(37).then(Transform::mirrorX(37));
  for (const Point p : {Point{0, 0}, Point{13, -7}, Point{100, 100}})
    EXPECT_EQ(tf.apply(p), p);
}

TEST(Orient, ComposeTable) {
  EXPECT_EQ(compose(Orient::R90, Orient::R90), Orient::R180);
  EXPECT_EQ(compose(Orient::R90, Orient::R270), Orient::R0);
  EXPECT_EQ(compose(Orient::MX, Orient::MX), Orient::R0);
  EXPECT_EQ(compose(Orient::MY, Orient::MY), Orient::R0);
}

}  // namespace
}  // namespace amg::geom
