// Tests for the SVG, CIF and GDS writers and for the module record
// (AMGL layouts and AMGS session snapshots, io/layout.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <string_view>

#include "io/cif.h"
#include "io/gds.h"
#include "io/layout.h"
#include "io/svg.h"
#include "modules/basic.h"
#include "tech/builtin.h"
#include "util/diag.h"
#include "util/hash.h"
#include "util/wire.h"

namespace amg::io {
namespace {

using tech::bicmos1u;

db::Module sample() {
  modules::ContactRowSpec spec;
  spec.layer = "poly";
  spec.w = um(8);
  spec.net = "n";
  return modules::contactRow(bicmos1u(), spec);
}

TEST(Svg, ContainsShapesAndCaption) {
  const db::Module m = sample();
  const std::string svg = toSvg(m);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One positioned <rect per shape (pattern-definition and background
  // rects have no x= attribute).
  std::size_t rects = 0;
  for (std::size_t p = svg.find("<rect x="); p != std::string::npos;
       p = svg.find("<rect x=", p + 1))
    ++rects;
  EXPECT_EQ(rects, m.shapeCount());
  EXPECT_NE(svg.find("ContactRow"), std::string::npos);
}

TEST(Svg, NetLabelsOptional) {
  const db::Module m = sample();
  SvgOptions opt;
  opt.labelNets = true;
  EXPECT_NE(toSvg(m, opt).find(">n</text>"), std::string::npos);
  opt.labelNets = false;
  EXPECT_EQ(toSvg(m, opt).find(">n</text>"), std::string::npos);
}

TEST(Svg, PatternsDefinedForNonSolidLayers) {
  db::Module m(bicmos1u(), "x");
  m.addShape(db::makeShape(Box{0, 0, um(5), um(5)}, bicmos1u().layer("nwell")));
  const std::string svg = toSvg(m);
  EXPECT_NE(svg.find("<pattern"), std::string::npos);
  EXPECT_NE(svg.find("url(#p"), std::string::npos);
}

TEST(Svg, WriteFile) {
  const db::Module m = sample();
  writeSvg(m, "/tmp/amg_test.svg");
  std::ifstream f("/tmp/amg_test.svg");
  EXPECT_TRUE(f.good());
  EXPECT_THROW(writeSvg(m, "/nonexistent-dir/x.svg"), Error);
}

TEST(Cif, StructureAndUnits) {
  const db::Module m = sample();
  const std::string cif = toCif(m);
  EXPECT_NE(cif.find("DS 1 1 1;"), std::string::npos);
  EXPECT_NE(cif.find("DF;"), std::string::npos);
  EXPECT_NE(cif.find("E\n"), std::string::npos);
  // Poly layer id 10, metal1 13, contact 12 from the deck.
  EXPECT_NE(cif.find("L L10;"), std::string::npos);
  EXPECT_NE(cif.find("L L13;"), std::string::npos);
  EXPECT_NE(cif.find("L L12;"), std::string::npos);
  // Box lines count matches mask shapes (markers excluded).
  std::size_t boxes = 0;
  for (std::size_t p = cif.find("\nB "); p != std::string::npos;
       p = cif.find("\nB ", p + 1))
    ++boxes;
  EXPECT_EQ(boxes, m.shapeCount());
}

TEST(Cif, MarkersExcluded) {
  db::Module m(bicmos1u(), "x");
  m.addShape(db::makeShape(Box{0, 0, um(5), um(5)}, bicmos1u().layer("poly")));
  m.addShape(db::makeShape(Box{0, 0, um(90), um(90)}, bicmos1u().layer("guard")));
  const std::string cif = toCif(m);
  std::size_t boxes = 0;
  for (std::size_t p = cif.find("\nB "); p != std::string::npos;
       p = cif.find("\nB ", p + 1))
    ++boxes;
  EXPECT_EQ(boxes, 1u);
}

TEST(Gds, RoundTrip) {
  const db::Module m = sample();
  const auto bytes = toGds(m);
  EXPECT_GT(bytes.size(), 50u);
  const GdsLib lib = parseGds(bytes);
  EXPECT_EQ(lib.name, "AMGEN");
  EXPECT_EQ(lib.structure, "ContactRow");
  EXPECT_EQ(lib.boundaries.size(), m.shapeCount());

  // Boundaries carry the right layer ids and geometry.
  const auto& t = bicmos1u();
  std::size_t polyCount = 0;
  for (const auto& b : lib.boundaries) {
    ASSERT_EQ(b.xy.size(), 5u);
    EXPECT_EQ(b.xy.front(), b.xy.back());  // closed loop
    if (b.layer == t.info(t.layer("poly")).cifId) {
      ++polyCount;
      const Box box = Box::fromCorners(b.xy[0].x, b.xy[0].y, b.xy[2].x, b.xy[2].y);
      EXPECT_EQ(box, m.shape(m.shapesOn(t.layer("poly"))[0]).box);
    }
  }
  EXPECT_EQ(polyCount, 1u);
}

TEST(Gds, MarkersExcluded) {
  db::Module m(bicmos1u(), "x");
  m.addShape(db::makeShape(Box{0, 0, um(5), um(5)}, bicmos1u().layer("poly")));
  m.addShape(db::makeShape(Box{0, 0, um(90), um(90)}, bicmos1u().layer("guard")));
  EXPECT_EQ(parseGds(toGds(m)).boundaries.size(), 1u);
}

TEST(Gds, WriteFileAndErrors) {
  writeGds(sample(), "/tmp/amg_test.gds");
  std::ifstream f("/tmp/amg_test.gds", std::ios::binary);
  EXPECT_TRUE(f.good());
  EXPECT_THROW(writeGds(sample(), "/nonexistent-dir/x.gds"), Error);
  EXPECT_THROW(parseGds({0x00, 0x01}), Error);          // truncated
  EXPECT_THROW(parseGds(std::vector<std::uint8_t>(8, 0)), Error);  // no ENDLIB
}

// --- the module record (AMGL / AMGS) -----------------------------------------

/// Two nets, two ports, an array record, a shape removed mid-build (on a
/// layer nothing else uses) and an enclosure record whose inner shape is
/// the dead one: AMGL drops that shape, its layer and that record and
/// renumbers the shapes after it; AMGS keeps all of them verbatim.
db::Module recordModule() {
  const tech::Technology& t = bicmos1u();
  db::Module m(t, "golden");
  const db::NetId a = m.net("a");
  const db::NetId b = m.net("b");
  const tech::LayerId poly = t.layer("poly");
  const tech::LayerId metal1 = t.layer("metal1");
  const tech::LayerId contact = t.layer("contact");
  const db::ShapeId outer =
      m.addShape(db::makeShape(Box{0, 0, um(10), um(4)}, poly, a));
  db::Shape cover = db::makeShape(Box{um(1), um(1), um(9), um(3)}, metal1, a);
  cover.varEdges = db::EdgeFlags::allVariable();
  cover.avoidOverlap = true;
  const db::ShapeId inner = m.addShape(cover);
  const db::ShapeId dead =
      m.addShape(db::makeShape(Box{um(12), 0, um(14), um(2)}, t.layer("pbase"), b));
  const db::ShapeId c1 =
      m.addShape(db::makeShape(Box{um(2), um(2), um(3), um(3)}, contact, a));
  const db::ShapeId c2 =
      m.addShape(db::makeShape(Box{um(6), um(2), um(7), um(3)}, contact, a));
  m.addShape(db::makeShape(Box{um(11), um(5), um(15), um(6)}, metal1, b));
  m.addEncloseRecord({{outer}, inner});
  m.addEncloseRecord({{outer}, dead});
  m.addArrayRecord({{outer, inner}, contact, a, {c1, c2}});
  m.addPort("in", Point{0, um(2)}, poly, a);
  m.addPort("out", Point{um(15), um(5)}, metal1, b);
  m.removeShape(dead);
  return m;
}

std::uint64_t digest(const std::vector<std::uint8_t>& bytes) {
  return util::fnv1a(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

std::string codeOf(const std::function<void()>& decode) {
  try {
    decode();
  } catch (const util::DiagError& e) {
    return e.diag().code;
  }
  return "accepted";
}

/// Byte offset of the first shape in a record: both formats share the
/// header, layer table, net table and shape-count prefix.
std::size_t firstShapeOffset(const std::vector<std::uint8_t>& bytes) {
  util::WireReader r(bytes, util::Diag{});
  r.u32();  // magic
  r.u32();  // version
  r.str();  // module name
  for (std::uint32_t n = r.u32(); n > 0; --n) r.str();  // layers
  for (std::uint32_t n = r.u32(); n > 0; --n) r.str();  // nets
  r.u32();  // shape count
  return r.position();
}

TEST(ModuleRecord, GoldenBytesArePinned) {
  const db::Module m = recordModule();
  const std::vector<std::uint8_t> amgl = serializeLayout(m);
  const std::vector<std::uint8_t> amgs = serializeSessionState(m);
  EXPECT_EQ(amgl.size(), 384u);
  EXPECT_EQ(digest(amgl), 0x5c0595330e9b7663ull);
  EXPECT_EQ(amgs.size(), 445u);
  EXPECT_EQ(digest(amgs), 0xc87455bc7d08e08bull);

  const db::Module fromL = deserializeLayout(amgl, bicmos1u());
  EXPECT_EQ(serializeLayout(fromL), amgl);
  EXPECT_EQ(fromL.rawSize(), 5u);
  EXPECT_EQ(fromL.encloseRecords().size(), 1u);
  const db::Module fromS = deserializeSessionState(amgs, bicmos1u());
  EXPECT_EQ(serializeSessionState(fromS), amgs);
  EXPECT_EQ(serializeLayout(fromS), amgl);
  EXPECT_EQ(fromS.rawSize(), 6u);
  EXPECT_EQ(fromS.encloseRecords().size(), 2u);
}

TEST(ModuleRecord, HeaderErrorsCarryTheirCodes) {
  const db::Module m = recordModule();
  const std::vector<std::uint8_t> amgl = serializeLayout(m);
  const std::vector<std::uint8_t> amgs = serializeSessionState(m);
  const tech::Technology& t = bicmos1u();
  EXPECT_EQ(codeOf([&] { deserializeLayout(amgs, t); }), "AMG-IO-001");
  EXPECT_EQ(codeOf([&] { deserializeSessionState(amgl, t); }), "AMG-IO-001");
  std::vector<std::uint8_t> bumpedL = amgl;
  std::vector<std::uint8_t> bumpedS = amgs;
  ++bumpedL[4];
  ++bumpedS[4];
  EXPECT_EQ(codeOf([&] { deserializeLayout(bumpedL, t); }), "AMG-IO-002");
  EXPECT_EQ(codeOf([&] { deserializeSessionState(bumpedS, t); }), "AMG-IO-002");
}

TEST(ModuleRecord, CorruptFieldsAreRejectedWithIo003) {
  const db::Module m = recordModule();
  const tech::Technology& t = bicmos1u();
  for (const bool session : {false, true}) {
    SCOPED_TRACE(session ? "AMGS" : "AMGL");
    const std::vector<std::uint8_t> good =
        session ? serializeSessionState(m) : serializeLayout(m);
    auto decode = [&](const std::vector<std::uint8_t>& bytes) {
      return codeOf([&] {
        if (session)
          deserializeSessionState(bytes, t);
        else
          deserializeLayout(bytes, t);
      });
    };
    // A net id past the net table (the shape's u16 net follows its box and
    // layer index).
    std::vector<std::uint8_t> badNet = good;
    const std::size_t net = firstShapeOffset(good) + 4 * 8 + 4;
    badNet[net] = 0x34;
    badNet[net + 1] = 0x12;
    EXPECT_EQ(decode(badNet), "AMG-IO-003");
  }
  // An empty box (x2 := x1) is a corrupt AMGL record, not a design-rule
  // violation; AMGS takes any box its writer can produce.
  std::vector<std::uint8_t> empty = serializeLayout(m);
  const std::size_t box = firstShapeOffset(empty);
  std::copy_n(empty.begin() + static_cast<std::ptrdiff_t>(box), 8,
              empty.begin() + static_cast<std::ptrdiff_t>(box + 16));
  EXPECT_EQ(codeOf([&] { deserializeLayout(empty, t); }), "AMG-IO-003");
}

TEST(ModuleRecord, SingleByteMutantsDecodeOrRaiseDiagErrors) {
  const db::Module m = recordModule();
  const tech::Technology& t = bicmos1u();
  std::size_t accepted = 0, rejected = 0;
  for (const bool session : {false, true}) {
    const std::vector<std::uint8_t> good =
        session ? serializeSessionState(m) : serializeLayout(m);
    for (std::size_t i = 0; i < good.size(); ++i) {
      for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
        std::vector<std::uint8_t> bytes = good;
        bytes[i] ^= mask;
        const std::string what = std::string(session ? "AMGS" : "AMGL") +
                                 " byte " + std::to_string(i) + " ^ " +
                                 std::to_string(mask);
        try {
          const db::Module back = session ? deserializeSessionState(bytes, t)
                                          : deserializeLayout(bytes, t);
          ++accepted;
          if (session) (void)serializeSessionState(back);
          const std::vector<std::uint8_t> amgl = serializeLayout(back);
          try {
            (void)deserializeLayout(amgl, t);
          } catch (const util::DiagError&) {
          }
        } catch (const util::DiagError&) {
          ++rejected;
        } catch (const std::exception& e) {
          ADD_FAILURE() << what << " escaped as a non-diagnostic: " << e.what();
        }
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

/// recordModule() after a step-like change: a grown slot, a retired slot,
/// a rebuilt array record, and a net, slot, port, enclosure and array
/// record appended.  `d` names the rewritten entries.
db::Module stepped(SessionDelta& d) {
  db::Module m = recordModule();
  d = SessionDelta::startingAt(m);
  const tech::Technology& t = m.technology();
  const db::NetId c = m.net("c");
  m.shape(0).box.x2 += um(2);
  m.removeShape(3);
  const db::ShapeId cut =
      m.addShape(db::makeShape(Box{um(4), um(2), um(5), um(3)}, t.layer("contact"), 1));
  m.arrayRecords()[0].elems = {4, cut};
  const db::ShapeId wire =
      m.addShape(db::makeShape(Box{um(20), 0, um(22), um(8)}, t.layer("metal2"), c));
  m.addPort("c", Point{um(21), um(4)}, t.layer("metal2"), c);
  m.addEncloseRecord({{0}, cut});
  m.addArrayRecord({{wire}, t.layer("via"), c, {}});
  d.editedShapes = {3, 0, 0, cut};
  d.editedArrays = {0};
  return m;
}

TEST(ModuleRecord, DeltaRebuildsTheModuleItWasTakenFrom) {
  SessionDelta d;
  const db::Module after = stepped(d);
  const std::vector<std::uint8_t> delta = serializeSessionDelta(after, d);
  EXPECT_LT(delta.size(), serializeSessionState(after).size());

  db::Module rebuilt = recordModule();
  applySessionDelta(rebuilt, delta);
  EXPECT_EQ(serializeSessionState(rebuilt), serializeSessionState(after));
  // The delta rewrites retired slot 3 whole; the alive count follows it.
  EXPECT_EQ(rebuilt.shapeCount(), after.shapeCount());
  EXPECT_EQ(rebuilt.shapeCount(), rebuilt.shapeIds().size());

  // Behind a header, from an offset.
  std::vector<std::uint8_t> framed(7 + delta.size(), 0xAB);
  std::copy(delta.begin(), delta.end(), framed.begin() + 7);
  db::Module offset = recordModule();
  applySessionDelta(offset, framed, 7);
  EXPECT_EQ(serializeSessionState(offset), serializeSessionState(after));

  // A module at another length is not the one the delta extends.
  db::Module wrongBase = after;
  try {
    applySessionDelta(wrongBase, delta);
    FAIL() << "expected AMG-IO-003";
  } catch (const util::DiagError& e) {
    EXPECT_EQ(e.diag().code, "AMG-IO-003");
  }
  try {
    applySessionDelta(rebuilt, serializeSessionState(after));
    FAIL() << "expected AMG-IO-001";
  } catch (const util::DiagError& e) {
    EXPECT_EQ(e.diag().code, "AMG-IO-001");
  }
}

TEST(ModuleRecord, SessionDigestHashesTheSessionBytes) {
  SessionDelta d;
  for (const db::Module& m : {recordModule(), stepped(d), sample()}) {
    const std::vector<std::uint8_t> bytes = serializeSessionState(m);
    EXPECT_EQ(sessionStateDigest(m), util::wordHash(bytes.data(), bytes.size()));
  }
  EXPECT_NE(sessionStateDigest(recordModule()), sessionStateDigest(stepped(d)));
}

TEST(ModuleRecord, DeltaMutantsApplyOrRaiseDiagErrors) {
  SessionDelta d;
  const db::Module after = stepped(d);
  const std::vector<std::uint8_t> good = serializeSessionDelta(after, d);
  std::size_t accepted = 0, rejected = 0;
  for (std::size_t i = 0; i < good.size(); ++i) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
      std::vector<std::uint8_t> bytes = good;
      bytes[i] ^= mask;
      db::Module m = recordModule();
      try {
        applySessionDelta(m, bytes);
        ++accepted;
        (void)serializeSessionState(m);
      } catch (const util::DiagError&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "AMGD byte " << i << " ^ " << int{mask}
                      << " escaped as a non-diagnostic: " << e.what();
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace amg::io
