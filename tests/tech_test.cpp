// Tests for the technology engine: rule queries, built-in decks, and the
// technology-file round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>

#include "tech/builtin.h"
#include "tech/techfile.h"
#include "util/hash.h"

namespace amg::tech {
namespace {

TEST(Builtin, Bicmos1uLayers) {
  const Technology& t = bicmos1u();
  EXPECT_EQ(t.name(), "bicmos1u");
  for (const char* name : {"nwell", "pdiff", "ndiff", "ptie", "poly", "contact",
                           "metal1", "via", "metal2", "pbase", "nplus", "guard"})
    EXPECT_TRUE(t.findLayer(name).has_value()) << name;
  EXPECT_FALSE(t.findLayer("metal9").has_value());
  EXPECT_THROW((void)t.layer("metal9"), DesignRuleError);
}

TEST(Builtin, RuleQueries) {
  const Technology& t = bicmos1u();
  EXPECT_EQ(t.minWidth(t.layer("poly")), 1000);
  EXPECT_EQ(t.minSpacing(t.layer("poly"), t.layer("poly")), 1200);
  // Order-insensitive spacing.
  EXPECT_EQ(t.minSpacing(t.layer("pdiff"), t.layer("ndiff")),
            t.minSpacing(t.layer("ndiff"), t.layer("pdiff")));
  // No rule between poly and diffusion: the MOS gate forms by overlap.
  EXPECT_FALSE(t.minSpacing(t.layer("poly"), t.layer("pdiff")).has_value());
  // Enclosure is directional.
  EXPECT_EQ(t.enclosure(t.layer("metal1"), t.layer("contact")), 600);
  EXPECT_FALSE(t.enclosure(t.layer("contact"), t.layer("metal1")).has_value());
  // Extensions (gate formation).
  EXPECT_EQ(t.extension(t.layer("poly"), t.layer("pdiff")), 1200);
  EXPECT_EQ(t.extension(t.layer("pdiff"), t.layer("poly")), 2400);
  // Cut geometry.
  const auto [cw, ch] = t.cutSize(t.layer("contact"));
  EXPECT_EQ(cw, 1000);
  EXPECT_EQ(ch, 1000);
  EXPECT_EQ(t.minWidth(t.layer("contact")), 1000);
  EXPECT_THROW((void)t.cutSize(t.layer("poly")), DesignRuleError);
}

TEST(Builtin, Connectivity) {
  const Technology& t = bicmos1u();
  EXPECT_TRUE(t.cutConnects(t.layer("contact"), t.layer("poly"), t.layer("metal1")));
  EXPECT_TRUE(t.cutConnects(t.layer("contact"), t.layer("metal1"), t.layer("poly")));
  EXPECT_FALSE(t.cutConnects(t.layer("contact"), t.layer("metal1"), t.layer("metal2")));
  EXPECT_TRUE(t.cutConnects(t.layer("via"), t.layer("metal1"), t.layer("metal2")));
  const auto cuts = t.cutsBetween(t.layer("poly"), t.layer("metal1"));
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_EQ(cuts[0], t.layer("contact"));
}

TEST(Builtin, LatchUpConfig) {
  const Technology& t = bicmos1u();
  EXPECT_EQ(t.latchUpRadius(), 50000);
  EXPECT_EQ(t.guardLayer(), t.layer("guard"));
  EXPECT_EQ(t.substrateTieLayer(), t.layer("ptie"));
  const auto actives = t.activeLayers();
  EXPECT_EQ(actives.size(), 3u);  // pdiff, ndiff, ptie
}

TEST(Builtin, Cmos2uIsScaled) {
  const Technology& c = cmos2u();
  const Technology& b = bicmos1u();
  EXPECT_EQ(c.minWidth(c.layer("poly")), 2 * b.minWidth(b.layer("poly")));
  EXPECT_EQ(*c.minSpacing(c.layer("metal1"), c.layer("metal1")),
            2 * *b.minSpacing(b.layer("metal1"), b.layer("metal1")));
  // No bipolar layers in the CMOS deck.
  EXPECT_FALSE(c.findLayer("pbase").has_value());
  EXPECT_FALSE(c.findLayer("nplus").has_value());
}

TEST(Technology, DuplicateLayerRejected) {
  Technology t("x");
  t.addLayer(LayerInfo{"m", LayerKind::Metal, 1, "#fff", "solid", true});
  EXPECT_THROW(t.addLayer(LayerInfo{"m", LayerKind::Metal, 2, "#fff", "solid", true}),
               DesignRuleError);
}

TEST(Technology, MissingWidthThrows) {
  Technology t("x");
  const LayerId m = t.addLayer(LayerInfo{"m", LayerKind::Metal, 1, "#fff", "solid", true});
  EXPECT_THROW((void)t.minWidth(m), DesignRuleError);
  EXPECT_FALSE(t.findMinWidth(m).has_value());
}

// ---------------------------------------------------------------------------
// Golden rule answers
// ---------------------------------------------------------------------------

std::uint64_t chain(std::uint64_t h, std::optional<Coord> v) {
  h = util::fnv1a(v.has_value() ? 1u : 0u, h);
  return util::fnv1a(static_cast<std::uint64_t>(v.value_or(0)), h);
}

/// FNV-1a over every rule answer of `t`: per layer the min width, cut size
/// and spacing halo, per ordered layer pair spacing, enclosure, extension
/// and the device-forming test.
std::uint64_t ruleDigest(const Technology& t) {
  std::uint64_t h = util::kFnvBasis;
  const auto n = static_cast<LayerId>(t.layerCount());
  for (LayerId a = 0; a < n; ++a) {
    h = chain(h, t.findMinWidth(a));
    const auto cut = t.findCutSize(a);
    h = chain(h, cut ? std::optional<Coord>(cut->first) : std::nullopt);
    h = chain(h, cut ? std::optional<Coord>(cut->second) : std::nullopt);
    h = chain(h, t.maxSpacing(a));
    for (LayerId b = 0; b < n; ++b) {
      h = chain(h, t.minSpacing(a, b));
      h = chain(h, t.enclosure(a, b));
      h = chain(h, t.extension(a, b));
      h = util::fnv1a(t.formsDevice(a, b) ? 1u : 0u, h);
    }
  }
  return h;
}

constexpr std::uint64_t kBicmos1uRules = 0x77abd2be420a0d62ull;
constexpr std::uint64_t kBicmos1uFingerprint = 0xacc7d562e88f2d6dull;
constexpr std::uint64_t kCmos2uRules = 0x2a2775e6939ccaedull;
constexpr std::uint64_t kCmos2uFingerprint = 0xe1f5e4c5d5b6bc8dull;

// Pins every rule answer of both shipped decks, built in and parsed from
// tech/, so a change to how Technology stores its rules cannot move one.
TEST(Technology, GoldenRuleAnswers) {
  const struct {
    const Technology& builtin;
    const char* file;
    std::uint64_t rules, fingerprint;
  } decks[] = {
      {bicmos1u(), AMG_REPO_DIR "/tech/bicmos1u.tech", kBicmos1uRules,
       kBicmos1uFingerprint},
      {cmos2u(), AMG_REPO_DIR "/tech/cmos2u.tech", kCmos2uRules, kCmos2uFingerprint},
  };
  for (const auto& d : decks) {
    const Technology parsed = loadTechFile(d.file);
    for (const Technology* t : {&d.builtin, &parsed}) {
      SCOPED_TRACE(d.file);
      EXPECT_EQ(ruleDigest(*t), d.rules) << std::hex << ruleDigest(*t);
      EXPECT_EQ(t->contentFingerprint(), d.fingerprint)
          << std::hex << t->contentFingerprint();
    }
  }
}

TEST(Technology, CutConnectionsPerCutInDeclarationOrder) {
  using Pairs = std::vector<std::pair<LayerId, LayerId>>;
  auto pairsOf = [](const Technology& t, LayerId cut) {
    const auto span = t.cutConnections(cut);
    return Pairs(span.begin(), span.end());
  };
  Technology t("toy");
  const LayerId a = t.addLayer({"a", LayerKind::Metal, 1, "#000", "solid", true});
  const LayerId cut1 = t.addLayer({"c1", LayerKind::Cut, 2, "#000", "solid", true});
  const LayerId b = t.addLayer({"b", LayerKind::Metal, 3, "#000", "solid", true});
  const LayerId cut2 = t.addLayer({"c2", LayerKind::Cut, 4, "#000", "solid", true});
  // Declared interleaved across the cuts: each cut keeps its own order.
  t.addCutConnection(cut2, b, a);
  t.addCutConnection(cut1, a, b);
  t.addCutConnection(cut2, a, cut1);
  EXPECT_EQ(pairsOf(t, cut1), (Pairs{{a, b}}));
  EXPECT_EQ(pairsOf(t, cut2), (Pairs{{b, a}, {a, cut1}}));
  EXPECT_TRUE(pairsOf(t, a).empty());
  EXPECT_TRUE(pairsOf(t, 99).empty()) << "an id outside the deck joins nothing";
  EXPECT_TRUE(t.cutConnects(cut2, cut1, a));
  EXPECT_FALSE(t.cutConnects(cut1, a, cut1));
  // A layer added later leaves the table intact.
  const LayerId c = t.addLayer({"c", LayerKind::Metal, 5, "#000", "solid", true});
  EXPECT_EQ(pairsOf(t, cut2), (Pairs{{b, a}, {a, cut1}}));
  EXPECT_TRUE(pairsOf(t, c).empty());
  EXPECT_EQ(t.cutsBetween(a, b), (std::vector<LayerId>{cut2, cut1}));
}

TEST(Technology, MutationOfEveryRuleKind) {
  Technology t("toy");
  const LayerId m1 = t.addLayer({"m1", LayerKind::Metal, 1, "#000", "solid", true});
  const LayerId via = t.addLayer({"v", LayerKind::Cut, 2, "#000", "solid", true});
  const LayerId m2 = t.addLayer({"m2", LayerKind::Metal, 3, "#000", "solid", true});

  EXPECT_EQ(t.findCutSize(via), std::nullopt);
  EXPECT_THROW((void)t.cutSize(via), DesignRuleError);
  t.setCutSize(via, 500, 400);
  const std::optional<std::pair<Coord, Coord>> wantCut(std::in_place, 500, 400);
  EXPECT_EQ(t.findCutSize(via), wantCut);
  EXPECT_EQ(t.findMinWidth(via), std::optional<Coord>(400)) << "cut width fallback";

  // Every further mutation must also move the memoized fingerprint.
  std::uint64_t fp = t.contentFingerprint();
  auto fingerprintMoved = [&] {
    const std::uint64_t old = std::exchange(fp, t.contentFingerprint());
    return fp != old;
  };

  EXPECT_EQ(t.findMinWidth(m1), std::nullopt);
  t.setMinWidth(m1, 600);
  EXPECT_EQ(t.findMinWidth(m1), std::optional<Coord>(600));
  EXPECT_TRUE(fingerprintMoved());

  EXPECT_EQ(t.minSpacing(m1, m2), std::nullopt);
  EXPECT_EQ(t.maxSpacing(m1), 0);
  t.setMinSpacing(m1, m2, 800);
  EXPECT_EQ(t.minSpacing(m1, m2), std::optional<Coord>(800));
  EXPECT_EQ(t.minSpacing(m2, m1), std::optional<Coord>(800)) << "spacing is symmetric";
  EXPECT_EQ(t.maxSpacing(m1), 800);
  EXPECT_EQ(t.maxSpacing(m2), 800);
  t.setMinSpacing(m2, m1, 500);
  EXPECT_EQ(t.maxSpacing(m1), 500) << "an overwritten spacing lowers the halo";
  EXPECT_EQ(t.maxSpacing(m2), 500);
  EXPECT_TRUE(fingerprintMoved());

  t.setEnclosure(m1, via, 200);
  EXPECT_EQ(t.enclosure(m1, via), std::optional<Coord>(200));
  EXPECT_EQ(t.enclosure(via, m1), std::nullopt) << "enclosure is ordered";
  EXPECT_TRUE(fingerprintMoved());

  t.setExtension(m1, m2, 300);
  EXPECT_EQ(t.extension(m1, m2), std::optional<Coord>(300));
  EXPECT_EQ(t.extension(m2, m1), std::nullopt) << "extension is ordered";
  EXPECT_TRUE(t.formsDevice(m1, m2));
  EXPECT_TRUE(t.formsDevice(m2, m1));
  EXPECT_FALSE(t.formsDevice(m1, via));
  EXPECT_TRUE(fingerprintMoved());

  t.addCutConnection(via, m1, m2);
  EXPECT_TRUE(fingerprintMoved());
  t.setLatchUpRadius(9000);
  EXPECT_TRUE(fingerprintMoved());
  t.setSubstrateTieLayer(m1);
  EXPECT_TRUE(fingerprintMoved());
  t.setGuardLayer(m2);
  EXPECT_TRUE(fingerprintMoved());

  // addLayer re-lays the pair tables: every old cell keeps its answer.
  const LayerId m3 = t.addLayer({"m3", LayerKind::Metal, 4, "#000", "solid", true});
  EXPECT_TRUE(fingerprintMoved());
  EXPECT_EQ(t.findMinWidth(m1), std::optional<Coord>(600));
  EXPECT_EQ(t.minSpacing(m1, m2), std::optional<Coord>(500));
  EXPECT_EQ(t.enclosure(m1, via), std::optional<Coord>(200));
  EXPECT_EQ(t.extension(m1, m2), std::optional<Coord>(300));
  EXPECT_EQ(t.findCutSize(via), wantCut);
  EXPECT_EQ(t.maxSpacing(m1), 500);
  EXPECT_EQ(t.findMinWidth(m3), std::nullopt);
  EXPECT_EQ(t.maxSpacing(m3), 0);
  for (LayerId l = 0; l <= m3; ++l) {
    EXPECT_EQ(t.minSpacing(l, m3), std::nullopt) << l;
    EXPECT_EQ(t.enclosure(m3, l), std::nullopt) << l;
    EXPECT_FALSE(t.formsDevice(l, m3)) << l;
  }

  // A setter rejects an id outside the deck instead of writing past it.
  EXPECT_THROW(t.setMinSpacing(m1, kNoLayer, 1), DesignRuleError);
  EXPECT_THROW(t.setMinWidth(static_cast<LayerId>(m3 + 1), 1), DesignRuleError);
}

TEST(Technology, CopyIsIndependentAfterMutation) {
  Technology a = loadTechFile(AMG_REPO_DIR "/tech/bicmos1u.tech");
  const std::uint64_t before = a.contentFingerprint();  // memoized pre-copy
  Technology b = a;
  b.setMinSpacing(0, 1, 77777);
  EXPECT_EQ(b.minSpacing(0, 1), std::optional<Coord>(77777));
  EXPECT_EQ(b.maxSpacing(0), 77777);
  EXPECT_NE(b.contentFingerprint(), before);
  EXPECT_EQ(a.minSpacing(0, 1), bicmos1u().minSpacing(0, 1))
      << "mutating the copy must not disturb the original";
  EXPECT_EQ(a.contentFingerprint(), before);
  EXPECT_EQ(ruleDigest(a), kBicmos1uRules);
}

// ---------------------------------------------------------------------------
// Tech file format
// ---------------------------------------------------------------------------

TEST(TechFile, ParseMinimal) {
  const Technology t = parseTechString(R"(
tech mini
unit nm
layer metal1 metal cif=13 color=#4f6fcf pattern=solid conducting
layer via cut cif=14
width metal1 1600         # a comment
space metal1 metal1 1200
cutsize via 1200 1200
)");
  EXPECT_EQ(t.name(), "mini");
  EXPECT_EQ(t.minWidth(t.layer("metal1")), 1600);
  EXPECT_TRUE(t.info(t.layer("metal1")).conducting);
  EXPECT_FALSE(t.info(t.layer("via")).conducting);
  EXPECT_EQ(t.info(t.layer("metal1")).cifId, 13);
}

TEST(TechFile, RoundTripBuiltin) {
  const Technology& orig = bicmos1u();
  const std::string text = saveTechFile(orig);
  const Technology back = parseTechString(text, "roundtrip");

  EXPECT_EQ(back.name(), orig.name());
  ASSERT_EQ(back.layerCount(), orig.layerCount());
  for (LayerId l = 0; l < orig.layerCount(); ++l) {
    EXPECT_EQ(back.info(l).name, orig.info(l).name);
    EXPECT_EQ(back.info(l).kind, orig.info(l).kind);
    EXPECT_EQ(back.info(l).conducting, orig.info(l).conducting);
    EXPECT_EQ(back.findMinWidth(l), orig.findMinWidth(l));
    for (LayerId k = 0; k < orig.layerCount(); ++k) {
      EXPECT_EQ(back.minSpacing(l, k), orig.minSpacing(l, k));
      EXPECT_EQ(back.enclosure(l, k), orig.enclosure(l, k));
      EXPECT_EQ(back.extension(l, k), orig.extension(l, k));
    }
  }
  EXPECT_EQ(back.latchUpRadius(), orig.latchUpRadius());
  EXPECT_EQ(back.guardLayer(), orig.guardLayer());
  EXPECT_EQ(back.substrateTieLayer(), orig.substrateTieLayer());
  EXPECT_TRUE(back.cutConnects(back.layer("contact"), back.layer("poly"),
                               back.layer("metal1")));
}

TEST(TechFile, ErrorsCarryLineNumbers) {
  try {
    (void)parseTechString("tech x\nbogus directive\n", "f.tech");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("f.tech:2"), std::string::npos) << e.what();
  }
}

TEST(TechFile, TechMustComeFirst) {
  EXPECT_THROW((void)parseTechString("width m 5\n"), Error);
  EXPECT_THROW((void)parseTechString(""), Error);
  EXPECT_THROW((void)parseTechString("tech a\ntech b\n"), Error);
}

TEST(TechFile, UnknownLayerInRule) {
  EXPECT_THROW((void)parseTechString("tech x\nwidth nosuch 5\n"), Error);
}

TEST(TechFile, BadValue) {
  EXPECT_THROW((void)parseTechString("tech x\nlayer m metal\nwidth m abc\n"), Error);
}

}  // namespace
}  // namespace amg::tech
