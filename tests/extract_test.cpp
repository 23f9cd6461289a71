// Tests for device extraction and the LVS comparison.
#include <gtest/gtest.h>

#include "amp/amplifier.h"
#include "db/connectivity.h"
#include "drc/drc.h"
#include "drc/extract.h"
#include "modules/basic.h"
#include "modules/centroid.h"
#include "modules/interdigitated.h"
#include "obs/obs.h"
#include "opt/optimizer.h"
#include "oracle/spatial.h"
#include "tech/builtin.h"

namespace amg::drc {
namespace {

using tech::bicmos1u;

const tech::Technology& T() { return bicmos1u(); }

TEST(Extract, SingleTransistor) {
  modules::MosSpec spec;
  spec.w = um(10);
  spec.l = um(2);
  const db::Module m = modules::mosTransistor(T(), spec);
  const auto devs = extractMos(m);
  ASSERT_EQ(devs.size(), 1u);
  EXPECT_EQ(devs[0].gateNet, "g");
  EXPECT_EQ(devs[0].sourceNet, "d");  // canonical order: d < s
  EXPECT_EQ(devs[0].drainNet, "s");
  EXPECT_EQ(devs[0].w, um(10));
  EXPECT_EQ(devs[0].l, um(2));
  EXPECT_EQ(devs[0].diffLayer, "pdiff");
}

TEST(Extract, DiffPairTwoDevices) {
  modules::DiffPairSpec spec;
  spec.w = um(10);
  spec.l = um(2);
  const db::Module m = modules::diffPair(T(), spec);
  const auto devs = extractMos(m);
  ASSERT_EQ(devs.size(), 2u);

  const auto res = lvs(m, {{"inp", "outa", "tail"}, {"inn", "tail", "outb"}});
  EXPECT_TRUE(res.matched) << (res.messages.empty() ? "" : res.messages[0]);
  EXPECT_EQ(res.layoutDevices, 2);
}

TEST(Extract, LvsSourceDrainSymmetric) {
  modules::DiffPairSpec spec;
  spec.w = um(10);
  spec.l = um(2);
  const db::Module m = modules::diffPair(T(), spec);
  // Swapped source/drain must still match.
  EXPECT_TRUE(lvs(m, {{"inp", "tail", "outa"}, {"inn", "outb", "tail"}}).matched);
}

TEST(Extract, LvsDetectsWrongNetlist) {
  modules::DiffPairSpec spec;
  spec.w = um(10);
  spec.l = um(2);
  const db::Module m = modules::diffPair(T(), spec);
  const auto res = lvs(m, {{"inp", "outa", "tail"}, {"inn", "tail", "WRONG"}});
  EXPECT_FALSE(res.matched);
  ASSERT_EQ(res.messages.size(), 2u);  // one missing, one extra
  EXPECT_NE(res.messages[0].find("missing"), std::string::npos);
}

TEST(Extract, LvsDetectsMissingDevice) {
  modules::MosSpec spec;
  spec.w = um(10);
  spec.l = um(2);
  const db::Module m = modules::mosTransistor(T(), spec);
  const auto res = lvs(m, {{"g", "s", "d"}, {"g2", "x", "y"}});
  EXPECT_FALSE(res.matched);
  EXPECT_EQ(res.layoutDevices, 1);
  EXPECT_EQ(res.netlistDevices, 2);
}

TEST(Extract, InterdigitatedCountsFingers) {
  modules::InterdigSpec spec;
  spec.w = um(12);
  spec.l = um(1);
  spec.fingers = 4;
  const db::Module m = modules::interdigitatedMos(T(), spec);
  const auto devs = extractMos(m);
  ASSERT_EQ(devs.size(), 4u);
  std::vector<NetlistMos> wanted(4, NetlistMos{"g", "s", "d"});
  EXPECT_TRUE(lvs(m, wanted).matched);
}

TEST(Extract, CurrentMirrorTopology) {
  modules::MirrorSpec spec;
  spec.w = um(15);
  spec.l = um(2);
  const db::Module m = modules::currentMirror(T(), spec);
  // Fingers [out, diode, diode, out]: two output devices, two diode
  // devices whose gate equals the input net.
  const auto res = lvs(m, {{"iin", "vss", "iout"},
                           {"iin", "vss", "iin"},
                           {"iin", "vss", "iin"},
                           {"iin", "vss", "iout"}});
  EXPECT_TRUE(res.matched) << (res.messages.empty() ? "" : res.messages[0]);
}

TEST(Extract, CentroidPairDevices) {
  modules::CentroidSpec spec;
  spec.w = um(12);
  spec.l = um(1);
  const db::Module m = modules::centroidDiffPair(T(), spec);
  const auto devs = extractMos(m);
  // 8 active fingers + 16 dummies.
  EXPECT_EQ(devs.size(), 24u);

  std::vector<NetlistMos> wanted;
  for (int i = 0; i < 4; ++i) wanted.push_back({"inp", "tail", "outa"});
  for (int i = 0; i < 4; ++i) wanted.push_back({"inn", "tail", "outb"});
  // Dummy gates are tied to the source net; exclude them from the match.
  const auto res = lvs(m, wanted, {"tail"});
  EXPECT_TRUE(res.matched) << (res.messages.empty() ? "" : res.messages[0]);
}

TEST(Extract, ModuleEOfAmplifier) {
  const db::Module e = amp::buildModuleE(T());
  std::vector<NetlistMos> wanted;
  for (int i = 0; i < 4; ++i) wanted.push_back({"inp", "e_tail", "e_outa"});
  for (int i = 0; i < 4; ++i) wanted.push_back({"inn", "e_tail", "e_outb"});
  const auto res = lvs(e, wanted, {"e_tail"});
  EXPECT_TRUE(res.matched) << (res.messages.empty() ? "" : res.messages[0]);
}

TEST(Extract, OptimizedModuleKeepsTopology) {
  // The optimizer permutes compaction orders; the electrical topology must
  // survive every order (LVS as the invariant).
  opt::BuildPlan plan(modules::mosTransistor(T(), [] {
    modules::MosSpec s;
    s.w = um(10);
    s.l = um(2);
    return s;
  }()));
  modules::ContactRowSpec rc;
  rc.layer = "pdiff";
  rc.l = um(10);
  rc.net = "d2";
  plan.steps.emplace_back(modules::contactRow(T(), rc), Dir::West,
                          compact::Options{{T().layer("pdiff")}, true, true, 0});

  const auto res = opt::optimizeOrder(plan);
  const auto devs = extractMos(res.best);
  ASSERT_EQ(devs.size(), 1u);
  EXPECT_EQ(devs[0].gateNet, "g");
}

// ---------------------------------------------------------------------------
// Sign-off shares one connectivity per module snapshot
// ---------------------------------------------------------------------------

TEST(SignOff, OneConnectivityBuildPerAmplifier) {
  amp::AmplifierSpec spec;
  spec.ePairs = 2;
  const amp::AmplifierResult res = amp::buildAmplifier(T(), spec);
  const db::Module& m = res.layout;
  const bool wasOn = obs::statsEnabled();
  obs::enableStats(true);
  const obs::Stats& st = obs::Stats::global();
  const std::uint64_t builds0 = st.value("connectivity.builds");
  const std::uint64_t reused0 = st.value("connectivity.reused");
  const std::uint64_t indexBuilds0 = st.value("db.index.builds");
  const std::uint64_t inserts0 = st.value("spatial.inserts");

  EXPECT_TRUE(check(m).empty());
  EXPECT_TRUE(uncoveredActive(m).empty());
  const db::Connectivity conn(m);
  EXPECT_GT(conn.componentCount(), 0);
  const std::vector<ExtractedMos> devs = extractMos(m);
  std::vector<NetlistMos> netlist;
  for (const ExtractedMos& d : devs) netlist.push_back({d.gateNet, d.sourceNet, d.drainNet});
  EXPECT_TRUE(lvs(m, netlist).matched);

  EXPECT_EQ(st.value("connectivity.builds") - builds0, 1u);
  EXPECT_GE(st.value("connectivity.reused") - reused0, 3u);  // conn, extractMos, lvs
  // One shape index serves the whole sign-off: the one
  // insertSubstrateContacts parked.  What is inserted is connectivity's
  // node-level index, about one entry per shape, not an index per checker.
  EXPECT_EQ(st.value("db.index.builds") - indexBuilds0, 0u);
  EXPECT_LT(st.value("spatial.inserts") - inserts0, 2 * m.shapeCount());
  obs::enableStats(wasOn);
}

/// The amplifier and the gallery modules the sign-off runs on.
std::vector<std::pair<std::string, db::Module>> signOffModules() {
  std::vector<std::pair<std::string, db::Module>> out;
  out.emplace_back("amplifier", amp::buildAmplifier(T()).layout);
  out.emplace_back("moduleE", amp::buildModuleE(T()));
  modules::MosSpec mos;
  mos.w = um(10);
  mos.l = um(2);
  out.emplace_back("mos", modules::mosTransistor(T(), mos));
  modules::DiffPairSpec dp;
  dp.w = um(10);
  dp.l = um(2);
  out.emplace_back("diffPair", modules::diffPair(T(), dp));
  modules::InterdigSpec id;
  id.w = um(12);
  id.l = um(1);
  id.fingers = 4;
  out.emplace_back("interdig", modules::interdigitatedMos(T(), id));
  modules::MirrorSpec mir;
  mir.w = um(15);
  mir.l = um(2);
  out.emplace_back("mirror", modules::currentMirror(T(), mir));
  modules::CentroidSpec cen;
  cen.w = um(12);
  cen.l = um(1);
  out.emplace_back("centroid", modules::centroidDiffPair(T(), cen));
  return out;
}

TEST(SignOff, ConnectivityEqualsBruteForce) {
  for (const auto& [name, m] : signOffModules()) {
    const db::Connectivity ci(m);
    const oracle::BruteConnectivity cb(m);
    ASSERT_EQ(ci.componentCount(), cb.componentCount()) << name;
    EXPECT_EQ(ci.components(), cb.components()) << name;
    for (int c = 0; c < ci.componentCount(); ++c)
      EXPECT_EQ(ci.netNameOf(c), cb.netNameOf(c)) << name << " component " << c;
    // Probe each shape at its centre and just inside each side: on a gated
    // diffusion these land on the fragments either side of a channel.
    for (const db::ShapeId id : m.shapeIds()) {
      const Box& b = m.shape(id).box;
      const Point c = b.center();
      for (const Point p : {c, Point{b.x1 + 1, c.y}, Point{b.x2 - 1, c.y},
                            Point{c.x, b.y1 + 1}, Point{c.x, b.y2 - 1}})
        EXPECT_EQ(ci.componentAt(id, p), cb.componentAt(id, p)) << name << " shape " << id;
    }
  }
}

TEST(SignOff, DevicesEqualBruteForce) {
  for (const auto& [name, m] : signOffModules()) {
    const std::vector<ExtractedMos> fast = extractMos(m);
    const std::vector<ExtractedMos> brute = oracle::bruteExtractMos(m);
    ASSERT_EQ(fast.size(), brute.size()) << name;
    EXPECT_FALSE(fast.empty()) << name;
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].gateNet, brute[i].gateNet) << name << " #" << i;
      EXPECT_EQ(fast[i].sourceNet, brute[i].sourceNet) << name << " #" << i;
      EXPECT_EQ(fast[i].drainNet, brute[i].drainNet) << name << " #" << i;
      EXPECT_EQ(fast[i].diffLayer, brute[i].diffLayer) << name << " #" << i;
      EXPECT_EQ(fast[i].w, brute[i].w) << name << " #" << i;
      EXPECT_EQ(fast[i].l, brute[i].l) << name << " #" << i;
    }
  }
}

}  // namespace
}  // namespace amg::drc
