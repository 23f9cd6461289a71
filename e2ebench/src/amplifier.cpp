// amplifier_flow: the C++ library pipeline.  Each op builds the BiCMOS
// amplifier (amp::buildAmplifier) from a seeded AmplifierSpec variation,
// then runs DRC, the latch-up rule, connectivity extraction, device
// extraction + LVS, and exports the layout (GDSII and AMGL) to memory.
// lang, gen and capi do no work here.
#include <cstdio>

#include "amp/amplifier.h"
#include "common.h"
#include "db/connectivity.h"
#include "drc/drc.h"
#include "drc/extract.h"
#include "io/gds.h"
#include "io/layout.h"
#include "obs/obs.h"
#include "tech/builtin.h"

namespace e2e {
namespace {

constexpr int kOpsPerSecond = 8;  // op-list length per --seconds
constexpr int kWarmupOps = 3;

struct AmpOp {
  amg::amp::AmplifierSpec spec;
  std::string key;
};

/// A decimal micrometre value, exact in nanometres.
amg::Coord tenths(int t) { return static_cast<amg::Coord>(t) * 100; }

std::string keyOf(const amg::amp::AmplifierSpec& s) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "a%d/%lld,c%d/%lld,d%d/%lld,e%d/%d/%d/%lld/%lld", s.aFingers,
                static_cast<long long>(s.aW), s.cPairs, static_cast<long long>(s.cW), s.dFingers,
                static_cast<long long>(s.dW), s.ePairs, s.eCenterDummies, s.eEdgeDummies,
                static_cast<long long>(s.eW), static_cast<long long>(s.eL));
  return buf;
}

/// A balanced design: over the op list every factor takes each value of its
/// level list equally often and the widths are stratified, each column
/// shuffled on its own, so the mix is the same for every seed.  The e
/// block's pair and dummy counts set most of an op's cost (ePairs = 2
/// nearly doubles it), so they are one joint factor over all 27
/// combinations: the slowest ops, and with them the tail percentile, are
/// the same specs for every seed.  Every level list has an odd length, so
/// no factor splits the list in halves and the median op never sits on a
/// level boundary.  eL stops at 1.4 um: see README.md (known trunk-spacing
/// defect at 1.5 um).
std::vector<int> column(Rng& rng, int n, const std::vector<int>& levels) {
  std::vector<int> v;
  for (int i = 0; i < n; ++i) v.push_back(levels[i * levels.size() / n]);
  shuffle(rng, v);
  return v;
}

std::vector<int> range(int lo, int count) {
  std::vector<int> v;
  for (int i = 0; i < count; ++i) v.push_back(lo + i);
  return v;
}

std::vector<AmpOp> makeOps(const Options& o) {
  Rng rng(o.seed);
  const int n = kOpsPerSecond * o.seconds;
  const std::vector<int> aFingers = column(rng, n, {1, 2, 3}), aW = column(rng, n, range(150, 101)),
                         cPairs = column(rng, n, {1, 1, 2}), cW = column(rng, n, range(200, 101)),
                         dFingers = column(rng, n, {1, 2, 3}), dW = column(rng, n, range(100, 101)),
                         eBlock = column(rng, n, range(0, 27)), eW = column(rng, n, range(150, 101)),
                         eL = column(rng, n, range(10, 5));
  constexpr int kEPairs[] = {1, 1, 2}, kECenter[] = {2, 3, 4}, kEEdge[] = {2, 3, 4};
  std::vector<AmpOp> ops;
  for (int i = 0; i < n; ++i) {
    AmpOp op;
    amg::amp::AmplifierSpec& s = op.spec;
    s.aFingers = aFingers[i];
    s.aW = tenths(aW[i]);
    s.cPairs = cPairs[i];
    s.cW = tenths(cW[i]);
    s.dFingers = dFingers[i];
    s.dW = tenths(dW[i]);
    s.ePairs = kEPairs[eBlock[i] / 9];
    s.eCenterDummies = 2 * kECenter[eBlock[i] / 3 % 3];
    s.eEdgeDummies = kEEdge[eBlock[i] % 3];
    s.eW = tenths(eW[i]);
    s.eL = tenths(eL[i]);
    op.key = keyOf(s);
    ops.push_back(op);
  }
  return ops;
}

struct Stages {
  double generateMs = 0, assembleMs = 0, drcMs = 0, latchupMs = 0, connectivityMs = 0,
         lvsMs = 0, exportMs = 0;
  int substrateContacts = 0;
};

/// One op: the whole pipeline.  Fills `op` (digest, area, outcome).
Stages runOp(const AmpOp& spec, int index, Op& op, SpanLog& spans) {
  Stages st;
  const amg::tech::Technology& tech = amg::tech::bicmos1u();
  Scope build(spans, "amp.buildAmplifier", index);
  amg::amp::AmplifierResult res = amg::amp::buildAmplifier(tech, spec.spec);
  build.close();
  st.generateMs = res.totalSeconds * 1e3;
  st.assembleMs = res.assembleSeconds * 1e3;
  st.substrateContacts = res.substrateContacts;
  const amg::db::Module& m = res.layout;
  op.ok = true;

  Scope drcSpan(spans, "drc.check", index);
  amg::drc::CheckOptions rules;
  rules.latchUp = false;
  const bool clean = amg::drc::check(m, rules).empty();
  st.drcMs = drcSpan.close();
  if (!clean) fail(op, "layout is not DRC-clean");

  Scope latch(spans, "drc.uncoveredActive", index);
  const bool latchOk = amg::drc::uncoveredActive(m).empty();
  st.latchupMs = latch.close();
  if (!latchOk) fail(op, "latch-up rule violated");

  Scope connSpan(spans, "db.Connectivity", index);
  const amg::db::Connectivity conn(m);
  const int components = conn.componentCount();
  st.connectivityMs = connSpan.close();
  if (components <= 0) fail(op, "no connected components extracted");

  // LVS: the extracted devices must form a consistent netlist and the
  // input pair (block E) must carry 4 fingers per ABBA pair on each side.
  Scope lvsSpan(spans, "drc.lvs", index);
  const std::vector<amg::drc::ExtractedMos> devices = amg::drc::extractMos(m);
  std::vector<amg::drc::NetlistMos> netlist;
  int inp = 0, inn = 0;
  for (const amg::drc::ExtractedMos& d : devices) {
    netlist.push_back({d.gateNet, d.sourceNet, d.drainNet});
    inp += d.gateNet == "inp";
    inn += d.gateNet == "inn";
  }
  const amg::drc::LvsResult lvs = amg::drc::lvs(m, netlist);
  st.lvsMs = lvsSpan.close();
  if (!lvs.matched) fail(op, "LVS mismatch");
  if (inp != 4 * spec.spec.ePairs || inn != 4 * spec.spec.ePairs)
    fail(op, "input pair has " + std::to_string(inp) + "+" + std::to_string(inn) +
                 " fingers, schematic " + std::to_string(4 * spec.spec.ePairs) + " each");

  Scope exportSpan(spans, "io.export", index);
  const std::vector<std::uint8_t> gds = amg::io::toGds(m);
  const std::vector<std::uint8_t> amgl = amg::io::serializeLayout(m);
  st.exportMs = exportSpan.close();
  if (gds.empty()) fail(op, "empty GDSII stream");
  op.digest = digestOf(amgl);
  op.areaUm2 = areaUm2(m);
  return st;
}

double setUp(SpanLog& spans) {
  const Clock::time_point t0 = Clock::now();
  amg::tech::bicmos1u();
  for (int k = 0; k < kWarmupOps; ++k) {
    AmpOp warm;  // the default amplifier with 1..3 fingers in block A
    warm.spec.aFingers = 1 + k;
    Op op;
    runOp(warm, -1, op, spans);
    if (!op.ok) throw std::runtime_error("amplifier_flow warm-up op failed: " + op.why);
  }
  return msSince(t0) / 1e3;
}

struct PassOut {
  std::vector<Op> ops;
  std::vector<Stages> stages;
  double wallS = 0;
};

PassOut runPass(const std::vector<AmpOp>& ops, SpanLog& spans) {
  PassOut out;
  out.ops.resize(ops.size());
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Op& op = out.ops[i];
    op.key = ops[i].key;
    const Clock::time_point t = Clock::now();
    try {
      out.stages.push_back(runOp(ops[i], static_cast<int>(i), op, spans));
    } catch (const std::exception& e) {
      out.stages.push_back({});
      fail(op, std::string("pipeline threw: ") + e.what());
    }
    op.latencyMs = msSince(t);
  }
  out.wallS = msSince(t0) / 1e3;
  return out;
}

}  // namespace

Result runAmplifierFlow(const Options& o) {
  const std::vector<AmpOp> ops = makeOps(o);
  Result r;
  SpanLog spans;
  if (!o.trace) {
    std::vector<double> setupS;
    std::vector<std::vector<double>> latency;
    for (int round = 0; round < kSetUps; ++round) {
      setupS.push_back(setUp(spans));
      if (round >= kRounds) continue;
      PassOut pass = runPass(ops, spans);
      std::vector<double> ms;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        ms.push_back(pass.ops[i].latencyMs);
        if (round > 0 && pass.ops[i].digest != r.ops[i].digest) {
          r.deterministic = false;
          fail(pass.ops[i], "digest drifted between rounds");
        }
      }
      latency.push_back(ms);
      r.ops.insert(r.ops.end(), pass.ops.begin(), pass.ops.end());
    }
    r.setupS = median(setupS);
    r.peakRssMb = peakRssMb();
    medianOverRounds(latency, r);
    return r;
  }

  setUp(spans);
  const PassOut untraced = runPass(ops, spans);
  amg::obs::enableStats(true);
  spans.enabled = true;
  amg::obs::Stats::global().reset();
  PassOut pass = runPass(ops, spans);
  const amg::obs::Stats& st = amg::obs::Stats::global();
  const double steps = static_cast<double>(st.value("compact.steps"));
  const double cand = static_cast<double>(st.value("compact.constraints.candidates"));
  const double emitted = static_cast<double>(st.value("compact.constraints.emitted"));
  const double queries = static_cast<double>(st.value("spatial.queries"));
  const double spatialCand = static_cast<double>(st.value("spatial.candidates"));
  amg::obs::enableStats(false);

  r.ops = std::move(pass.ops);
  for (std::size_t i = 0; i < ops.size(); ++i)
    if (untraced.ops[i].digest != r.ops[i].digest) {
      r.deterministic = false;
      fail(r.ops[i], "digest drifted between the untraced and traced pass");
    }
  auto stage = [&](double Stages::*field) {
    std::vector<double> v;
    for (const Stages& s : pass.stages) v.push_back(s.*field);
    return median(v);
  };
  double contacts = 0;
  for (const Stages& s : pass.stages) contacts += s.substrateContacts;
  const double n = static_cast<double>(ops.size());
  const std::size_t N = ops.size();
  r.layer = {
      {"amp.generate_ms", stage(&Stages::generateMs), "ms", N},
      {"amp.assemble_ms", stage(&Stages::assembleMs), "ms", N},
      {"drc.check_ms", stage(&Stages::drcMs), "ms", N},
      {"drc.latchup_ms", stage(&Stages::latchupMs), "ms", N},
      {"drc.lvs_ms", stage(&Stages::lvsMs), "ms", N},
      {"db.connectivity_ms", stage(&Stages::connectivityMs), "ms", N},
      {"io.export_ms", stage(&Stages::exportMs), "ms", N},
      {"drc.substrate_contacts", contacts / n, "count", N, true},
      {"compact.steps_per_op", steps / n, "count", N, true},
      {"compact.constraint_yield", cand > 0 ? emitted / cand : 0, "1", N, true},
      {"geom.spatial_queries_per_step", steps > 0 ? queries / steps : 0, "count", N, true},
      {"geom.spatial_candidates_per_step", steps > 0 ? spatialCand / steps : 0, "count", N, true},
      {"geom.spatial_queries_per_op", queries / n, "count", N, true},
      {"obs.trace_overhead_pct", (pass.wallS / untraced.wallS - 1) * 100, "%", 2},
  };
  spans.write(o.workDir + "/../amplifier_flow-seed" + std::to_string(o.seed) + "-spans.json");
  return r;
}

}  // namespace e2e
