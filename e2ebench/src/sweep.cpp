// sweep_cold: a cold DSL manifest sweep on an in-process gen::BatchEngine
// (production defaults, one worker).  Each op is one entity-mode job of the
// row-of-cells Sweep entity; `rows` is drawn log-uniformly (stratified) and
// the first compaction step carries a per-op width, so no layout-cache or
// prefix-cache entry can ever hit.  Cost is dominated by compact/geom.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>

#include "common.h"
#include "compact/compactor.h"
#include "drc/drc.h"
#include "gen/engine.h"
#include "lang/compiler.h"
#include "obs/obs.h"
#include "tech/builtin.h"

namespace e2e {
namespace {

// Cell is cheap to build (no inner compaction), so an op's cost is the
// successive compaction of the growing row.  Start and Cell are also what
// the direct compaction probe assembles.
const char* kSweepScript = R"(
ENT Cell(<W>, <L>)
  TWORECTS("poly", "pdiff", W, L)
  INBOX("metal1")

ENT Start()
  INBOX("pdiff", 4, 4)

ENT Sweep(rows, <W0>)
  INBOX("pdiff", 4, 4)
  first = Cell(W = W0, L = 2)
  compact(first, EAST, "poly")
  FOR k = 1 TO rows DO
    c = Cell(W = 6, L = 2)
    compact(c, EAST, "poly")
  ENDFOR
  tail = Cell(W = 6, L = 2)
  compact(tail, EAST, "poly")
)";

constexpr double kRowsLo = 40, kRowsHi = 140;
constexpr int kOpsPerSecond = 5;  // op-list length per --seconds
// Warm-up ops run during set-up and are not timed; their first-step widths
// (4.x um) never coincide with a timed op's (>= 5.1 um).
constexpr int kWarmupRows[] = {60, 70, 80, 90};

struct SweepOp {
  int rows;
  std::string w0;
  std::string key;
};

/// The row counts come from the seed; op i gets the first-step width
/// 5.1 + 0.1 * i um, unique in the list.  Every round runs this same list
/// on a fresh engine, whose caches start empty.
std::vector<SweepOp> makeOps(const Options& o) {
  Rng rng(o.seed);
  const int n = kOpsPerSecond * o.seconds;
  std::vector<double> rows = stratifiedLogUniform(rng, n, kRowsLo, kRowsHi);
  shuffle(rng, rows);
  std::vector<SweepOp> ops;
  for (int i = 0; i < n; ++i) {
    SweepOp op;
    op.rows = static_cast<int>(std::lround(rows[i]));
    op.w0 = decimal(5.1 + 0.1 * i);
    op.key = "rows=" + std::to_string(op.rows) + ",W0=" + op.w0;
    ops.push_back(op);
  }
  return ops;
}

amg::gen::Job job(const std::string& script, const std::string& name, const std::string& entity,
                  std::vector<std::pair<std::string, std::string>> params) {
  amg::gen::Job j;
  j.name = name;
  j.scriptPath = "<sweep>";
  j.script = script;
  j.entity = entity;
  j.params = std::move(params);
  return j;
}

amg::gen::Job sweepJob(const std::string& script, const std::string& name, int rows,
                       const std::string& w0) {
  return job(script, name, "Sweep", {{"rows", std::to_string(rows)}, {"W0", w0}});
}

/// One set-up: technology, engine with production defaults and one worker,
/// script compile (a per-set-up variant of the text, so the process-wide
/// chunk cache cannot hide it) and the fixed warm-up ops.
struct Setup {
  std::unique_ptr<amg::gen::BatchEngine> engine;
  std::string script;
  double seconds = 0;
};

Setup setUp(int index) {
  const Clock::time_point t0 = Clock::now();
  Setup s;
  amg::gen::EngineConfig cfg;
  cfg.threads = 1;
  s.engine = std::make_unique<amg::gen::BatchEngine>(amg::tech::bicmos1u(), cfg);
  s.script = std::string(kSweepScript) + "// set-up " + std::to_string(index) + "\n";
  amg::lang::compileCached(s.script);
  int w = 0;
  for (int rows : kWarmupRows) {
    const amg::gen::BatchReport rep =
        s.engine->run({sweepJob(s.script, "warmup", rows, decimal(4.0 + 0.1 * w++))});
    if (rep.failed) throw std::runtime_error("sweep_cold warm-up job failed");
  }
  s.seconds = msSince(t0) / 1e3;
  return s;
}

struct PassOut {
  std::vector<amg::gen::JobResult> results;
  std::vector<double> latencyMs, preflightMs;
  double wallS = 0;
  double peakRssMb = 0;  ///< read before verification allocates anything
};

PassOut runPass(Setup& s, const std::vector<SweepOp>& ops, SpanLog& spans) {
  PassOut out;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const amg::gen::Job j = sweepJob(s.script, "op" + std::to_string(i), ops[i].rows, ops[i].w0);
    Scope span(spans, "gen.BatchEngine.run", static_cast<int>(i));
    const Clock::time_point t = Clock::now();
    amg::gen::BatchReport rep = s.engine->run({j});
    out.latencyMs.push_back(msSince(t));
    span.close();
    out.preflightMs.push_back(rep.preflightMs);
    out.results.push_back(std::move(rep.jobs.front()));
  }
  out.wallS = msSince(t0) / 1e3;
  out.peakRssMb = peakRssMb();
  return out;
}

/// Generated, uncached, self-consistent digest, DRC-clean and, after the
/// first round, the same digest as the op's first execution.
void verify(const std::vector<SweepOp>& ops, PassOut& pass, int round, Result& r,
            SpanLog& spans, std::vector<double>* drcMs) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Op op;
    op.key = ops[i].key;
    op.latencyMs = pass.latencyMs[i];
    const amg::gen::JobResult& jr = pass.results[i];
    if (!jr.ok || !jr.layout) {
      fail(op, "generation failed: " + jr.error());
    } else {
      op.ok = true;
      op.digest = digestOf(*jr.layout);
      op.areaUm2 = areaUm2(*jr.layout);
      if (jr.cacheHit || jr.prefixRestored)
        fail(op, "a cold op was served from a cache tier");
      if (op.digest != jr.layoutHash)
        fail(op, "layout bytes do not match the engine's digest");
      Scope span(spans, "drc.check", static_cast<int>(i));
      amg::drc::CheckOptions rules;
      rules.latchUp = false;  // module-level check; latch-up is a top-level rule
      const bool clean = amg::drc::check(*jr.layout, rules).empty();
      const double ms = span.close();
      if (drcMs) drcMs->push_back(ms);
      if (!clean) fail(op, "layout is not DRC-clean");
    }
    if (round > 0 && op.digest != r.ops[i].digest) {
      r.deterministic = false;
      fail(op, "digest drifted between rounds");
    }
    r.ops.push_back(std::move(op));
  }
}

/// Direct compact::compact probe: the Sweep layout assembled step by step
/// in C++ at five row counts taken from the op list.  Returns the mean
/// step time and the fitted exponent of build time over rows.
std::pair<double, double> compactProbe(Setup& s, const std::vector<SweepOp>& ops,
                                       SpanLog& spans, std::size_t* steps) {
  const amg::gen::BatchReport parts = s.engine->run(
      {job(s.script, "start", "Start", {}),
       job(s.script, "first", "Cell", {{"W", "5.0"}, {"L", "2"}}),
       job(s.script, "cell", "Cell", {{"W", "6"}, {"L", "2"}})});
  if (parts.failed) throw std::runtime_error("sweep_cold probe parts failed");
  const amg::db::Module& start = *parts.jobs[0].layout;
  const amg::db::Module& first = *parts.jobs[1].layout;
  const amg::db::Module& cell = *parts.jobs[2].layout;

  std::vector<int> rows;
  for (const SweepOp& op : ops) rows.push_back(op.rows);
  std::sort(rows.begin(), rows.end());
  std::vector<double> lx, ly;
  double stepMsTotal = 0;
  *steps = 0;
  for (double q : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const int n = rows[static_cast<std::size_t>(q * (rows.size() - 1))];
    amg::db::Module target = start;
    Scope build(spans, "compact.probe.build", -1);
    for (int k = 0; k < n + 2; ++k) {
      Scope step(spans, "compact.compact", -1);
      amg::compact::compact(target, k == 0 ? first : cell, amg::Dir::East, {"poly"});
      stepMsTotal += step.close();
      ++*steps;
    }
    lx.push_back(std::log(static_cast<double>(n)));
    ly.push_back(std::log(build.close()));
  }
  const double mx = std::accumulate(lx.begin(), lx.end(), 0.0) / lx.size();
  const double my = std::accumulate(ly.begin(), ly.end(), 0.0) / ly.size();
  double sxy = 0, sxx = 0;
  for (std::size_t i = 0; i < lx.size(); ++i) {
    sxy += (lx[i] - mx) * (ly[i] - my);
    sxx += (lx[i] - mx) * (lx[i] - mx);
  }
  return {stepMsTotal / *steps, sxx > 0 ? sxy / sxx : 0};
}

double compileProbeMs(const Setup& s) {
  std::vector<double> ms;
  for (int k = 0; k < 5; ++k) {
    const Clock::time_point t = Clock::now();
    amg::lang::compileCached(s.script + "// compile probe " + std::to_string(k) + "\n");
    ms.push_back(msSince(t));
  }
  return median(ms);
}

}  // namespace

Result runSweepCold(const Options& o) {
  Result r;
  SpanLog spans;

  if (!o.trace) {
    std::vector<double> setupS;
    std::vector<std::vector<double>> latency;
    const std::vector<SweepOp> ops = makeOps(o);
    for (int round = 0; round < kSetUps; ++round) {
      Setup s = setUp(round);
      setupS.push_back(s.seconds);
      if (round >= kRounds) continue;
      PassOut pass = runPass(s, ops, spans);
      r.peakRssMb = std::max(r.peakRssMb, pass.peakRssMb);
      latency.push_back(pass.latencyMs);
      verify(ops, pass, round, r, spans, nullptr);
    }
    r.setupS = median(setupS);
    medianOverRounds(latency, r);
    return r;
  }

  // Traced run: an untraced round, then the same ops on a fresh engine
  // with spans and obs counters on.  Digests of the two must agree.
  const std::vector<SweepOp> ops = makeOps(o);
  Setup plain = setUp(0);
  const PassOut untraced = runPass(plain, ops, spans);
  plain = Setup{};

  amg::obs::enableStats(true);
  spans.enabled = true;
  Setup s = setUp(1);
  amg::obs::Stats::global().reset();
  PassOut pass = runPass(s, ops, spans);
  const amg::obs::Stats& st = amg::obs::Stats::global();
  const double steps = static_cast<double>(st.value("compact.steps"));
  const double cand = static_cast<double>(st.value("compact.constraints.candidates"));
  const double emitted = static_cast<double>(st.value("compact.constraints.emitted"));
  const double queries = static_cast<double>(st.value("spatial.queries"));
  const double spatialCand = static_cast<double>(st.value("spatial.candidates"));
  const double dispatch = static_cast<double>(st.value("vm.dispatch"));
  const double prefixBytes = static_cast<double>(st.value("gen.prefix.bytes_put"));
  amg::obs::enableStats(false);

  std::vector<double> drcMs;
  verify(ops, pass, 0, r, spans, &drcMs);
  for (std::size_t i = 0; i < ops.size(); ++i)
    if (untraced.results[i].layoutHash != r.ops[i].digest) {
      r.deterministic = false;
      fail(r.ops[i], "digest drifted between the untraced and traced pass");
    }

  std::vector<double> overhead;
  for (std::size_t i = 0; i < ops.size(); ++i)
    overhead.push_back(pass.latencyMs[i] - pass.results[i].wallMs);
  std::size_t probeSteps = 0;
  const auto [stepMs, exponent] = compactProbe(s, ops, spans, &probeSteps);
  const double compileMs = compileProbeMs(s);

  const double n = static_cast<double>(ops.size());
  const std::size_t N = ops.size();
  r.layer = {
      {"compact.step_ms", stepMs, "ms", probeSteps},
      {"compact.scaling_exponent", exponent, "1", 5},
      {"compact.steps_per_op", steps / n, "count", N, true},
      {"compact.constraint_yield", cand > 0 ? emitted / cand : 0, "1", N, true},
      {"geom.spatial_queries_per_step", steps > 0 ? queries / steps : 0, "count", N, true},
      {"geom.spatial_candidates_per_step", steps > 0 ? spatialCand / steps : 0, "count", N,
       true},
      {"geom.spatial_queries_per_op", queries / n, "count", N, true},
      {"lang.vm_dispatch_per_op", dispatch / n, "count", N, true},
      {"lang.compile_ms", compileMs, "ms", 5},
      {"analysis.preflight_ms", median(pass.preflightMs), "ms", N},
      {"gen.prefix_put_bytes_per_op", prefixBytes / n, "B", N, true},
      {"gen.overhead_ms", median(overhead), "ms", N},
      {"drc.check_ms", median(drcMs), "ms", N},
      {"obs.trace_overhead_pct", (pass.wallS / untraced.wallS - 1) * 100, "%", 2},
  };
  spans.write(o.workDir + "/../sweep_cold-seed" + std::to_string(o.seed) + "-spans.json");
  return r;
}

}  // namespace e2e
