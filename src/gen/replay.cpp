#include "gen/replay.h"

#include <algorithm>

#include "gen/engine.h"
#include "gen/fingerprint.h"
#include "obs/obs.h"

namespace amg::gen {

obs::RequestOutcome outcomeOf(const JobResult& r) {
  obs::RequestOutcome o;
  o.ok = r.ok;
  o.cacheHit = r.cacheHit;
  o.rejected = r.rejected;
  o.layoutHash = r.layoutHash;
  o.shapeCount = r.layout ? static_cast<std::uint64_t>(r.layout->shapeCount()) : 0;
  o.diagCode = r.diag ? r.diag->code : std::string();
  o.prefixRestored = r.prefixRestored;
  o.statements = r.statements;
  o.entityCalls = r.entityCalls;
  o.compactions = r.compactions;
  o.variantRollbacks = r.variantRollbacks;
  o.wallMs = r.wallMs;
  return o;
}

obs::RequestRecord recordOf(const Job& job, const JobResult& r) {
  obs::RequestRecord rec;
  rec.kind = job.entity.empty() ? obs::RequestKind::Script
                                : obs::RequestKind::Entity;
  rec.name = job.name;
  rec.scriptPath = job.scriptPath;
  rec.script = canonicalizeSource(job.script);
  rec.entity = job.entity;
  rec.resultVar = job.resultVar;
  rec.params = job.params;
  std::sort(rec.params.begin(), rec.params.end());
  rec.outcome = outcomeOf(r);
  return rec;
}

EngineRecorder::EngineRecorder(const std::string& path, std::string tool,
                               std::string techSpec, const BatchEngine& engine)
    : out_(path, {std::move(tool), std::move(techSpec),
                  techFingerprint(engine.technology()),
                  engine.config().useCache, engine.config().prefixCache}) {}

void EngineRecorder::append(const std::vector<Job>& jobs,
                            const BatchReport& report) {
  for (std::size_t i = 0; i < jobs.size(); ++i)
    out_.append(recordOf(jobs[i], report.jobs[i]));
}

Job jobOf(const obs::RequestRecord& rec) {
  Job job;
  job.name = rec.name;
  job.scriptPath = rec.scriptPath;
  job.script = rec.script;
  job.entity = rec.entity;
  job.resultVar = rec.resultVar;
  job.params = rec.params;
  return job;
}

std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>>
Divergence::deltas() const {
  std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>> out;
  const auto diff = [&](const char* name, std::uint64_t a, std::uint64_t b) {
    if (a != b) out.emplace_back(name, a, b);
  };
  diff("ok", recorded.ok, replayed.ok);
  diff("rejected", recorded.rejected, replayed.rejected);
  diff("layout_hash", recorded.layoutHash, replayed.layoutHash);
  diff("shape_count", recorded.shapeCount, replayed.shapeCount);
  diff("cache_hit", recorded.cacheHit, replayed.cacheHit);
  diff("prefix_restored", recorded.prefixRestored, replayed.prefixRestored);
  diff("statements", recorded.statements, replayed.statements);
  diff("entity_calls", recorded.entityCalls, replayed.entityCalls);
  diff("compactions", recorded.compactions, replayed.compactions);
  diff("variant_rollbacks", recorded.variantRollbacks,
       replayed.variantRollbacks);
  return out;
}

namespace {

Divergence divergenceOf(std::size_t index, const std::string& name,
                        const obs::RequestOutcome& recorded,
                        const obs::RequestOutcome& replayed) {
  Divergence d;
  d.index = index;
  d.name = name;
  d.recorded = recorded;
  d.replayed = replayed;
  d.recordedDigest = obs::outcomeDigest(recorded);
  d.replayedDigest = obs::outcomeDigest(replayed);
  return d;
}

}  // namespace

ReplayReport replayTrace(const obs::TraceFile& trace,
                         const tech::Technology& tech,
                         const ReplayOptions& opt) {
  obs::Span span("gen.replay");
  ReplayReport rep;
  rep.total = trace.requests.size();

  EngineConfig cfg;
  cfg.threads = opt.threads;
  cfg.useCache = opt.useCache.value_or(trace.header.cacheEnabled);
  cfg.prefixCache = !opt.noPrefixCache && trace.header.prefixCacheEnabled;

  // Executable subset, preserving trace positions for the report.
  std::vector<std::size_t> positions;
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    if (trace.requests[i].kind == obs::RequestKind::External) {
      ++rep.skippedExternal;
      continue;
    }
    positions.push_back(i);
    jobs.push_back(jobOf(trace.requests[i]));
  }
  rep.executed = jobs.size();
  OBS_COUNT_N("gen.replay.requests", jobs.size());

  BatchEngine engine(tech, cfg);
  const BatchReport batch = engine.run(jobs);

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const obs::RequestRecord& rec = trace.requests[positions[j]];
    const obs::RequestOutcome replayed = outcomeOf(batch.jobs[j]);
    if (obs::outcomeDigest(rec.outcome) == obs::outcomeDigest(replayed)) {
      ++rep.matched;
      continue;
    }
    rep.divergences.push_back(
        divergenceOf(positions[j], rec.name, rec.outcome, replayed));
    OBS_COUNT("gen.replay.divergences");
  }
  rep.wallMs = span.elapsedSeconds() * 1e3;
  span.arg("requests", static_cast<std::uint64_t>(rep.executed));
  span.arg("divergences", static_cast<std::uint64_t>(rep.divergences.size()));
  return rep;
}

ReplayReport compareTraces(const obs::TraceFile& a, const obs::TraceFile& b) {
  ReplayReport rep;
  rep.total = std::max(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < rep.total; ++i) {
    const obs::RequestOutcome empty;
    const bool inA = i < a.requests.size();
    const bool inB = i < b.requests.size();
    const obs::RequestOutcome& oa = inA ? a.requests[i].outcome : empty;
    const obs::RequestOutcome& ob = inB ? b.requests[i].outcome : empty;
    const std::string name =
        inA ? a.requests[i].name : (inB ? b.requests[i].name : std::string());
    if (inA && inB && obs::outcomeDigest(oa) == obs::outcomeDigest(ob)) {
      ++rep.matched;
      continue;
    }
    rep.divergences.push_back(divergenceOf(i, name, oa, ob));
  }
  return rep;
}

}  // namespace amg::gen
