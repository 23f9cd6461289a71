#include "gen/engine.h"

#include <algorithm>
#include <bit>
#include <string_view>

#include "analysis/analyzer.h"
#include "gen/fingerprint.h"
#include "io/layout.h"
#include "lang/compiler.h"
#include "lang/interp.h"
#include "obs/obs.h"
#include "util/version.h"

namespace amg::gen {
namespace {

/// Bumped when the generation semantics change in a way serialized results
/// do not capture; bump rules live with the constant (util/version.h).
constexpr std::uint64_t kEngineVersion = util::kEngineVersion;

util::Diag diagOf(const std::exception& e, const Job& job) {
  if (const auto* de = dynamic_cast<const util::DiagError*>(&e)) return de->diag();
  if (const auto* dr = dynamic_cast<const util::DesignRuleDiag*>(&e)) return dr->diag();
  // Plain Error / std::exception without structured payload.
  util::Diag d;
  d.code = "AMG-GEN-001";
  d.message = e.what();
  d.loc.file = job.scriptPath;
  d.hint = "";
  return d;
}

/// Behavioral identity of a serialized layout — what request traces and
/// replay digests compare (obs/recorder.h).
std::uint64_t layoutHashOf(const std::vector<std::uint8_t>& bytes) {
  return fnv1a(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                bytes.size()));
}

}  // namespace

/// Everything the engine derives from a script's raw text alone; pure in
/// (text, technology, config), so an entry never goes stale.
struct BatchEngine::ScriptFacts {
  std::string canonical;  ///< canonicalizeSource(text): what keyOf hashes
  /// The pre-flight analysis; engaged iff EngineConfig::preflight.  Its
  /// findings carry no file name: that is the job's (scriptPath).
  std::optional<analysis::Report> report;
};

BatchEngine::BatchEngine(const tech::Technology& tech, EngineConfig cfg)
    : tech_(&tech),
      cfg_(std::move(cfg)),
      techFp_(techFingerprint(tech)),
      cache_(std::make_unique<LayoutCache>(cfg_.cache)),
      prefix_(cfg_.prefixCache
                  ? std::make_unique<compact::PrefixCache>(cfg_.prefix)
                  : nullptr),
      scripts_(lang::kChunkCacheCapacity),
      pool_(cfg_.threads) {}

std::shared_ptr<const BatchEngine::ScriptFacts> BatchEngine::factsOf(
    const std::string& script) const {
  if (auto facts = scripts_.find(script)) {
    if (cfg_.preflight) OBS_COUNT("gen.preflight.cached");
    return facts;
  }
  auto facts = std::make_shared<ScriptFacts>();
  facts->canonical = canonicalizeSource(script);
  if (cfg_.preflight) {
    analysis::Options opt;
    opt.tech = tech_;
    facts->report = analysis::analyzeSource(script, "", opt);
    OBS_COUNT("gen.preflight.analyses");
  }
  bool evicted = false;
  auto held = scripts_.insert(script, std::move(facts), evicted);
  if (evicted) OBS_COUNT("gen.preflight.evictions");
  return held;
}

std::uint64_t BatchEngine::keyOf(const Job& job) const {
  return keyOf(job, *factsOf(job.script));
}

std::uint64_t BatchEngine::keyOf(const Job& job, const ScriptFacts& facts) const {
  std::uint64_t h = fnv1a(kEngineVersion, kFnvBasis);
  h = fnv1a(techFp_, h);
  h = fnv1a(facts.canonical, h);
  h = fnv1a(job.entity, h);
  if (job.entity.empty()) h = fnv1a(job.resultVar, h);
  // Parameter order is a call-site accident, not content: sort by name.
  std::vector<std::pair<std::string, std::string>> params = job.params;
  std::sort(params.begin(), params.end());
  for (const auto& [k, v] : params) {
    h = fnv1a(k, h);
    // Numeric values hash by value, so "4", "4.0" and "04" coincide.
    if (const auto num = numericParam(v))
      h = fnv1a(std::bit_cast<std::uint64_t>(*num), h);
    else
      h = fnv1a(v, h);
  }
  return h;
}

JobResult BatchEngine::runOne(const Job& job, const ScriptFacts& facts) {
  obs::Span span("gen.job");
  span.arg("job", job.name);
  JobResult res;
  res.name = job.name;
  res.key = keyOf(job, facts);
  obs::flight::mark("gen.job", job.name.c_str());

  try {
    if (cfg_.useCache) {
      if (const util::BlobStore::Blob bytes = cache_->get(res.key)) {
        try {
          res.layout = io::deserializeLayout(*bytes, *tech_);
        } catch (const std::exception& e) {
          // A damaged disk entry is a miss: regenerate below; the put
          // atomically replaces the bad file.
          OBS_LOG(Warn, "gen.cache",
                  job.name + ": cached layout does not decode (" + e.what() +
                      "); regenerating");
        }
        if (res.layout) {
          res.layoutHash = layoutHashOf(*bytes);
          res.ok = true;
          res.cacheHit = true;
          res.wallMs = span.elapsedSeconds() * 1e3;
          span.arg("cache", "hit");
          return res;
        }
      }
    }

    lang::Interpreter interp(*tech_);
    interp.setPrefixCache(prefix_.get());
    db::Module m = [&] {
      if (job.entity.empty()) {
        interp.run(job.script, job.scriptPath.empty() ? "<script>" : job.scriptPath);
        return interp.globalObject(job.resultVar);
      }
      interp.loadEntities(job.script,
                          job.scriptPath.empty() ? "<script>" : job.scriptPath);
      std::vector<std::pair<std::string, lang::Value>> args;
      args.reserve(job.params.size());
      for (const auto& [k, v] : job.params) {
        if (const auto num = numericParam(v))
          args.emplace_back(k, lang::Value::number(*num));
        else
          args.emplace_back(k, lang::Value::string(v));
      }
      return interp.instantiate(job.entity, args);
    }();
    if (m.name().empty()) m.setName(job.name);

    std::vector<std::uint8_t> bytes = io::serializeLayout(m);
    res.layoutHash = layoutHashOf(bytes);
    if (cfg_.useCache) cache_->put(res.key, std::move(bytes));
    res.layout = std::move(m);
    res.ok = true;
    res.prefixRestored = interp.stats().prefixRestored;
    res.statements = interp.stats().statementsExecuted;
    res.entityCalls = interp.stats().entityCalls;
    res.compactions = interp.stats().compactions;
    res.variantRollbacks = interp.stats().variantRollbacks;
    span.arg("cache", "miss");
    if (prefix_)
      span.arg("prefix_restored",
               static_cast<std::uint64_t>(res.prefixRestored));
  } catch (const std::exception& e) {
    res.diag = diagOf(e, job);
    if (res.diag->loc.file.empty()) res.diag->loc.file = job.scriptPath;
    OBS_COUNT("gen.jobs.failed");
    OBS_LOG(Warn, "gen.job", job.name + " failed: " + res.diag->str());
    span.arg("error", res.diag->code);
    // Post-mortem for the first failure of the run: the flight recorder
    // holds the spans/logs/marks leading up to it (docs/OBSERVABILITY.md).
    obs::flight::mark("gen.job.fail", res.diag->code.c_str());
    if (!flightDumped_.exchange(true, std::memory_order_acq_rel))
      obs::flight::dumpToStream();
  }
  res.wallMs = span.elapsedSeconds() * 1e3;
  return res;
}

// Pre-flight: check each job against its script's analysis before it
// reaches a worker.  Returns the diagnostic to reject with, or nullopt
// when the job may run.  The analysis is memoized on the *raw* script text
// (not the canonicalized form the cache keys on): two scripts that differ
// only in comments would share findings but not line numbers.
std::optional<util::Diag> BatchEngine::preflightOne(
    const Job& job, const ScriptFacts& facts) const {
  const analysis::Report& rep = *facts.report;
  if (const analysis::Finding* f = rep.firstError(cfg_.preflightWerror))
    return f->diag;

  // Compile through the shared chunk cache so the bytecode verifier
  // (analysis/bcverify.h) gates admission too: a job whose chunks fail
  // verification is rejected here with its AMG-B diagnostic instead of
  // reaching a worker.  Side benefit: every admitted job hits a warm
  // chunk cache when it runs.
  try {
    lang::compileCached(job.script);
  } catch (const util::DiagError& e) {
    return e.diag();
  }

  const auto diag = [](const char* code, std::string msg, int line,
                       std::string hint) {
    util::Diag d;
    d.code = code;
    d.message = std::move(msg);
    d.loc.line = line;
    d.hint = std::move(hint);
    return d;
  };

  // The script is statically sound; now check the request against it,
  // reusing the codes the interpreter would raise for the same defect.
  if (!job.entity.empty()) {
    const analysis::EntitySig* sig = rep.findEntity(job.entity);
    if (!sig)
      return diag("AMG-INTERP-002",
                  "unknown entity or function '" + job.entity + "'", 0,
                  "entities must be declared with ENT before or after use; "
                  "builtins are listed in docs/LANGUAGE.md");
    for (const auto& [k, v] : job.params) {
      (void)v;
      const bool known =
          std::any_of(sig->params.begin(), sig->params.end(),
                      [&](const auto& p) { return p.name == k; });
      if (!known)
        return diag("AMG-INTERP-003",
                    "entity '" + job.entity + "' has no parameter '" + k + "'",
                    sig->line,
                    "the declaration is 'ENT " + job.entity + "(...)' on line " +
                        std::to_string(sig->line));
    }
    for (const auto& p : sig->params) {
      if (p.optional || p.hasDefault) continue;
      const bool bound =
          std::any_of(job.params.begin(), job.params.end(),
                      [&](const auto& kv) { return kv.first == p.name; });
      if (!bound)
        return diag("AMG-INTERP-005",
                    "entity '" + job.entity + "': required parameter '" +
                        p.name + "' missing",
                    sig->line,
                    "pass " + p.name +
                        "=... in the job, or declare it optional as <" +
                        p.name + ">");
    }
  } else if (std::find(rep.globals.begin(), rep.globals.end(),
                       job.resultVar) == rep.globals.end()) {
    return diag("AMG-GEN-002",
                "script never assigns the result variable '" + job.resultVar +
                    "'",
                0,
                "script-mode jobs return the top-level global named by "
                "result=...; assign it in the calling sequence");
  }
  return std::nullopt;
}

std::vector<std::size_t> BatchEngine::scheduleOrder(
    const std::vector<Job>& jobs) const {
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (!prefix_) return order;

  // Numeric-aware three-way value compare, so w=9 precedes w=10 and the
  // sweep walks each axis monotonically (adjacent jobs differ minimally,
  // maximizing the shared compaction prefix between neighbours).
  const auto cmpVal = [](const std::string& a, const std::string& b) {
    const auto na = numericParam(a);
    const auto nb = numericParam(b);
    if (na && nb) return *na < *nb ? -1 : (*nb < *na ? 1 : 0);
    if (na.has_value() != nb.has_value()) return na ? -1 : 1;
    return a < b ? -1 : (b < a ? 1 : 0);
  };

  std::vector<std::vector<std::pair<std::string, std::string>>> params;
  params.reserve(jobs.size());
  for (const Job& j : jobs) {
    params.push_back(j.params);
    std::sort(params.back().begin(), params.back().end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  std::stable_sort(
      order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        const Job& ja = jobs[a];
        const Job& jb = jobs[b];
        if (ja.script != jb.script) return ja.script < jb.script;
        if (ja.entity != jb.entity) return ja.entity < jb.entity;
        if (ja.resultVar != jb.resultVar) return ja.resultVar < jb.resultVar;
        const auto& pa = params[a];
        const auto& pb = params[b];
        const std::size_t n = std::min(pa.size(), pb.size());
        for (std::size_t i = 0; i < n; ++i) {
          if (pa[i].first != pb[i].first) return pa[i].first < pb[i].first;
          if (const int c = cmpVal(pa[i].second, pb[i].second)) return c < 0;
        }
        return pa.size() < pb.size();
      });
  return order;
}

BatchReport BatchEngine::run(const std::vector<Job>& jobs) {
  obs::Span span("gen.batch");
  span.arg("jobs", static_cast<std::uint64_t>(jobs.size()));
  flightDumped_.store(false, std::memory_order_relaxed);
  BatchReport report;
  report.jobs.resize(jobs.size());

  // Each job's script facts, looked up once on this thread: workers never
  // wait on the memo, and a job keys on the facts its pre-flight read even
  // if the memo evicts them meanwhile.
  std::vector<std::shared_ptr<const ScriptFacts>> facts(jobs.size());
  if (cfg_.preflight) {
    obs::Span pf("gen.preflight");
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      facts[i] = factsOf(jobs[i].script);
      std::optional<util::Diag> reject = preflightOne(jobs[i], *facts[i]);
      if (!reject) continue;
      JobResult& res = report.jobs[i];
      res.name = jobs[i].name;
      res.key = keyOf(jobs[i], *facts[i]);
      res.rejected = true;
      if (reject->loc.file.empty())
        reject->loc.file =
            jobs[i].scriptPath.empty() ? "<script>" : jobs[i].scriptPath;
      res.diag = std::move(reject);
      OBS_COUNT("gen.preflight.rejected");
      OBS_LOG(Warn, "gen.preflight",
              jobs[i].name + " rejected: " + res.diag->str());
    }
    report.preflightMs = pf.elapsedSeconds() * 1e3;
    pf.arg("jobs", static_cast<std::uint64_t>(jobs.size()));
  }

  // Submission order decides when each job first becomes runnable, so the
  // prefix-aware permutation clusters sweep siblings; results still land
  // at their original indices.
  for (const std::size_t i : scheduleOrder(jobs)) {
    if (report.jobs[i].rejected) continue;
    if (!facts[i]) facts[i] = factsOf(jobs[i].script);
    pool_.run([this, &jobs, &report, &facts, i] {
      report.jobs[i] = runOne(jobs[i], *facts[i]);
    });
  }
  pool_.wait();

  for (const JobResult& r : report.jobs) {
    if (r.ok)
      ++report.succeeded;
    else
      ++report.failed;
    if (r.rejected) {
      ++report.rejected;
      continue;  // never ran: no wall-time sample
    }
    if (r.cacheHit) ++report.cacheHits;
    report.prefixRestoredSteps += r.prefixRestored;
    OBS_HIST("gen.job.wall_us", static_cast<std::uint64_t>(r.wallMs * 1e3));
  }
  OBS_COUNT_N("gen.jobs.total", jobs.size());
  OBS_COUNT_N("gen.jobs.ok", report.succeeded);

  report.wallMs = span.elapsedSeconds() * 1e3;
  return report;
}

}  // namespace amg::gen
