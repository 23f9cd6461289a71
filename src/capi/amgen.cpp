// The libamgen C ABI (include/amgen.h) over the C++ engine.
//
// Design rules at this boundary:
//  * No exception ever crosses it: every entry point catches, stashes the
//    structured diagnostic in a thread-local last-error slot, and returns
//    a status (or NULL handle).
//  * Handles are plain structs in the global namespace (their tags are the
//    C opaque types); all engine state they reference is owned by them.
//  * The engine handle serializes generate calls behind one mutex — the
//    underlying gen::BatchEngine is a one-controller-many-workers design
//    (util/thread_pool.h), so concurrent embedder threads queue here and
//    the worker pool parallelizes *within* a batch.
//  * AMGT recording appends each finished run through a
//    gen::EngineRecorder the handle owns, so amg_record_start()/_stop()
//    toggle recording on a live engine without rebuilding it — rebuilding
//    would drop the resident caches, the whole point of a resident engine.
//
// docs/EMBEDDING.md is the embedder-facing contract; this file is the
// only translation unit that needs to know both sides.
#include "amgen.h"

#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "compact/prefix.h"
#include "gen/engine.h"
#include "gen/fingerprint.h"
#include "gen/replay.h"
#include "io/cif.h"
#include "io/gds.h"
#include "io/layout.h"
#include "io/svg.h"
#include "obs/obs.h"
#include "tech/techfile.h"
#include "util/diag.h"
#include "util/thread_annotations.h"
#include "util/version.h"

namespace {

using namespace amg;

// --- thread-local last error ----------------------------------------------

thread_local util::Diag tlsError;
thread_local bool tlsHasError = false;

void setError(util::Diag d) {
  tlsError = std::move(d);
  tlsHasError = true;
}

void setError(const char* code, std::string message, std::string hint = "") {
  util::Diag d;
  d.code = code;
  d.message = std::move(message);
  d.hint = std::move(hint);
  setError(std::move(d));
}

/// Map a caught exception into the last-error slot; returns the status the
/// entry point should surface.
amg_status errorFrom(const std::exception& e, amg_status fallback) {
  if (const auto* de = dynamic_cast<const util::DiagError*>(&e)) {
    setError(de->diag());
    return fallback;
  }
  if (const auto* dr = dynamic_cast<const util::DesignRuleDiag*>(&e)) {
    setError(dr->diag());
    return fallback;
  }
  setError("AMG-CAPI-001", e.what(),
           "unstructured engine failure at the C boundary");
  return fallback == AMG_OK ? AMG_E_INTERNAL : fallback;
}

amg_status invalid(const char* what) {
  setError("AMG-CAPI-002", std::string("invalid argument: ") + what,
           "see docs/EMBEDDING.md for the call contract");
  return AMG_E_INVALID;
}

void fillDiag(const util::Diag& d, amg_diag* out) {
  out->code = d.code.c_str();
  out->message = d.message.c_str();
  out->hint = d.hint.c_str();
  out->file = d.loc.file.c_str();
  out->line = d.loc.line;
  out->col = d.loc.col;
}

// --- request/config translation -------------------------------------------

std::string orEmpty(const char* s) { return s ? std::string(s) : std::string(); }

gen::EngineConfig configOf(const amg_config& c) {
  gen::EngineConfig cfg;
  cfg.threads = c.threads;
  cfg.useCache = c.use_cache != 0;
  cfg.cache.maxBytes = static_cast<std::size_t>(c.cache_max_bytes);
  cfg.cache.diskDir = orEmpty(c.cache_dir);
  cfg.prefixCache = c.prefix_cache != 0;
  cfg.prefix.maxBytes = static_cast<std::size_t>(c.prefix_cache_max_bytes);
  cfg.prefix.diskDir = orEmpty(c.prefix_cache_dir);
  cfg.preflight = c.preflight != 0;
  cfg.preflightWerror = c.preflight_werror != 0;
  return cfg;
}

bool jobOf(const amg_request& req, gen::Job& job, std::string& badField) {
  if (!req.script) {
    badField = "amg_request.script is NULL";
    return false;
  }
  if (req.param_count > 0 && !req.params) {
    badField = "amg_request.params is NULL with param_count > 0";
    return false;
  }
  job.name = req.name && *req.name ? req.name : "request";
  job.script = req.script;
  job.scriptPath = req.script_path ? req.script_path : "<embedded>";
  job.entity = orEmpty(req.entity);
  if (req.result_var && *req.result_var) job.resultVar = req.result_var;
  job.params.reserve(req.param_count);
  for (std::size_t i = 0; i < req.param_count; ++i) {
    if (!req.params[i].key || !req.params[i].value) {
      badField = "amg_param key/value is NULL";
      return false;
    }
    job.params.emplace_back(req.params[i].key, req.params[i].value);
  }
  return true;
}

}  // namespace

// --- handle definitions (global namespace: these ARE the C opaque types) --

struct amg_result {
  amg::gen::JobResult r;
  std::vector<std::uint8_t> amgl;  ///< lazy serializeLayout() cache
};

struct amg_batch {
  std::vector<amg_result> results;  ///< sized once; pointers stay stable
  amg_batch_info info = {};
};

struct amg_engine {
  /// Serializes run()s — one controller for the pool.  mutable so the
  /// const stats readers can lock too (clang -Wthread-safety enforces
  /// every `engine`/`recorder` access below).
  mutable amg::util::Mutex mu;
  std::string techSpec;
  std::shared_ptr<const amg::tech::Technology> tech;
  amg::gen::EngineConfig cfg;
  std::unique_ptr<amg::gen::BatchEngine> engine AMG_GUARDED_BY(mu);
  std::unique_ptr<amg::gen::EngineRecorder> recorder
      AMG_GUARDED_BY(mu);  ///< AMGT; see file comment
};

namespace {

/// Shared by amg_generate / amg_generate_batch: run under the engine lock,
/// append to the AMGT recorder when active.
gen::BatchReport runLocked(amg_engine* e, const std::vector<gen::Job>& jobs) {
  util::MutexLock lock(e->mu);
  gen::BatchReport report = e->engine->run(jobs);
  if (e->recorder) e->recorder->append(jobs, report);
  return report;
}

amg_result resultOf(gen::JobResult&& r) {
  amg_result out;
  out.r = std::move(r);
  return out;
}

void fillInfo(const gen::BatchReport& rep, amg_batch_info* out) {
  out->jobs = rep.jobs.size();
  out->succeeded = rep.succeeded;
  out->failed = rep.failed;
  out->rejected = rep.rejected;
  out->cache_hits = rep.cacheHits;
  out->prefix_restored_steps = rep.prefixRestoredSteps;
  out->wall_ms = rep.wallMs;
  out->preflight_ms = rep.preflightMs;
}

/// One tier's counters and occupancy in the C layout.
void fillCacheStats(const util::BlobStore& store, amg_cache_stats* out) {
  const util::BlobStore::Stats s = store.stats();
  out->hits = s.hits;
  out->disk_hits = s.diskHits;
  out->misses = s.misses;
  out->evictions = s.evictions;
  out->puts = s.puts;
  out->entries = store.entryCount();
  out->bytes = store.byteCount();
}

}  // namespace

extern "C" {

// --- errors ---------------------------------------------------------------

int amg_last_error(amg_diag* out) {
  if (!tlsHasError) return 0;
  if (out) fillDiag(tlsError, out);
  return 1;
}

void amg_clear_last_error(void) { tlsHasError = false; }

// --- version identity -----------------------------------------------------

const char* amg_version(void) { return util::kVersionString; }

uint32_t amg_api_version(void) { return util::kApiVersion; }

void amg_version_info_get(amg_version_info* out) {
  if (!out) return;
  out->api = util::kApiVersion;
  out->layout_format = util::kLayoutFormatVersion;
  out->session_format = util::kSessionFormatVersion;
  out->trace_format = util::kTraceFormatVersion;
  out->prefix_format = util::kPrefixFormatVersion;
  out->engine = util::kEngineVersion;
  out->bytecode = util::kBytecodeVersion;
}

// --- engine lifecycle -----------------------------------------------------

void amg_config_init(amg_config* cfg) {
  if (!cfg) return;
  const amg::gen::EngineConfig d;
  std::memset(cfg, 0, sizeof *cfg);
  cfg->threads = 0;
  cfg->use_cache = d.useCache ? 1 : 0;
  cfg->cache_max_bytes = d.cache.maxBytes;
  cfg->prefix_cache = d.prefixCache ? 1 : 0;
  cfg->prefix_cache_max_bytes = d.prefix.maxBytes;
  cfg->preflight = d.preflight ? 1 : 0;
  cfg->preflight_werror = d.preflightWerror ? 1 : 0;
}

amg_engine* amg_engine_create(const char* tech_spec, const amg_config* cfg) {
  try {
    auto e = std::make_unique<amg_engine>();
    e->techSpec = orEmpty(tech_spec);
    e->tech = tech::resolveTech(e->techSpec);
    if (cfg) {
      e->cfg = configOf(*cfg);
    }
    {
      // Not yet shared, but the annotated lock keeps the analysis exact.
      util::MutexLock lock(e->mu);
      e->engine = std::make_unique<gen::BatchEngine>(*e->tech, e->cfg);
    }
    return e.release();
  } catch (const std::exception& ex) {
    errorFrom(ex, AMG_E_TECH);
    return nullptr;
  }
}

void amg_engine_destroy(amg_engine* e) { delete e; }

uint64_t amg_engine_tech_fingerprint(const amg_engine* e) {
  if (!e) return 0;
  try {
    return gen::techFingerprint(*e->tech);
  } catch (const std::exception& ex) {
    errorFrom(ex, AMG_E_INTERNAL);
    return 0;
  }
}

// --- generation -----------------------------------------------------------

void amg_request_init(amg_request* req) {
  if (req) std::memset(req, 0, sizeof *req);
}

amg_status amg_generate(amg_engine* e, const amg_request* req,
                        amg_result** out) {
  if (out) *out = nullptr;
  if (!e || !req || !out) return invalid("amg_generate(engine, req, out)");
  try {
    std::vector<gen::Job> jobs(1);
    std::string bad;
    if (!jobOf(*req, jobs[0], bad)) return invalid(bad.c_str());
    gen::BatchReport rep = runLocked(e, jobs);
    *out = new amg_result(resultOf(std::move(rep.jobs[0])));
    return AMG_OK;
  } catch (const std::exception& ex) {
    return errorFrom(ex, AMG_E_INTERNAL);
  }
}

amg_status amg_generate_batch(amg_engine* e, const amg_request* reqs,
                              size_t count, amg_batch** out) {
  if (out) *out = nullptr;
  if (!e || !out || (count > 0 && !reqs))
    return invalid("amg_generate_batch(engine, reqs, count, out)");
  try {
    std::vector<gen::Job> jobs(count);
    std::string bad;
    for (std::size_t i = 0; i < count; ++i)
      if (!jobOf(reqs[i], jobs[i], bad)) return invalid(bad.c_str());
    gen::BatchReport rep = runLocked(e, jobs);
    auto b = std::make_unique<amg_batch>();
    b->results.reserve(rep.jobs.size());
    for (gen::JobResult& r : rep.jobs)
      b->results.push_back(resultOf(std::move(r)));
    fillInfo(rep, &b->info);
    *out = b.release();
    return AMG_OK;
  } catch (const std::exception& ex) {
    return errorFrom(ex, AMG_E_INTERNAL);
  }
}

// --- batch access ---------------------------------------------------------

size_t amg_batch_size(const amg_batch* b) { return b ? b->results.size() : 0; }

amg_result* amg_batch_result(amg_batch* b, size_t index) {
  if (!b || index >= b->results.size()) return nullptr;
  return &b->results[index];
}

void amg_batch_info_get(const amg_batch* b, amg_batch_info* out) {
  if (!b || !out) return;
  *out = b->info;
}

void amg_batch_destroy(amg_batch* b) { delete b; }

// --- result access & extraction -------------------------------------------

int amg_result_ok(const amg_result* r) { return r && r->r.ok ? 1 : 0; }

int amg_result_cache_hit(const amg_result* r) {
  return r && r->r.cacheHit ? 1 : 0;
}

int amg_result_rejected(const amg_result* r) {
  return r && r->r.rejected ? 1 : 0;
}

const char* amg_result_name(const amg_result* r) {
  return r ? r->r.name.c_str() : "";
}

uint64_t amg_result_key(const amg_result* r) { return r ? r->r.key : 0; }

uint64_t amg_result_layout_hash(const amg_result* r) {
  return r ? r->r.layoutHash : 0;
}

uint64_t amg_result_shape_count(const amg_result* r) {
  return r && r->r.layout
             ? static_cast<uint64_t>(r->r.layout->shapeCount())
             : 0;
}

double amg_result_wall_ms(const amg_result* r) { return r ? r->r.wallMs : 0; }

uint64_t amg_result_prefix_restored(const amg_result* r) {
  return r ? r->r.prefixRestored : 0;
}

int amg_result_diag(const amg_result* r, amg_diag* out) {
  if (!r || !r->r.diag) return 0;
  if (out) fillDiag(*r->r.diag, out);
  return 1;
}

amg_status amg_result_layout_data(amg_result* r, const uint8_t** data,
                                  size_t* size) {
  if (data) *data = nullptr;
  if (size) *size = 0;
  if (!r || !data || !size)
    return invalid("amg_result_layout_data(result, data, size)");
  if (!r->r.ok || !r->r.layout) {
    setError("AMG-CAPI-003", "request failed; no layout to extract",
             "check amg_result_ok() / amg_result_diag() first");
    return AMG_E_STATE;
  }
  try {
    if (r->amgl.empty()) r->amgl = io::serializeLayout(*r->r.layout);
    *data = r->amgl.data();
    *size = r->amgl.size();
    return AMG_OK;
  } catch (const std::exception& ex) {
    return errorFrom(ex, AMG_E_INTERNAL);
  }
}

amg_status amg_result_export(amg_result* r, amg_export_format format,
                             const char* path) {
  if (!r || !path) return invalid("amg_result_export(result, format, path)");
  if (!r->r.ok || !r->r.layout) {
    setError("AMG-CAPI-003", "request failed; no layout to export",
             "check amg_result_ok() / amg_result_diag() first");
    return AMG_E_STATE;
  }
  try {
    switch (format) {
      case AMG_EXPORT_SVG:
        io::writeSvg(*r->r.layout, path);
        return AMG_OK;
      case AMG_EXPORT_CIF:
        io::writeCif(*r->r.layout, path);
        return AMG_OK;
      case AMG_EXPORT_GDS:
        io::writeGds(*r->r.layout, path);
        return AMG_OK;
      case AMG_EXPORT_AMGL:
        io::writeLayoutFile(*r->r.layout, path);
        return AMG_OK;
    }
    return invalid("unknown amg_export_format");
  } catch (const std::exception& ex) {
    return errorFrom(ex, AMG_E_IO);
  }
}

void amg_result_destroy(amg_result* r) { delete r; }

// --- cache control --------------------------------------------------------

amg_status amg_engine_cache_stats(const amg_engine* e, amg_cache_stats* out) {
  if (!e || !out) return invalid("amg_engine_cache_stats(engine, out)");
  util::MutexLock lock(e->mu);  // amg_engine_clear_caches swaps `engine`
  fillCacheStats(e->engine->cache().store(), out);
  return AMG_OK;
}

int amg_engine_prefix_cache_stats(const amg_engine* e, amg_cache_stats* out) {
  if (out) std::memset(out, 0, sizeof *out);
  if (!e || !out) return 0;
  util::MutexLock lock(e->mu);  // amg_engine_clear_caches swaps `engine`
  const compact::PrefixCache* pc = e->engine->prefixCache();
  if (!pc) return 0;
  fillCacheStats(pc->store(), out);
  return 1;
}

amg_status amg_engine_clear_caches(amg_engine* e) {
  if (!e) return invalid("amg_engine_clear_caches(engine)");
  try {
    // Rebuilding the BatchEngine drops both resident tiers and their stats
    // while keeping technology, configuration and the AMGT recorder.  The
    // process-wide compiled-chunk cache survives by design
    // (docs/CACHING.md: chunks key on source text alone).
    util::MutexLock lock(e->mu);
    e->engine = std::make_unique<gen::BatchEngine>(*e->tech, e->cfg);
    return AMG_OK;
  } catch (const std::exception& ex) {
    return errorFrom(ex, AMG_E_INTERNAL);
  }
}

// --- observability --------------------------------------------------------

void amg_stats_enable(int on) { obs::enableStats(on != 0); }

amg_status amg_stats_write_json(const char* path) {
  if (!path) return invalid("amg_stats_write_json(path)");
  if (obs::Stats::global().writeJson(path)) return AMG_OK;
  setError("AMG-CAPI-004", std::string("cannot write stats JSON '") + path + "'");
  return AMG_E_IO;
}

void amg_stats_reset(void) { obs::Stats::global().reset(); }

void amg_trace_enable(int on) { obs::enableTrace(on != 0); }

amg_status amg_trace_write(const char* path) {
  if (!path) return invalid("amg_trace_write(path)");
  if (obs::Tracer::global().write(path)) return AMG_OK;
  setError("AMG-CAPI-004", std::string("cannot write trace JSON '") + path + "'");
  return AMG_E_IO;
}

amg_status amg_record_start(amg_engine* e, const char* path, const char* tool) {
  if (!e || !path) return invalid("amg_record_start(engine, path, tool)");
  try {
    util::MutexLock lock(e->mu);
    if (e->recorder) {
      setError("AMG-CAPI-003", "an AMGT recording is already active",
               "amg_record_stop() it first");
      return AMG_E_STATE;
    }
    e->recorder = std::make_unique<gen::EngineRecorder>(
        path, tool && *tool ? tool : "libamgen",
        e->techSpec.empty() ? "bicmos1u" : e->techSpec, *e->engine);
    return AMG_OK;
  } catch (const std::exception& ex) {
    return errorFrom(ex, AMG_E_IO);
  }
}

amg_status amg_record_stop(amg_engine* e, uint64_t* out_count) {
  if (out_count) *out_count = 0;
  if (!e) return invalid("amg_record_stop(engine)");
  util::MutexLock lock(e->mu);
  if (!e->recorder) {
    setError("AMG-CAPI-003", "no AMGT recording is active",
             "amg_record_start() one first");
    return AMG_E_STATE;
  }
  if (out_count) *out_count = e->recorder->recordCount();
  e->recorder.reset();
  return AMG_OK;
}

int amg_record_active(const amg_engine* e) {
  if (!e) return 0;
  util::MutexLock lock(e->mu);
  return e->recorder ? 1 : 0;
}

}  // extern "C"
