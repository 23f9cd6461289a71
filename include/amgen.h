/* amgen.h — the C ABI of the analog module generator engine (libamgen).
 *
 * One header, one shared library, no C++ types on the boundary: everything
 * the in-process C++ surface can do — resident generation engine with all
 * cache tiers, batch requests, layout extraction and export, structured
 * AMG-* diagnostics, observability — behind stable C symbols, so any
 * language with a C FFI can embed the generator.  The amg_serve daemon
 * (docs/SERVER.md) is itself a consumer of exactly this surface.
 *
 * The complete reference — every function below, ownership and threading
 * rules, the error-handling contract, a compilable minimal consumer and
 * the format-version compatibility matrix — is docs/EMBEDDING.md.  A CI
 * registry scan (scripts/check_docs.py) keeps that document and this
 * header in lockstep, both directions.
 *
 * Contract summary (details in docs/EMBEDDING.md):
 *  * Handles (amg_engine, amg_batch, amg_result) are opaque; every handle
 *    has exactly one destroy function, and destroying NULL is a no-op.
 *  * Strings returned by accessors are owned by the handle they came from
 *    and stay valid until that handle is destroyed.  Strings passed *in*
 *    are copied before the call returns.
 *  * Functions returning amg_status report API-level failures only; a job
 *    that fails to generate still yields AMG_OK and a result whose
 *    amg_result_ok() is 0 with the diagnostic attached (job failures are
 *    data, not errors).  On a non-AMG_OK status, amg_last_error() has the
 *    structured diagnostic (thread-local).
 *  * An engine serializes its generate calls internally: concurrent
 *    amg_generate()/amg_generate_batch() from several threads are safe but
 *    queue behind one another.  For parallelism, put many requests in one
 *    batch — the engine fans them out over its worker pool.
 */
#ifndef AMGEN_H
#define AMGEN_H

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

#if defined(_WIN32)
#define AMGEN_API __declspec(dllexport)
#else
#define AMGEN_API __attribute__((visibility("default")))
#endif

/* Compatibility generation of this header; compare against
 * amg_api_version() at startup (docs/EMBEDDING.md, compatibility matrix).
 * Incompatible ABI changes bump it; additions do not. */
#define AMGEN_API_VERSION 2u

/* -------------------------------------------------------------------------
 * Status codes & diagnostics
 * ---------------------------------------------------------------------- */

typedef enum amg_status {
  AMG_OK = 0,         /* success (a produced result may still carry ok=0) */
  AMG_E_INVALID = 1,  /* NULL or malformed argument */
  AMG_E_TECH = 2,     /* technology spec could not be resolved/loaded */
  AMG_E_IO = 3,       /* a file could not be read or written */
  AMG_E_STATE = 4,    /* call not valid in this handle state */
  AMG_E_INTERNAL = 5  /* unexpected engine failure (bug — please report) */
} amg_status;

/* A structured diagnostic view: the stable AMG-* code, message, fix hint
 * and source location (docs/CLI.md has the code registry).  All pointers
 * are borrowed — owned by the handle (or thread-local error slot) the
 * view was filled from; never free them.  line/col are 1-based, 0 means
 * "unknown".  Absent fields are empty strings, never NULL. */
typedef struct amg_diag {
  const char* code;    /* e.g. "AMG-INTERP-001" */
  const char* message; /* one sentence, what went wrong */
  const char* hint;    /* how to fix it ("" when none) */
  const char* file;    /* script/tech/manifest path ("" when unknown) */
  int32_t line;
  int32_t col;
} amg_diag;

/* Fill `out` with the calling thread's last API-level error (set whenever
 * a libamgen call on this thread returned non-AMG_OK or a NULL handle).
 * Returns 1 when an error was present, 0 otherwise.  The view stays valid
 * until the next failing call on the same thread. */
AMGEN_API int amg_last_error(amg_diag* out);

/* Clear the calling thread's last-error slot. */
AMGEN_API void amg_clear_last_error(void);

/* -------------------------------------------------------------------------
 * Version identity
 * ---------------------------------------------------------------------- */

/* Every version number baked into artifacts and cache keys
 * (src/util/version.h is the single source of truth). */
typedef struct amg_version_info {
  uint32_t api;            /* C ABI generation (AMGEN_API_VERSION) */
  uint32_t layout_format;  /* "AMGL" end-of-build layout record */
  uint32_t session_format; /* "AMGS" mid-build session snapshot */
  uint32_t trace_format;   /* "AMGT" request trace */
  uint64_t prefix_format;  /* compactor-prefix entry format */
  uint64_t engine;         /* generation-behavior generation (cache keys) */
  uint64_t bytecode;       /* compiled-chunk equivalence generation */
} amg_version_info;

/* Human-readable build identity, e.g. "amgen 0.9.0".  Static storage. */
AMGEN_API const char* amg_version(void);

/* Runtime ABI generation of the loaded library; reject a mismatch with
 * AMGEN_API_VERSION before any other call. */
AMGEN_API uint32_t amg_api_version(void);

/* Fill `out` with every format/engine version (no-op on NULL). */
AMGEN_API void amg_version_info_get(amg_version_info* out);

/* -------------------------------------------------------------------------
 * Engine lifecycle
 * ---------------------------------------------------------------------- */

/* A resident generation engine: technology deck, worker pool, and the
 * resident cache tiers (whole-layout + compactor-prefix; compiled chunks
 * are process-wide).  Create once, serve many requests. */
typedef struct amg_engine amg_engine;

/* Engine configuration.  Zero-init then amg_config_init() for defaults;
 * string fields are borrowed until amg_engine_create() returns. */
typedef struct amg_config {
  uint32_t threads;      /* worker count; 0 = all hardware threads */
  int32_t use_cache;     /* whole-layout cache tier on/off */
  uint64_t cache_max_bytes;      /* in-memory layout-cache budget */
  const char* cache_dir;         /* on-disk tier directory; NULL/"" = off */
  int32_t prefix_cache;          /* compactor-prefix tier on/off */
  uint64_t prefix_cache_max_bytes;
  const char* prefix_cache_dir;  /* on-disk tier directory; NULL/"" = off */
  int32_t preflight;             /* static-analysis pre-flight on/off */
  int32_t preflight_werror;      /* treat pre-flight warnings as rejections */
} amg_config;

/* Reset `cfg` to the library defaults (both cache tiers on,
 * 64 MiB budgets, pre-flight on).  No-op on NULL. */
AMGEN_API void amg_config_init(amg_config* cfg);

/* Create an engine for `tech_spec`: a builtin deck name ("bicmos1u",
 * "cmos2u"), a .tech file path, or NULL/"" for the default deck.  `cfg`
 * NULL means amg_config_init() defaults.  Returns NULL on failure with
 * amg_last_error() set (AMG_E_TECH for an unknown/bad deck). */
AMGEN_API amg_engine* amg_engine_create(const char* tech_spec,
                                        const amg_config* cfg);

/* Destroy the engine and every resident cache tier.  Outstanding
 * amg_batch/amg_result handles stay valid — they own their data.  NULL is
 * a no-op.  Not safe while another thread is inside a call on `e`. */
AMGEN_API void amg_engine_destroy(amg_engine* e);

/* Content fingerprint of the engine's rule deck — the value every cache
 * key and trace header is derived from.  0 on NULL. */
AMGEN_API uint64_t amg_engine_tech_fingerprint(const amg_engine* e);

/* -------------------------------------------------------------------------
 * Generation
 * ---------------------------------------------------------------------- */

/* One named parameter binding; values are raw text ("4.5" binds as a
 * number in micrometres, anything else as a string). */
typedef struct amg_param {
  const char* key;
  const char* value;
} amg_param;

/* One generation request.  Two modes:
 *  * entity mode (`entity` non-empty): `script` is loaded (entities
 *    registered) and `entity` is instantiated with `params`;
 *  * script mode (`entity` NULL/""): the whole script runs and the global
 *    named `result_var` (default "result") is the product; params must be
 *    empty.
 * String fields are borrowed until the generate call returns. */
typedef struct amg_request {
  const char* name;        /* display name; NULL = "request" */
  const char* script;      /* DSL source text (required) */
  const char* script_path; /* provenance for diagnostics; NULL ok */
  const char* entity;      /* entity to instantiate; NULL/"" = script mode */
  const char* result_var;  /* script-mode product global; NULL = "result" */
  const amg_param* params; /* may be NULL when param_count is 0 */
  size_t param_count;
} amg_request;

/* Reset `req` to an empty request (all NULL/0).  No-op on NULL. */
AMGEN_API void amg_request_init(amg_request* req);

/* The outcome of one request: either a layout (extract/export below) or a
 * structured diagnostic.  Owned by the caller (amg_result_destroy) when
 * returned from amg_generate; owned by the batch when obtained through
 * amg_batch_result. */
typedef struct amg_result amg_result;

/* A batch of results, in submission order. */
typedef struct amg_batch amg_batch;

/* Generate one module.  Returns AMG_OK whenever a result was produced —
 * including failed jobs (amg_result_ok() == 0, diagnostic attached).  The
 * result is owned by the caller: amg_result_destroy() it. */
AMGEN_API amg_status amg_generate(amg_engine* e, const amg_request* req,
                                  amg_result** out);

/* Generate `count` requests as one batch fanned out over the engine's
 * worker pool, results in submission order.  The batch owns its results;
 * destroy only the batch. */
AMGEN_API amg_status amg_generate_batch(amg_engine* e,
                                        const amg_request* reqs, size_t count,
                                        amg_batch** out);

/* -------------------------------------------------------------------------
 * Batch access
 * ---------------------------------------------------------------------- */

/* Aggregate outcome of one batch (mirrors gen::BatchReport). */
typedef struct amg_batch_info {
  uint64_t jobs;
  uint64_t succeeded;
  uint64_t failed;     /* includes rejected */
  uint64_t rejected;   /* failed in pre-flight, never scheduled */
  uint64_t cache_hits;
  uint64_t prefix_restored_steps;
  double wall_ms;
  double preflight_ms;
} amg_batch_info;

/* Number of results in the batch (0 on NULL). */
AMGEN_API size_t amg_batch_size(const amg_batch* b);

/* Borrow result `index` (submission order).  Valid until the batch is
 * destroyed; do NOT amg_result_destroy() it.  NULL when out of range. */
AMGEN_API amg_result* amg_batch_result(amg_batch* b, size_t index);

/* Fill `out` with the batch aggregates.  No-op on NULL. */
AMGEN_API void amg_batch_info_get(const amg_batch* b, amg_batch_info* out);

/* Destroy the batch and every result it owns.  NULL is a no-op. */
AMGEN_API void amg_batch_destroy(amg_batch* b);

/* -------------------------------------------------------------------------
 * Result access & layout extraction
 * ---------------------------------------------------------------------- */

/* 1 when the request produced a layout. */
AMGEN_API int amg_result_ok(const amg_result* r);

/* 1 when the layout was served from a resident cache tier. */
AMGEN_API int amg_result_cache_hit(const amg_result* r);

/* 1 when the pre-flight static analysis rejected the request before it
 * reached a worker (the diagnostic holds the first finding). */
AMGEN_API int amg_result_rejected(const amg_result* r);

/* The request's display name (borrowed; "" on NULL). */
AMGEN_API const char* amg_result_name(const amg_result* r);

/* Content-address of the request under the engine's technology — the
 * whole-layout cache key (docs/CACHING.md). */
AMGEN_API uint64_t amg_result_key(const amg_result* r);

/* FNV-1a over the serialized layout bytes: the behavioral identity
 * recorded into AMGT traces.  0 when the request failed. */
AMGEN_API uint64_t amg_result_layout_hash(const amg_result* r);

/* Shapes in the produced layout (0 when failed). */
AMGEN_API uint64_t amg_result_shape_count(const amg_result* r);

/* Wall-clock time this request spent in the engine, milliseconds. */
AMGEN_API double amg_result_wall_ms(const amg_result* r);

/* Compaction steps served from the compactor-prefix tier instead of
 * executed (docs/CACHING.md; 0 when cold or disabled). */
AMGEN_API uint64_t amg_result_prefix_restored(const amg_result* r);

/* Fill `out` with the failure diagnostic.  Returns 1 when a diagnostic is
 * present (failed/rejected requests), 0 otherwise.  Views are owned by
 * the result. */
AMGEN_API int amg_result_diag(const amg_result* r, amg_diag* out);

/* Borrow the layout serialized as versioned AMGL bytes (io/layout.h) —
 * the same bytes the caches store, byte-identical across engines and
 * tiers.  Serialized lazily on first call, then cached on the result;
 * valid until the result (or owning batch) is destroyed.  AMG_E_STATE
 * when the request failed. */
AMGEN_API amg_status amg_result_layout_data(amg_result* r,
                                            const uint8_t** data,
                                            size_t* size);

typedef enum amg_export_format {
  AMG_EXPORT_SVG = 0,  /* viewable SVG rendering */
  AMG_EXPORT_CIF = 1,  /* CIF 2.0 mask rectangles */
  AMG_EXPORT_GDS = 2,  /* GDSII stream */
  AMG_EXPORT_AMGL = 3  /* the versioned binary layout record */
} amg_export_format;

/* Write the layout to `path` in `format`.  AMG_E_STATE when the request
 * failed, AMG_E_IO when the file cannot be written. */
AMGEN_API amg_status amg_result_export(amg_result* r, amg_export_format format,
                                       const char* path);

/* Destroy a result returned by amg_generate().  Results borrowed from a
 * batch must NOT be passed here.  NULL is a no-op. */
AMGEN_API void amg_result_destroy(amg_result* r);

/* -------------------------------------------------------------------------
 * Cache control
 * ---------------------------------------------------------------------- */

/* Counters + occupancy of one cache tier (mirrors util::BlobStore::Stats,
 * the store behind both tiers, plus its entry and byte counts). */
typedef struct amg_cache_stats {
  uint64_t hits;      /* memory-tier hits */
  uint64_t disk_hits; /* disk-tier hits */
  uint64_t misses;
  uint64_t evictions;
  uint64_t puts;
  uint64_t entries;   /* resident entries right now */
  uint64_t bytes;     /* resident bytes right now */
} amg_cache_stats;

/* Fill `out` with the whole-layout tier's stats. */
AMGEN_API amg_status amg_engine_cache_stats(const amg_engine* e,
                                            amg_cache_stats* out);

/* Fill `out` with the compactor-prefix tier's stats, in the same layout as
 * amg_engine_cache_stats.  Returns 1 when the tier is enabled, 0 when
 * amg_config.prefix_cache turned it off (`out` is zeroed then). */
AMGEN_API int amg_engine_prefix_cache_stats(const amg_engine* e,
                                            amg_cache_stats* out);

/* Drop every resident cache entry (whole-layout and compactor-prefix
 * tiers, stats included) while keeping the engine, its technology and its
 * configured size limits.  The process-wide compiled-chunk cache is
 * deliberately untouched (docs/CACHING.md).  Disk tiers are not deleted —
 * entries re-promote on the next hit. */
AMGEN_API amg_status amg_engine_clear_caches(amg_engine* e);

/* -------------------------------------------------------------------------
 * Observability
 * ---------------------------------------------------------------------- */

/* Toggle the process-wide obs counter/histogram registry
 * (docs/OBSERVABILITY.md).  Off by default; a disabled site costs one
 * relaxed atomic load. */
AMGEN_API void amg_stats_enable(int on);

/* Write the registry as one JSON object ({"counters":…, "histograms":…})
 * to `path`.  AMG_E_IO when unwritable. */
AMGEN_API amg_status amg_stats_write_json(const char* path);

/* Zero every counter and histogram (registry entries survive). */
AMGEN_API void amg_stats_reset(void);

/* Toggle process-wide span tracing; spans buffer per thread while on. */
AMGEN_API void amg_trace_enable(int on);

/* Merge the buffered spans into a Chrome/Perfetto trace-event JSON file.
 * AMG_E_IO when unwritable. */
AMGEN_API amg_status amg_trace_write(const char* path);

/* Start recording every request this engine completes (submission order)
 * to an AMGT trace at `path`, flushed per record — re-execute and verify
 * with amg_replay (docs/OBSERVABILITY.md).  `tool` names the embedding
 * application in the trace header (NULL = "libamgen").  AMG_E_STATE when
 * already recording, AMG_E_IO when the file cannot be opened. */
AMGEN_API amg_status amg_record_start(amg_engine* e, const char* path,
                                      const char* tool);

/* Stop recording; `out_count` (optional) receives the number of records
 * written.  AMG_E_STATE when not recording. */
AMGEN_API amg_status amg_record_stop(amg_engine* e, uint64_t* out_count);

/* 1 while an AMGT recording is active on this engine. */
AMGEN_API int amg_record_active(const amg_engine* e);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* AMGEN_H */
