// The unit of work of the batch engine: one module-generation request and
// its outcome.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "db/module.h"
#include "util/diag.h"

namespace amg::gen {

/// One generation request.  Two execution modes:
///  * entity mode (`entity` non-empty): the script is load()ed (entities
///    registered, no top-level execution) and `entity` is instantiated
///    with `params` as named arguments;
///  * script mode (`entity` empty): the whole script run()s and the global
///    named `resultVar` is the product.  `params` must be empty.
struct Job {
  std::string name;        ///< unique within a batch (report key)
  std::string scriptPath;  ///< where `script` came from; stamped on diags
  std::string script;      ///< DSL source text
  std::string entity;      ///< entity to instantiate; empty = script mode
  std::string resultVar = "result";  ///< global holding the script-mode product
  /// Named arguments, raw manifest text ("4.5" or "poly"); values parsing
  /// as numbers bind as numbers (micrometres), others as strings.
  std::vector<std::pair<std::string, std::string>> params;
};

/// The one rule for parameter values: a value that parses fully as a
/// number is that number; anything else (including "") is a string.  The
/// manifest's sweep ranges, the cache key, argument binding and the
/// prefix-friendly schedule all decide through this.
inline std::optional<double> numericParam(const std::string& v) {
  if (v.empty()) return std::nullopt;
  char* end = nullptr;
  const double num = std::strtod(v.c_str(), &end);
  if (end != v.c_str() + v.size()) return std::nullopt;
  return num;
}

/// Outcome of one job.  Failed jobs carry the structured diagnostic; they
/// never abort the batch.
struct JobResult {
  std::string name;
  bool ok = false;
  bool cacheHit = false;        ///< served from the cache (either tier)
  /// Rejected by the pre-flight static analysis: the job never reached a
  /// worker thread (counts as failed; `diag` holds the first finding).
  bool rejected = false;
  std::uint64_t key = 0;        ///< content-address of the request
  double wallMs = 0;
  /// Compaction steps served from the compactor-prefix cache instead of
  /// executed (docs/CACHING.md; 0 when the tier is disabled or cold).
  std::size_t prefixRestored = 0;
  /// FNV-1a over the serialized layout bytes (io::serializeLayout); the
  /// behavioral identity of the product, recorded into request traces
  /// (obs/recorder.h).  0 when the job failed.
  std::uint64_t layoutHash = 0;
  /// Interpreter work counters (lang::InterpStats) for jobs that actually
  /// executed; all zero for cache hits and rejections.  Context for replay
  /// divergence reports — never part of the outcome digest.
  std::uint64_t statements = 0;
  std::uint64_t entityCalls = 0;
  std::uint64_t compactions = 0;
  std::uint64_t variantRollbacks = 0;
  std::optional<db::Module> layout;  ///< present when ok
  std::optional<util::Diag> diag;    ///< present when failed
  /// Convenience: diagnostic rendered as one line ("" when ok).
  std::string error() const { return diag ? diag->str() : std::string(); }
};

struct BatchReport {
  std::vector<JobResult> jobs;  ///< same order as the submitted jobs
  std::size_t succeeded = 0;
  std::size_t failed = 0;       ///< includes the rejected jobs
  std::size_t rejected = 0;     ///< failed in pre-flight, never scheduled
  std::size_t cacheHits = 0;
  /// Sum of JobResult::prefixRestored over the batch.
  std::size_t prefixRestoredSteps = 0;
  double wallMs = 0;       ///< whole-batch wall time
  double preflightMs = 0;  ///< static-analysis pre-flight time (serial)
};

}  // namespace amg::gen
