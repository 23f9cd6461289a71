// The batch generation engine: many module-generation jobs, one pool.
//
// Each job gets its own Interpreter (full isolation — a parse error, a
// design-rule failure or a runaway recursion in one job cannot poison any
// other) and runs on a shared util::ThreadPool.  Results are served
// through the content-addressed LayoutCache when an identical request —
// same canonical source, entity, parameters, technology fingerprint —
// has been generated before (see fingerprint.h for what keys the hash).
//
// Instrumented with gen.* counters and "gen.batch"/"gen.job" trace spans
// (docs/OBSERVABILITY.md).
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <unordered_map>

#include "compact/prefix.h"
#include "gen/cache.h"
#include "gen/job.h"
#include "lang/interp.h"
#include "tech/tech.h"
#include "util/thread_pool.h"

namespace amg::analysis {
struct Report;
}

namespace amg::gen {

struct EngineConfig {
  std::size_t threads = 0;  ///< worker count; 0 = hardware concurrency
  bool useCache = true;     ///< false: always generate (bench cold runs)
  CacheConfig cache;        ///< memory budget + optional disk tier
  /// Statically analyze each job's script before scheduling (src/analysis)
  /// and reject jobs that would fail at runtime — an undefined entity, a
  /// wrong-arity call, a layer the deck does not know.  Rejected jobs
  /// carry the first finding as their diagnostic and never occupy a
  /// worker.  Analyses are memoized per distinct script text.
  bool preflight = true;
  /// Treat pre-flight warnings as rejections too (lint --Werror).
  bool preflightWerror = false;
  /// Memoize compactor session state at step granularity so sweep jobs
  /// resume from the first divergent compaction step (compact/prefix.h,
  /// docs/CACHING.md).  On by default; batch_runner exposes
  /// --no-prefix-cache.
  bool prefixCache = true;
  CacheConfig prefix;  ///< budget + optional disk tier
};

class BatchEngine {
 public:
  explicit BatchEngine(const tech::Technology& tech, EngineConfig cfg = {});

  /// Run every job; never throws for job-level failures (each JobResult
  /// carries its own diagnostic).  Results come back in submission order.
  BatchReport run(const std::vector<Job>& jobs);

  /// Content-address of one job under this engine's technology — what the
  /// cache is keyed by.  Exposed for tests and cache tooling.
  std::uint64_t keyOf(const Job& job) const;

  LayoutCache& cache() { return *cache_; }
  const LayoutCache& cache() const { return *cache_; }
  /// The compactor-prefix tier; nullptr when disabled.
  compact::PrefixCache* prefixCache() { return prefix_.get(); }
  const compact::PrefixCache* prefixCache() const { return prefix_.get(); }
  const tech::Technology& technology() const { return *tech_; }
  const EngineConfig& config() const { return cfg_; }

 private:
  JobResult runOne(const Job& job);
  /// Deterministic prefix-aware submission order: jobs grouped by script
  /// and entity, then ordered by parameter tuples, so sweep siblings run
  /// adjacently and a worker arrives at each job right after its longest
  /// shared prefix was recorded.  Identity order when the tier is off.
  std::vector<std::size_t> scheduleOrder(const std::vector<Job>& jobs) const;
  std::optional<util::Diag> preflightOne(
      const Job& job,
      std::unordered_map<std::uint64_t,
                         std::shared_ptr<const analysis::Report>>& memo) const;

  const tech::Technology* tech_;
  EngineConfig cfg_;
  std::uint64_t techFp_;
  std::unique_ptr<LayoutCache> cache_;
  std::unique_ptr<compact::PrefixCache> prefix_;
  util::ThreadPool pool_;
  /// First job failure of a run dumps the flight recorder (obs/flight.h)
  /// exactly once; reset at the start of every run().
  std::atomic<bool> flightDumped_{false};
};

}  // namespace amg::gen
