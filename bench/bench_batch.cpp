// E12: batch generation engine — the two warm tiers against a cold run.
//
// One workload drives every scenario: a 60-job "Sweep" parameter sweep
// where each entity compacts a long fixed column of cells (the shared
// prefix) and then one parameter-dependent tail cell, so consecutive jobs
// differ in exactly one compaction step.  Sized so the cold pass takes
// well over 200 ms — enough signal for the CI trend to gate on.
//
//   * identical replay  -> whole-layout cache (gen/cache.h): the second
//     run of the same jobs must be served entirely from the cache and be
//     >= 10x faster, with byte-identical layouts.
//   * warm-adjacent     -> compactor-prefix cache (compact/prefix.h): a
//     fresh engine with only the prefix tier on re-runs the sweep; job 0
//     records the step chain, every later job restores the shared prefix
//     and executes only its own tail step.  Gates: >= 10x over cold and
//     byte-identical layouts (the tier's whole contract).
//
// Per-job latencies go through obs histograms
// (bench.batch.<scenario>.job_us) and land, with the prefix hit/miss/
// restored-step counters, in the stats block of BENCH_batch.json.
// main() exits non-zero when any gate fails so CI goes red, not just
// prints FAIL.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "compact/prefix.h"
#include "gen/engine.h"
#include "io/layout.h"
#include "obs/obs.h"
#include "obs/stats_writer.h"
#include "sweep.h"
#include "tech/builtin.h"

using namespace amg;

namespace {

constexpr std::size_t kJobs = 60;
constexpr int kPrefixRows = 80;  // shared compaction steps per job

/// Warm-adjacent sweep: every job repeats the same `rows`-step prefix and
/// differs from its predecessor only in the tail cell's W.
std::vector<gen::Job> sweepJobs(std::size_t count, int rows = kPrefixRows) {
  std::vector<gen::Job> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    char w[32];
    std::snprintf(w, sizeof w, "%g", 6.0 + 0.2 * static_cast<double>(i));
    jobs.push_back(bench::sweepJob("sweep" + std::to_string(i), rows, w));
  }
  return jobs;
}

/// Single-worker engine so pass timings compare like for like.
gen::EngineConfig passConfig(bool layoutCache, bool prefixCache) {
  gen::EngineConfig cfg;
  cfg.threads = 1;
  cfg.useCache = layoutCache;
  cfg.prefixCache = prefixCache;
  return cfg;
}

std::vector<std::vector<std::uint8_t>> layoutBytes(const gen::BatchReport& r) {
  std::vector<std::vector<std::uint8_t>> bytes;
  bytes.reserve(r.jobs.size());
  for (const gen::JobResult& j : r.jobs)
    bytes.push_back(j.ok ? io::serializeLayout(*j.layout)
                         : std::vector<std::uint8_t>{});
  return bytes;
}

void recordJobLatencies(const char* scenario, const gen::BatchReport& r) {
  const std::string name = std::string("bench.batch.") + scenario + ".job_us";
  for (const gen::JobResult& j : r.jobs)
    obs::Stats::global().histogram(name).record(
        static_cast<std::uint64_t>(j.wallMs * 1e3));
}

/// Returns false when any acceptance gate fails.
bool reportE12() {
  obs::enableStats(true);
  obs::Stats::global().reset();

  std::printf(
      "=== E12: batch engine, layout cache + prefix cache vs cold "
      "(%zu-job sweep, %d-step shared prefix) ===\n\n",
      kJobs, kPrefixRows);
  const std::vector<gen::Job> jobs = sweepJobs(kJobs);

  // Cold baseline: no cache tier at all.
  gen::BatchEngine coldEngine(tech::bicmos1u(), passConfig(false, false));
  const gen::BatchReport cold = coldEngine.run(jobs);
  recordJobLatencies("cold", cold);

  // Scenario 1 — identical replay through the whole-layout cache.
  gen::BatchEngine layoutEngine(tech::bicmos1u(), passConfig(true, false));
  layoutEngine.run(jobs);  // fill
  const gen::BatchReport warm = layoutEngine.run(jobs);
  recordJobLatencies("layout_warm", warm);

  // Scenario 2 — warm-adjacent through the compactor-prefix cache only.
  // Job 0 records the chain; jobs 1..N-1 restore the shared steps and
  // execute one tail step each.
  gen::BatchEngine prefixEngine(tech::bicmos1u(), passConfig(false, true));
  const gen::BatchReport adj = prefixEngine.run(jobs);
  recordJobLatencies("warm_adjacent", adj);
  const bool prefixOn = prefixEngine.prefixCache() != nullptr;
  const util::BlobStore::Stats ps =
      prefixOn ? prefixEngine.prefixCache()->store().stats()
               : util::BlobStore::Stats{};

  const bool allOk = cold.failed == 0 && warm.failed == 0 && adj.failed == 0;
  const bool allHits = warm.cacheHits == jobs.size();
  const std::vector<std::vector<std::uint8_t>> coldBytes = layoutBytes(cold);
  const bool warmIdentical = allOk && coldBytes == layoutBytes(warm);
  const bool adjIdentical = allOk && coldBytes == layoutBytes(adj);
  const double warmSpeedup = warm.wallMs > 0 ? cold.wallMs / warm.wallMs : 0;
  const double adjSpeedup = adj.wallMs > 0 ? cold.wallMs / adj.wallMs : 0;
  // Jobs 1..N-1 should each restore the whole shared prefix.
  const bool restoredPrefix =
      prefixOn && adj.prefixRestoredSteps >=
                      static_cast<std::size_t>(kPrefixRows) * (kJobs - 1);

  std::printf("%-22s %10s %12s %12s\n", "pass", "jobs ok", "cache hits",
              "wall (ms)");
  std::printf("%-22s %7zu/%zu %12zu %12.1f\n", "cold", cold.succeeded,
              jobs.size(), cold.cacheHits, cold.wallMs);
  std::printf("%-22s %7zu/%zu %12zu %12.1f\n", "layout warm", warm.succeeded,
              jobs.size(), warm.cacheHits, warm.wallMs);
  std::printf("%-22s %7zu/%zu %12zu %12.1f\n\n", "warm-adjacent",
              adj.succeeded, jobs.size(), adj.cacheHits, adj.wallMs);

  std::printf("cold pass >= 200 ms of work: %s (%.1f ms)\n",
              cold.wallMs >= 200.0 ? "ok" : "UNDER-SCALED", cold.wallMs);
  std::printf("warm served entirely from layout cache: %s\n",
              allHits ? "ok" : "FAILED");
  std::printf("layout-warm layouts byte-identical to cold: %s\n",
              warmIdentical ? "ok" : "FAILED");
  std::printf("layout-warm speedup: %.1fx  (>=10x requirement: %s)\n",
              warmSpeedup, warmSpeedup >= 10.0 ? "PASS" : "FAIL");
  std::printf(
      "prefix cache: %llu hit, %llu miss, %zu steps restored "
      "(>= %d x %zu expected: %s)\n",
      static_cast<unsigned long long>(ps.hits),
      static_cast<unsigned long long>(ps.misses), adj.prefixRestoredSteps,
      kPrefixRows, kJobs - 1, restoredPrefix ? "ok" : "FAILED");
  std::printf("warm-adjacent layouts byte-identical to cold: %s\n",
              adjIdentical ? "ok" : "FAILED");
  std::printf("warm-adjacent speedup: %.1fx  (>=10x requirement: %s)\n",
              adjSpeedup, adjSpeedup >= 10.0 ? "PASS" : "FAIL");

  obs::StatsWriter w("batch");
  w.sample("sweep", kJobs, "cold", cold.wallMs);
  w.sample("sweep", kJobs, "layout_warm", warm.wallMs);
  w.sample("sweep", kJobs, "warm_adjacent", adj.wallMs);
  w.metric("cold_ms", cold.wallMs);
  w.metric("speedup_warm", warmSpeedup);
  w.metric("speedup_warm_adjacent", adjSpeedup);
  w.metric("prefix_hits", static_cast<double>(ps.hits));
  w.metric("prefix_misses", static_cast<double>(ps.misses));
  w.metric("prefix_restored_steps",
           static_cast<double>(adj.prefixRestoredSteps));
  w.flag("prefix_cache_enabled", prefixOn);
  w.flag("byte_identical", warmIdentical && adjIdentical);
  w.flag("all_cache_hits", allHits);
  w.flag("speedup_10x", warmSpeedup >= 10.0);
  w.flag("prefix_speedup_10x", adjSpeedup >= 10.0);
  w.flag("prefix_restored_all", restoredPrefix);
  if (w.write("BENCH_batch.json")) std::printf("\nwrote BENCH_batch.json\n");

  return allHits && warmIdentical && adjIdentical && warmSpeedup >= 10.0 &&
         restoredPrefix && adjSpeedup >= 10.0;
}

void BM_BatchCold(benchmark::State& state) {
  const std::vector<gen::Job> jobs =
      sweepJobs(static_cast<std::size_t>(state.range(0)), 10);
  for (auto _ : state) {
    gen::BatchEngine engine(tech::bicmos1u(), passConfig(false, false));
    benchmark::DoNotOptimize(engine.run(jobs));
  }
}
BENCHMARK(BM_BatchCold)->Arg(15)->Arg(60)->Unit(benchmark::kMillisecond);

void BM_BatchWarm(benchmark::State& state) {
  const std::vector<gen::Job> jobs =
      sweepJobs(static_cast<std::size_t>(state.range(0)), 10);
  gen::BatchEngine engine(tech::bicmos1u(), passConfig(true, false));
  engine.run(jobs);  // fill
  for (auto _ : state) benchmark::DoNotOptimize(engine.run(jobs));
}
BENCHMARK(BM_BatchWarm)->Arg(15)->Arg(60)->Unit(benchmark::kMillisecond);

void BM_BatchWarmAdjacent(benchmark::State& state) {
  const std::vector<gen::Job> jobs =
      sweepJobs(static_cast<std::size_t>(state.range(0)), 10);
  for (auto _ : state) {
    gen::BatchEngine engine(tech::bicmos1u(), passConfig(false, true));
    benchmark::DoNotOptimize(engine.run(jobs));
  }
}
BENCHMARK(BM_BatchWarmAdjacent)->Arg(15)->Arg(60)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool ok = reportE12();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return ok ? 0 : 1;
}
