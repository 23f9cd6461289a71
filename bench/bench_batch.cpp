// E12: batch engine — the two warm tiers against a cold run, and what the
// compactor-prefix tier costs and saves per step.
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
//     and executes only its own tail step.  Gates: every shared step
//     restored and byte-identical layouts (the tier's whole contract).
//
// The prefix tier's own gates (E12b) measure the tier, not the cold path
// around it:
//
//   * a restored step costs <= 0.1x an executed one: the 80-step chain
//     replayed through compact::prefixStep() on a warm cache (hits plus
//     the final restore) against compact::compact() on a cold module, per
//     step from the timers and the restored-step counter;
//   * a cold job with the tier on takes <= 1.05x the CPU time with it off,
//     at 100-800 rows (median of back-to-back pairs);
//   * gen.prefix.bytes_put per cold job grows with an exponent <= 1.1
//     over 100-1,600 rows (the delta entries are O(n) per job);
//   * at 1,600 rows, 10 adjacent jobs run faster with the tier than
//     without it.
//
// Per-job latencies go through obs histograms
// (bench.batch.<scenario>.job_us) and land, with the prefix hit/miss/
// restored-step counters, in the stats block of BENCH_batch.json.
// main() exits non-zero when any gate fails so CI goes red, not just
// prints FAIL.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <limits>
#include <string>
#include <vector>

#include "compact/prefix.h"
#include "gen/engine.h"
#include "io/layout.h"
#include "lang/interp.h"
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

double msSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Log-log least-squares slope of ys over xs.
double fittedExponent(const std::vector<double>& xs, const std::vector<double>& ys) {
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    mx += std::log(xs[i]) / static_cast<double>(xs.size());
    my += std::log(ys[i]) / static_cast<double>(ys.size());
  }
  double sxy = 0, sxx = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxy += (std::log(xs[i]) - mx) * (std::log(ys[i]) - my);
    sxx += (std::log(xs[i]) - mx) * (std::log(xs[i]) - mx);
  }
  return sxx > 0 ? sxy / sxx : 0;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-step cost of the 80-step Sweep chain, executed and restored (best
/// of three; infinite when nothing was restored).
struct StepCost {
  double executedUs = kInf;  ///< compact::compact() on a cold module
  double restoredUs = kInf;  ///< prefixStep() hits plus the final restore
  std::uint64_t restored = 0;
  bool identical = false;
};

StepCost stepCost() {
  const tech::Technology& t = tech::bicmos1u();
  lang::Interpreter in(t);
  in.loadEntities(bench::kSweepLib, "<bench>");
  // Sweep(rows = 0) is the chain's start: the seed box and one cell.
  const db::Module start = in.instantiate(
      "Sweep", {{"rows", lang::Value::number(0)}, {"W", lang::Value::number(6)}});
  const db::Module cell = in.instantiate(
      "Cell", {{"W", lang::Value::number(6)}, {"L", lang::Value::number(2)}});
  compact::Options opt;
  opt.ignoreLayers.push_back(t.layer("poly"));

  StepCost best;
  for (int rep = 0; rep < 3; ++rep) {
    db::Module executed = start;
    auto t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < kPrefixRows; ++k) compact::compact(executed, cell, Dir::East, opt);
    best.executedUs = std::min(best.executedUs, msSince(t0) * 1e3 / kPrefixRows);

    compact::PrefixCache cache;
    db::Module recorded = start;
    for (int k = 0; k < kPrefixRows; ++k)
      compact::prefixStep(cache, recorded, cell, Dir::East, opt);
    compact::prefixEnd(recorded);

    db::Module restored = start;
    t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < kPrefixRows; ++k)
      compact::prefixStep(cache, restored, cell, Dir::East, opt);
    compact::prefixEnd(restored);
    const double ms = msSince(t0);
    best.restored = cache.events().restoredSteps;
    if (best.restored > 0)
      best.restoredUs =
          std::min(best.restoredUs, ms * 1e3 / static_cast<double>(best.restored));
    best.identical = io::serializeSessionState(restored) ==
                     io::serializeSessionState(executed);
  }
  return best;
}

std::uint64_t prefixBytesPut() {
  return obs::Stats::global().value("gen.prefix.bytes_put");
}

/// One cold Sweep job of `rows` rows on a fresh single-worker engine
/// (layout cache off): the process CPU ms its run took, and the prefix
/// bytes it put.  CPU time rather than wall time, so that other tenants
/// of a shared machine preempting the run do not count.
double coldJobMs(int rows, bool prefix, std::uint64_t* bytesPut = nullptr) {
  gen::BatchEngine engine(tech::bicmos1u(), passConfig(false, prefix));
  const std::uint64_t before = prefixBytesPut();
  const std::clock_t c0 = std::clock();
  const gen::BatchReport r = engine.run({bench::sweepJob("cold", rows, "7")});
  const double cpuMs = 1e3 * static_cast<double>(std::clock() - c0) / CLOCKS_PER_SEC;
  if (bytesPut) *bytesPut = prefixBytesPut() - before;
  return r.failed ? kInf : cpuMs;
}

/// The prefix tier's own gates (E12b).  Returns false when any fails.
bool reportPrefixTier(obs::StatsWriter& w) {
  std::printf("\n=== E12b: what the prefix tier costs and saves ===\n\n");

  const StepCost sc = stepCost();
  const double stepRatio = sc.restoredUs / sc.executedUs;
  const bool stepOk = sc.identical && sc.restored == kPrefixRows && stepRatio <= 0.1;
  std::printf(
      "%d-step chain: executed %.2f us/step, restored %.2f us/step over %llu "
      "restored steps (%.3fx, <= 0.1x: %s; state identical: %s)\n",
      kPrefixRows, sc.executedUs, sc.restoredUs,
      static_cast<unsigned long long>(sc.restored), stepRatio,
      stepOk ? "PASS" : "FAIL", sc.identical ? "ok" : "FAILED");

  // Cold tax: pairs of fresh engines, one tier-off and one tier-on job
  // back to back (the order alternating between pairs), so a burst of
  // machine load hits both sides of a pair; the tax is the median of the
  // pairs' on/off CPU-time ratios.  Timed with obs counters off, as
  // production runs; one more tier-on job with them on counts the bytes it
  // puts.
  coldJobMs(40, true);  // compile the script into the process chunk cache
  std::printf("\n%-6s %12s %12s %8s %14s\n", "rows", "off (cpu ms)", "on (cpu ms)",
              "on/off", "prefix bytes");
  double worstTax = 0;
  std::vector<double> rowsSeries, bytesSeries;
  for (const int rows : {100, 200, 400, 800}) {
    const int pairs = rows <= 100 ? 101 : rows <= 200 ? 41 : rows <= 400 ? 31 : 15;
    std::vector<double> offs, ons, ratios;
    obs::enableStats(false);
    for (int i = 0; i < pairs; ++i) {
      double off = 0, on = 0;
      if (i % 2 == 0) {
        off = coldJobMs(rows, false);
        on = coldJobMs(rows, true);
      } else {
        on = coldJobMs(rows, true);
        off = coldJobMs(rows, false);
      }
      offs.push_back(off);
      ons.push_back(on);
      ratios.push_back(on / off);
    }
    obs::enableStats(true);
    std::uint64_t bytes = 0;
    coldJobMs(rows, true, &bytes);
    const double tax = median(ratios);
    worstTax = std::max(worstTax, tax);
    rowsSeries.push_back(rows);
    bytesSeries.push_back(static_cast<double>(bytes));
    std::printf("%-6d %12.2f %12.2f %8.3f %14llu\n", rows, median(offs), median(ons),
                tax, static_cast<unsigned long long>(bytes));
    w.sample("sweep_cold", static_cast<std::size_t>(rows), "tier_off", median(offs));
    w.sample("sweep_cold", static_cast<std::size_t>(rows), "tier_on", median(ons));
  }

  // 1,600 rows: ten adjacent jobs with and without the tier; job 0 of the
  // tiered pass is the cold job whose bytes close the exponent series.
  constexpr int kBigRows = 1600;
  std::vector<gen::Job> adjacent = sweepJobs(10, kBigRows);
  double offMs = 0, onMs = 0;
  std::uint64_t bigBytes = 0;
  {
    gen::BatchEngine engine(tech::bicmos1u(), passConfig(false, false));
    const auto t0 = std::chrono::steady_clock::now();
    for (const gen::Job& j : adjacent) engine.run({j});
    offMs = msSince(t0);
  }
  {
    gen::BatchEngine engine(tech::bicmos1u(), passConfig(false, true));
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t before = prefixBytesPut();
    engine.run({adjacent.front()});
    bigBytes = prefixBytesPut() - before;
    for (std::size_t i = 1; i < adjacent.size(); ++i) engine.run({adjacent[i]});
    onMs = msSince(t0);
  }
  rowsSeries.push_back(kBigRows);
  bytesSeries.push_back(static_cast<double>(bigBytes));
  std::printf("%-6d %12s %12s %8s %14llu\n", kBigRows, "", "", "",
              static_cast<unsigned long long>(bigBytes));
  const double bytesExponent = fittedExponent(rowsSeries, bytesSeries);

  const bool taxOk = worstTax <= 1.05;
  const bool bytesOk = bytesExponent <= 1.1;
  const bool bigOk = onMs < offMs;
  std::printf("\ncold job, tier on / off: worst median %.3fx over 100-800 rows "
              "(<= 1.05x: %s)\n",
              worstTax, taxOk ? "PASS" : "FAIL");
  std::printf("prefix bytes per cold job ~ rows^%.2f over 100-%d rows "
              "(<= 1.1: %s)\n",
              bytesExponent, kBigRows, bytesOk ? "PASS" : "FAIL");
  std::printf("10 adjacent jobs at %d rows: off %.0f ms, on %.0f ms "
              "(tier faster: %s)\n",
              kBigRows, offMs, onMs, bigOk ? "PASS" : "FAIL");

  w.metric("step_executed_us", sc.executedUs);
  w.metric("step_restored_us", sc.restored > 0 ? sc.restoredUs : 0);
  w.metric("restored_step_ratio", sc.restoredUs / sc.executedUs);
  w.metric("cold_tax_worst", worstTax);
  w.metric("prefix_bytes_exponent", bytesExponent);
  w.metric("adjacent_1600_off_ms", offMs);
  w.metric("adjacent_1600_on_ms", onMs);
  w.flag("prefix_restored_step_10x", stepOk);
  w.flag("prefix_cold_tax_ok", taxOk);
  w.flag("prefix_bytes_linear", bytesOk);
  w.flag("prefix_adjacent_1600_faster", bigOk);
  return stepOk && taxOk && bytesOk && bigOk;
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
  std::printf("warm-adjacent speedup: %.1fx (reported; E12b gates the tier)\n",
              adjSpeedup);

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
  w.flag("prefix_restored_all", restoredPrefix);
  const bool tierOk = reportPrefixTier(w);
  if (w.write("BENCH_batch.json")) std::printf("\nwrote BENCH_batch.json\n");

  return allHits && warmIdentical && adjIdentical && warmSpeedup >= 10.0 &&
         restoredPrefix && tierOk;
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
