// E10: parallel §2.4 order search — serial vs N-thread speedup.
//
// The optimization mode rates every compaction order, so its cost is
// n! × (cost of one compaction chain).  opt/parallel.h fans disjoint order
// subtrees across worker threads that share only the incumbent bound; this
// bench measures the wall-clock ratio on two real plans and checks that the
// winner is bit-identical at every thread count (the determinism contract).
//
// NOTE: the speedup column reflects the machine it runs on — on a single
// hardware thread the parallel engine degrades to ~1x (scheduling overhead
// only); the table exists to show the scaling on real multicore hosts.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "amp/amplifier.h"
#include "modules/basic.h"
#include "opt/parallel.h"
#include "tech/builtin.h"
#include "util/thread_pool.h"

using namespace amg;

namespace {

const tech::Technology& T() { return tech::bicmos1u(); }

/// The Fig. 9 two-stage amplifier as a permutable plan: block A seeds, the
/// remaining blocks are the steps (the natural order is the paper's
/// left-to-right abutment).
opt::BuildPlan amplifierPlan() {
  std::vector<db::Module> blocks = amp::buildBlocks(T());
  opt::BuildPlan plan(blocks.at(0));
  plan.name = "fig9";
  for (std::size_t i = 1; i < blocks.size(); ++i)
    plan.steps.emplace_back(blocks[i], Dir::West);
  return plan;
}

/// The Fig. 6 diff-pair construction as a permutable plan.
opt::BuildPlan diffPairPlan() {
  modules::MosSpec mos;
  mos.w = um(10);
  mos.l = um(2);
  const db::Module trans = modules::mosTransistor(T(), mos);
  modules::ContactRowSpec row;
  row.layer = "pdiff";
  row.l = um(10);
  const db::Module diffcon = modules::contactRow(T(), row);

  opt::BuildPlan plan(trans);
  plan.name = "diffpair";
  compact::Options ignoreDiff;
  ignoreDiff.ignoreLayers = {T().layer("pdiff")};
  plan.steps.emplace_back(trans, Dir::West, ignoreDiff);
  plan.steps.emplace_back(diffcon, Dir::West, ignoreDiff);
  plan.steps.emplace_back(diffcon, Dir::East, ignoreDiff);
  plan.steps.emplace_back(db::Module(diffcon), Dir::South);
  return plan;
}

double seconds(const std::chrono::steady_clock::time_point a,
               const std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void reportE10() {
  std::printf("=== E10: parallel compaction-order search ===\n");
  std::printf("host hardware threads: %zu\n\n", util::defaultThreadCount());
  std::printf("%-10s %8s %12s %9s %8s %16s  %s\n", "plan", "threads", "time (ms)",
              "speedup", "orders", "best (um^2)", "winning order");

  for (const auto* which : {"fig9", "diffpair"}) {
    const opt::BuildPlan plan =
        std::string(which) == "fig9" ? amplifierPlan() : diffPairPlan();

    const auto t0 = std::chrono::steady_clock::now();
    const opt::OptimizeResult serial = opt::optimizeOrder(plan);
    const auto t1 = std::chrono::steady_clock::now();
    const double serialSec = seconds(t0, t1);

    auto printRow = [&](const char* label, double sec,
                        const opt::OptimizeResult& r) {
      std::string order;
      for (const std::size_t i : r.order) order += std::to_string(i) + " ";
      std::printf("%-10s %8s %12.1f %8.2fx %8zu %16.0f  [ %s]\n", plan.name.c_str(),
                  label, sec * 1e3, serialSec / sec, r.evaluated,
                  r.score / (kMicron * kMicron), order.c_str());
    };
    printRow("serial", serialSec, serial);

    for (const std::size_t threads : {1u, 2u, 4u}) {
      opt::ParallelOptimizeOptions popt;
      popt.threads = threads;
      const auto p0 = std::chrono::steady_clock::now();
      const opt::OptimizeResult par = opt::optimizeOrderParallel(plan, {}, popt);
      const auto p1 = std::chrono::steady_clock::now();
      printRow(std::to_string(threads).c_str(), seconds(p0, p1), par);
      if (par.order != serial.order || par.score != serial.score)
        std::printf("  *** DETERMINISM VIOLATION: parallel winner differs ***\n");
    }
    std::printf("\n");
  }
}

void BM_SerialOrderSearch_Fig9(benchmark::State& state) {
  const opt::BuildPlan plan = amplifierPlan();
  for (auto _ : state) benchmark::DoNotOptimize(opt::optimizeOrder(plan));
}
BENCHMARK(BM_SerialOrderSearch_Fig9)->Unit(benchmark::kMillisecond);

void BM_ParallelOrderSearch_Fig9(benchmark::State& state) {
  const opt::BuildPlan plan = amplifierPlan();
  opt::ParallelOptimizeOptions popt;
  popt.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(opt::optimizeOrderParallel(plan, {}, popt));
}
BENCHMARK(BM_ParallelOrderSearch_Fig9)
    ->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelOrderSearch_DiffPair(benchmark::State& state) {
  const opt::BuildPlan plan = diffPairPlan();
  opt::ParallelOptimizeOptions popt;
  popt.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(opt::optimizeOrderParallel(plan, {}, popt));
}
BENCHMARK(BM_ParallelOrderSearch_DiffPair)
    ->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  reportE10();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
