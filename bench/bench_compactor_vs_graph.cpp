// E7 (§2.3 claim): successive compaction vs. the general constraint-graph
// approach.
//
// "In contrast to general compaction approaches [17, 18], the compaction is
// done successively by involving only one new object in each step.  Thus,
// only outer edges of the main object have to be kept in the data structure
// and no general edge graph must be created.  This speeds up the compaction
// time."
//
// Two engines build the same row of contact-row-like objects:
//   successive — compact::compact, the compactor production runs
//   graph      — baseline: merge then re-run full constraint-graph solve
// The report prints wall time and final extent per engine and object count.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <random>
#include <vector>

#include "baseline/graph_compactor.h"
#include "compact/compactor.h"
#include "tech/builtin.h"

using namespace amg;

namespace {

const tech::Technology& T() { return tech::bicmos1u(); }

/// Objects of varying height on alternating nets: representative of module
/// construction (each object is a small multi-rect structure).
std::vector<db::Module> makeObjects(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Coord> h(2000, 12000);
  std::vector<db::Module> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    db::Module o(T(), "obj");
    const Coord hh = h(rng);
    const auto net = o.net("n" + std::to_string(i % 5));
    o.addShape(db::makeShape(Box{0, 0, 2200, hh}, T().layer("metal1"), net));
    o.addShape(db::makeShape(Box{600, hh / 2 - 500, 1600, hh / 2 + 500},
                             T().layer("contact"), net));
    o.addShape(db::makeShape(Box{0, 0, 2200, hh}, T().layer("poly"), net));
    out.push_back(std::move(o));
  }
  return out;
}

double runSuccessive(const std::vector<db::Module>& objs, Coord* extent) {
  const auto t0 = std::chrono::steady_clock::now();
  db::Module m(T(), "successive");
  for (const auto& o : objs) compact::compact(m, o, Dir::West);
  const auto t1 = std::chrono::steady_clock::now();
  *extent = m.bbox().width();
  return std::chrono::duration<double>(t1 - t0).count();
}

double runGraph(const std::vector<db::Module>& objs, Coord* extent) {
  const auto t0 = std::chrono::steady_clock::now();
  db::Module m(T(), "graph");
  for (const auto& o : objs) baseline::graphCompactStep(m, o, Dir::West);
  const auto t1 = std::chrono::steady_clock::now();
  *extent = m.bbox().width();
  return std::chrono::duration<double>(t1 - t0).count();
}

void reportE7() {
  std::printf("=== E7 / §2.3: successive vs. constraint-graph compaction ===\n");
  std::printf("%8s %16s %14s %10s %14s\n", "objects", "successive (ms)", "graph (ms)",
              "speedup", "extent (nm)");
  for (const int n : {20, 50, 100, 200, 400}) {
    const auto objs = makeObjects(n, 42);
    Coord es = 0, eg = 0;
    const double ts = runSuccessive(objs, &es);
    const double tg = runGraph(objs, &eg);
    std::printf("%8d %16.2f %14.2f %9.1fx %14ld\n", n, ts * 1e3, tg * 1e3, tg / ts,
                static_cast<long>(es));
    if (es != eg)
      std::printf("         (extents differ: successive %ld, graph %ld nm)\n",
                  static_cast<long>(es), static_cast<long>(eg));
  }
  std::printf("(paper claim: the successive method \"speeds up the compaction "
              "time\" — the ratio grows with module size)\n\n");
}

void BM_Successive(benchmark::State& state) {
  const auto objs = makeObjects(static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    db::Module m(T(), "successive");
    for (const auto& o : objs) compact::compact(m, o, Dir::West);
    benchmark::DoNotOptimize(m.area());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Successive)->Range(16, 256)->Complexity();

void BM_GraphBaseline(benchmark::State& state) {
  const auto objs = makeObjects(static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    db::Module m(T(), "graph");
    for (const auto& o : objs) baseline::graphCompactStep(m, o, Dir::West);
    benchmark::DoNotOptimize(m.area());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GraphBaseline)->Range(16, 128)->Complexity();

}  // namespace

int main(int argc, char** argv) {
  reportE7();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
