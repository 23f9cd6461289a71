// E5 (Figs. 6–7): the simple MOS differential pair.
//
// Reproduces: the five-step compaction build (per-step area), agreement
// between the DSL script and the C++ generator, and the generation time
// (the paper's environment was interactive on 1996 hardware).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "compact/compactor.h"
#include "drc/drc.h"
#include "lang/interp.h"
#include "modules/basic.h"
#include "modules/dsl_sources.h"
#include "tech/builtin.h"

using namespace amg;

namespace {

const tech::Technology& T() { return tech::bicmos1u(); }

std::string diffPairScript() {
  return "diff = DiffPair(W = 10, L = 2)\n" + std::string(modules::dsl::kContactRow) +
         modules::dsl::kTrans + modules::dsl::kDiffPair;
}

void reportFig6() {
  std::printf("=== E5 / Figs. 6-7: the MOS differential pair ===\n");

  // Step-by-step build (the paper's steps 3-5).
  modules::MosSpec ms;
  ms.w = um(10);
  ms.l = um(2);
  ms.gateNet = "inp";
  ms.sourceNet = "outa";
  ms.drainContact = false;
  const db::Module t1 = modules::mosTransistor(T(), ms);
  ms.gateNet = "inn";
  ms.sourceNet = "tail";
  const db::Module t2 = modules::mosTransistor(T(), ms);
  modules::ContactRowSpec rc;
  rc.layer = "pdiff";
  rc.l = um(10);
  rc.net = "outb";

  db::Module m(T(), "DiffPair");
  std::printf("%-28s %10s %10s\n", "step", "w (um)", "h (um)");
  compact::compact(m, t1, Dir::West);
  std::printf("%-28s %10.2f %10.2f\n", "3: first transistor",
              static_cast<double>(m.bbox().width()) / kMicron,
              static_cast<double>(m.bbox().height()) / kMicron);
  compact::compact(m, t2, Dir::West, {"pdiff"});
  std::printf("%-28s %10.2f %10.2f\n", "4: second transistor",
              static_cast<double>(m.bbox().width()) / kMicron,
              static_cast<double>(m.bbox().height()) / kMicron);
  compact::compact(m, modules::contactRow(T(), rc), Dir::West, {"pdiff"});
  std::printf("%-28s %10.2f %10.2f\n", "5: outer contact row",
              static_cast<double>(m.bbox().width()) / kMicron,
              static_cast<double>(m.bbox().height()) / kMicron);
  std::printf("DRC: %zu violation(s)\n",
              drc::check(m, {.latchUp = false}).size());

  // DSL build for comparison.
  lang::Interpreter in(T());
  in.run(diffPairScript());
  const db::Module& viaDsl = in.globalObject("diff");
  std::printf("DSL script: %zu statements executed, %zu compactions, "
              "bbox %.2f x %.2f um\n\n",
              in.stats().statementsExecuted, in.stats().compactions,
              static_cast<double>(viaDsl.bbox().width()) / kMicron,
              static_cast<double>(viaDsl.bbox().height()) / kMicron);
}

void BM_DiffPairCpp(benchmark::State& state) {
  modules::DiffPairSpec spec;
  spec.w = um(state.range(0));
  spec.l = um(2);
  for (auto _ : state) benchmark::DoNotOptimize(modules::diffPair(T(), spec));
}
BENCHMARK(BM_DiffPairCpp)->Arg(5)->Arg(10)->Arg(40);

void BM_DiffPairDslFull(benchmark::State& state) {
  const std::string src = diffPairScript();
  for (auto _ : state) {
    lang::Interpreter in(T());
    in.run(src);
    benchmark::DoNotOptimize(in.globalObject("diff"));
  }
}
BENCHMARK(BM_DiffPairDslFull);

void BM_DiffPairDslInstantiate(benchmark::State& state) {
  lang::Interpreter in(T());
  in.load(std::string(modules::dsl::kContactRow) + modules::dsl::kTrans +
          modules::dsl::kDiffPair);
  for (auto _ : state)
    benchmark::DoNotOptimize(in.instantiate(
        "DiffPair", {{"W", lang::Value::number(10)}, {"L", lang::Value::number(2)}}));
}
BENCHMARK(BM_DiffPairDslInstantiate);

}  // namespace

int main(int argc, char** argv) {
  reportFig6();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
