// E9 (§2.5): source-code length of the language vs. coordinate-level
// generators.
//
// "Using this hierarchical description for the module, a very short and
// easy to read code results.  Former methods for equivalent generation by
// describing each rectangle with its exact coordinates needed a multiple of
// this source code and were much more difficult to construct and to
// maintain [11]."  The paper also quotes ~180 lines for module E's source.
//
// The coordinate-level baselines live in tests/baseline/handcrafted.cpp and
// are measured with __LINE__ markers; the DSL sources are the scripts the
// tests execute.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "baseline/handcrafted.h"
#include "lang/interp.h"
#include "modules/dsl_sources.h"
#include "tech/builtin.h"

using namespace amg;

namespace {

const tech::Technology& T() { return tech::bicmos1u(); }

void reportE9() {
  std::printf("=== E9 / §2.5: code length, language vs. coordinates ===\n");
  std::printf("%-18s %12s %18s %8s\n", "module", "DSL lines", "coordinate lines",
              "ratio");
  const struct {
    const char* name;
    modules::handcrafted::CodeSize size;
  } rows[] = {
      {"contact row", modules::handcrafted::contactRowCodeSize()},
      {"MOS transistor", modules::handcrafted::mosTransistorCodeSize()},
      {"diff pair", modules::handcrafted::diffPairCodeSize()},
  };
  for (const auto& r : rows)
    std::printf("%-18s %12d %18d %7.1fx\n", r.name, r.size.dslLines,
                r.size.explicitLines,
                static_cast<double>(r.size.explicitLines) / r.size.dslLines);
  std::printf("(paper: coordinate methods \"needed a multiple of this source "
              "code\"; module E was ~180 lines in the language)\n");

  // Results must agree, not just be shorter: compare the generated areas.
  const db::Module viaDsl = lang::runScript(
      T(),
      "diff = DiffPair(W = 10, L = 2)\n" + std::string(modules::dsl::kContactRow) +
          modules::dsl::kTrans + modules::dsl::kDiffPair,
      "diff");
  const db::Module viaCoords = modules::handcrafted::diffPairExplicit(T(), um(10), um(2));
  std::printf("diff pair area: DSL %.0f um^2, coordinate-level %.0f um^2 "
              "(generated is %s)\n\n",
              static_cast<double>(viaDsl.area()) / (kMicron * kMicron),
              static_cast<double>(viaCoords.area()) / (kMicron * kMicron),
              viaDsl.area() <= viaCoords.area() ? "no larger" : "larger");
}

void BM_ParseAndLoadLibrary(benchmark::State& state) {
  const std::string src = std::string(modules::dsl::kContactRow) +
                          modules::dsl::kTrans + modules::dsl::kDiffPair;
  for (auto _ : state) {
    lang::Interpreter in(T());
    in.load(src);
    benchmark::DoNotOptimize(&in);
  }
}
BENCHMARK(BM_ParseAndLoadLibrary);

void BM_HandcraftedDiffPair(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(modules::handcrafted::diffPairExplicit(T(), um(10), um(2)));
}
BENCHMARK(BM_HandcraftedDiffPair);

}  // namespace

int main(int argc, char** argv) {
  reportE9();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
