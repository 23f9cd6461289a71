// Helpers shared by the example CLIs (dsl_runner, batch_runner, amg_lint).
// Header-only on purpose: examples/ builds each tool as its own target and
// none of this belongs in the installed libraries.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include <cstdlib>
#include <cstring>

#include "lang/interp.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "tech/builtin.h"
#include "tech/techfile.h"
#include "util/diag.h"

namespace amg::cli {

/// Render a diagnostic caret-style against the source it points into and
/// print it to `out`, e.g.
///
///   scripts/foo.amg:3:9: error [AMG-L001]: unknown entity 'Contct'
///       3 | c = Contct(W = 4)
///         |         ^
///   hint: entities must be declared with ENT ...
inline void printDiag(const util::Diag& d, std::string_view source,
                      std::string_view severity = "error",
                      std::FILE* out = stderr) {
  std::fprintf(out, "%s\n", util::renderDiag(d, source, severity).c_str());
}

/// Resolve a technology spec — a builtin deck name ("bicmos1u", "cmos2u")
/// or a .tech file path.  File-loaded decks are kept alive in `owned`.
/// Throws amg::Error on an unreadable/invalid tech file.
inline const tech::Technology* resolveTech(const std::string& spec,
                                           std::vector<tech::Technology>& owned) {
  if (spec.empty() || spec == "bicmos1u") return &tech::bicmos1u();
  if (spec == "cmos2u") return &tech::cmos2u();
  owned.push_back(tech::loadTechFile(spec));
  return &owned.back();
}

/// The standard observability trio (--trace / --stats / --log-level),
/// shared by every CLI so all tools present one obs-flag surface
/// (docs/CLI.md).  Thin forwarding wrappers over obs::parseCliFlag /
/// obs::finishCli so the tools only include this header.
inline bool parseObsFlag(int argc, char** argv, int& i, obs::CliOptions& o) {
  return obs::parseCliFlag(argc, argv, i, o);
}

/// End-of-run hook writing whatever the parsed obs flags asked for.
inline void finishObs(const obs::CliOptions& o) { obs::finishCli(o); }

/// Usage snippet for the trio, for the tools' --help text.
inline const char* obsUsage() { return obs::cliUsage(); }

/// Arm the always-on flight recorder's crash handlers (obs/flight.h): a
/// SIGSEGV/SIGABRT/std::terminate post-mortems itself with the recent
/// span/log/mark ring on stderr.  Every CLI calls this first thing.
inline void installFlight() { obs::flight::installCrashHandlers(); }

}  // namespace amg::cli
