// Replay a recorded request trace (obs/recorder.h) and verify that the
// engine still produces byte-identical outcomes.
//
//   $ ./amg_replay sweep.amgt                    # recorded configuration
//   $ ./amg_replay --no-cache --jobs 1 sweep.amgt
//   $ ./amg_replay --against other.amgt sweep.amgt   # diff two recordings
//   $ ./amg_replay --list sweep.amgt             # print the trace, run nothing
//
// Exit status: 0 = every request matched, 1 = at least one divergence,
// 2 = usage or I/O error.  On the first divergence the report names the
// request, prints both digests and every differing outcome field.
//
// --perturb N flips the recorded layout hash of request N before
// replaying — a self-test that the divergence machinery actually fails
// (CI runs it and asserts exit status 1).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "gen/fingerprint.h"
#include "gen/replay.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "obs/recorder.h"
#include "tech/techfile.h"
#include "util/diag.h"

using namespace amg;

namespace {

void usage(const char* argv0, std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s [options] <trace.amgt>\n"
      "  --tech T        replay under this deck instead of the recorded\n"
      "                  spec: bicmos1u, cmos2u, or a .tech path\n"
      "  --no-cache      force the layout cache off for the replay\n"
      "  --cache         force the layout cache on for the replay\n"
      "  --no-prefix-cache  force the compactor-prefix tier off\n"
      "  --jobs N        worker threads (0 = all hardware threads)\n"
      "  --against FILE  diff FILE against the trace record-by-record\n"
      "                  without executing anything (External kinds too)\n"
      "  --perturb N     flip request N's recorded layout hash first\n"
      "                  (self-test: the replay MUST diverge)\n"
      "  --list          print the trace header and requests, run nothing\n"
      "  --help          show this help and exit\n%s",
      argv0, obs::cliUsage());
}

const char* kindName(obs::RequestKind k) {
  switch (k) {
    case obs::RequestKind::Script:
      return "script";
    case obs::RequestKind::Entity:
      return "entity";
    case obs::RequestKind::External:
      return "external";
  }
  return "?";
}

void printDivergence(const gen::Divergence& d) {
  std::printf("DIVERGENCE at request %zu '%s':\n", d.index, d.name.c_str());
  std::printf("  digest: recorded %016" PRIx64 "  replayed %016" PRIx64 "\n",
              d.recordedDigest, d.replayedDigest);
  for (const auto& [field, rec, rep] : d.deltas())
    std::printf("  %-17s recorded %" PRIu64 "  replayed %" PRIu64 "\n",
                field.c_str(), rec, rep);
  if (d.recorded.diagCode != d.replayed.diagCode)
    std::printf("  %-17s recorded '%s'  replayed '%s'\n", "diag_code",
                d.recorded.diagCode.c_str(), d.replayed.diagCode.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  obs::flight::installCrashHandlers();
  std::string techSpec, againstPath;
  gen::ReplayOptions opt;
  bool list = false;
  long perturb = -1;
  obs::CliOptions obsOpts;
  std::vector<const char*> positional;

  for (int i = 1; i < argc; ++i) {
    if (obs::parseCliFlag(argc, argv, i, obsOpts)) continue;
    if (std::strncmp(argv[i], "--tech=", 7) == 0)
      techSpec = argv[i] + 7;
    else if (std::strcmp(argv[i], "--tech") == 0 && i + 1 < argc)
      techSpec = argv[++i];
    else if (std::strncmp(argv[i], "--against=", 10) == 0)
      againstPath = argv[i] + 10;
    else if (std::strcmp(argv[i], "--against") == 0 && i + 1 < argc)
      againstPath = argv[++i];
    else if (std::strncmp(argv[i], "--jobs=", 7) == 0)
      opt.threads = static_cast<std::size_t>(std::atol(argv[i] + 7));
    else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc)
      opt.threads = static_cast<std::size_t>(std::atol(argv[++i]));
    else if (std::strncmp(argv[i], "--perturb=", 10) == 0)
      perturb = std::atol(argv[i] + 10);
    else if (std::strcmp(argv[i], "--perturb") == 0 && i + 1 < argc)
      perturb = std::atol(argv[++i]);
    else if (std::strcmp(argv[i], "--no-cache") == 0)
      opt.useCache = false;
    else if (std::strcmp(argv[i], "--cache") == 0)
      opt.useCache = true;
    else if (std::strcmp(argv[i], "--no-prefix-cache") == 0)
      opt.noPrefixCache = true;
    else if (std::strcmp(argv[i], "--list") == 0)
      list = true;
    else if (std::strcmp(argv[i], "--help") == 0) {
      usage(argv[0], stdout);
      return 0;
    } else if (argv[i][0] == '-' && argv[i][1] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      usage(argv[0], stderr);
      return 2;
    } else
      positional.push_back(argv[i]);
  }
  if (positional.size() != 1) {
    usage(argv[0], stderr);
    return 2;
  }

  obs::TraceFile trace;
  try {
    trace = obs::readTraceFile(positional[0]);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  if (perturb >= 0) {
    if (static_cast<std::size_t>(perturb) >= trace.requests.size()) {
      std::fprintf(stderr, "--perturb %ld: trace has only %zu request(s)\n",
                   perturb, trace.requests.size());
      return 2;
    }
    trace.requests[static_cast<std::size_t>(perturb)].outcome.layoutHash ^=
        0x1;
    std::printf("perturbed request %ld's recorded layout hash (self-test:"
                " expecting a divergence)\n",
                perturb);
  }

  const obs::TraceHeader& h = trace.header;
  std::printf("trace %s: tool=%s tech=%s fp=%016" PRIx64
              " cache=%s prefix=%s, %zu request(s)\n",
              positional[0], h.tool.c_str(), h.techSpec.c_str(),
              h.techFingerprint, h.cacheEnabled ? "on" : "off",
              h.prefixCacheEnabled ? "on" : "off", trace.requests.size());

  if (list) {
    for (std::size_t i = 0; i < trace.requests.size(); ++i) {
      const obs::RequestRecord& r = trace.requests[i];
      std::printf("  [%zu] %-8s %-24s %s layout=%016" PRIx64
                  " shapes=%" PRIu64 "%s%s\n",
                  i, kindName(r.kind), r.name.c_str(),
                  r.outcome.ok ? "ok  " : "FAIL", r.outcome.layoutHash,
                  r.outcome.shapeCount,
                  r.outcome.diagCode.empty() ? "" : " ",
                  r.outcome.diagCode.c_str());
    }
    obs::finishCli(obsOpts);
    return 0;
  }

  gen::ReplayReport report;
  if (!againstPath.empty()) {
    // Pure record-by-record diff of two recordings: nothing re-executes,
    // so External records (full_flow, failed whole-script runs) compare
    // too.
    obs::TraceFile other;
    try {
      other = obs::readTraceFile(againstPath);
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    report = gen::compareTraces(trace, other);
    std::printf("compared against %s: %zu record(s), %zu matched\n",
                againstPath.c_str(), report.total, report.matched);
  } else {
    // Replayed traces need a live technology; the recorded spec resolves
    // exactly like every other CLI's --tech (builtin name or .tech path).
    std::shared_ptr<const tech::Technology> tech;
    try {
      tech = tech::resolveTech(techSpec.empty() ? h.techSpec : techSpec);
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    const std::uint64_t fp = gen::techFingerprint(*tech);
    if (fp != h.techFingerprint)
      std::printf("warning: technology fingerprint differs from the"
                  " recording (%016" PRIx64 " vs %016" PRIx64 ") —"
                  " divergences may be the deck, not the engine\n",
                  fp, h.techFingerprint);

    report = gen::replayTrace(trace, *tech, opt);
    std::printf("replayed %zu of %zu request(s) (%zu external skipped)"
                " in %.1f ms: %zu matched\n",
                report.executed, report.total, report.skippedExternal,
                report.wallMs, report.matched);
  }

  for (const gen::Divergence& d : report.divergences) printDivergence(d);
  if (report.clean())
    std::printf("replay clean: every outcome digest matched\n");
  else
    std::printf("replay FAILED: %zu divergence(s)\n",
                report.divergences.size());
  obs::finishCli(obsOpts);
  return report.clean() ? 0 : 1;
}
