// Run a layout-description-language script from a file, like the paper's
// interactive environment: every object the calling sequence binds is
// reported and written as SVG.
//
//   $ ./dsl_runner ../scripts/diffpair.amg
//   $ ./dsl_runner ../scripts/contact_row.amg out_prefix
//   $ ./dsl_runner --jobs 4 ../scripts/amplifier.amg
//   $ ./dsl_runner --trace run.json --stats ../scripts/variants.amg
//
// --jobs N checks the produced objects' design rules on N threads
// (0 = all hardware threads; default 1).  --lint statically analyzes the
// script first (see docs/LINT.md); errors stop the run before any
// geometry is built.  The observability flags (--trace/--stats/
// --log-level) are shared with full_flow; see obs/obs.h.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "analysis/analyzer.h"
#include "cli_common.h"
#include "drc/drc.h"
#include "gen/fingerprint.h"
#include "gen/replay.h"
#include "io/layout.h"
#include "io/svg.h"
#include "lang/interp.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "obs/recorder.h"
#include "tech/builtin.h"
#include "util/diag.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace {

void usage(const char* argv0, std::FILE* out) {
  std::fprintf(out,
               "usage: %s [options] <script.amg> [output-prefix]\n"
               "  --jobs N        check design rules on N threads (0 = all"
               " hardware threads; default 1)\n"
               "  --lint          statically analyze the script before running"
               " it; lint errors stop the run (docs/LINT.md)\n"
               "  --record FILE   record each produced object as an AMGT\n"
               "                  request trace (replay with amg_replay)\n"
               "  --help          show this help and exit\n%s",
               argv0, amg::obs::cliUsage());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace amg;
  obs::flight::installCrashHandlers();
  std::size_t jobs = 1;
  bool lint = false;
  std::string recordPath;
  obs::CliOptions obsOpts;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--jobs=", 7) == 0)
      jobs = static_cast<std::size_t>(std::atol(argv[i] + 7));
    else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc)
      jobs = static_cast<std::size_t>(std::atol(argv[++i]));
    else if (std::strcmp(argv[i], "--lint") == 0)
      lint = true;
    else if (std::strncmp(argv[i], "--record=", 9) == 0)
      recordPath = argv[i] + 9;
    else if (std::strcmp(argv[i], "--record") == 0 && i + 1 < argc)
      recordPath = argv[++i];
    else if (std::strcmp(argv[i], "--help") == 0) {
      usage(argv[0], stdout);
      return 0;
    } else if (obs::parseCliFlag(argc, argv, i, obsOpts))
      continue;
    else
      positional.push_back(argv[i]);
  }
  if (positional.empty()) {
    usage(argv[0], stderr);
    return 2;
  }
  std::ifstream f(positional[0]);
  if (!f) {
    std::fprintf(stderr, "cannot open '%s'\n", positional[0]);
    return 2;
  }
  std::ostringstream src;
  src << f.rdbuf();
  const std::string prefix = positional.size() > 1 ? positional[1] : "dsl";

  const tech::Technology& t = tech::bicmos1u();

  if (lint) {
    analysis::Options opt;
    opt.tech = &t;
    const analysis::Report rep =
        analysis::analyzeSource(src.str(), positional[0], opt);
    for (const analysis::Finding& fd : rep.findings)
      cli::printDiag(fd.diag, src.str(), analysis::severityName(fd.severity));
    if (rep.errors > 0) {
      std::fprintf(stderr, "lint: %zu error(s), %zu warning(s); not running\n",
                   rep.errors, rep.warnings);
      return 1;
    }
  }

  std::optional<obs::Recorder> recorder;
  if (!recordPath.empty()) {
    obs::TraceHeader hdr;
    hdr.tool = "dsl_runner";
    hdr.techSpec = "bicmos1u";
    hdr.techFingerprint = gen::techFingerprint(t);
    // dsl_runner has no cache tiers; replay under the same conditions.
    hdr.cacheEnabled = false;
    hdr.prefixCacheEnabled = false;
    try {
      recorder.emplace(recordPath, std::move(hdr));
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  lang::Interpreter in(t);
  obs::Span runSpan("dsl.run");
  try {
    in.run(src.str(), positional[0]);
  } catch (const util::DiagError& e) {
    // A failed whole-script run cannot be re-executed per object; record
    // it as one External request so --against diffs still see it.
    if (recorder) {
      obs::RequestRecord rec;
      rec.kind = obs::RequestKind::External;
      rec.name = positional[0];
      rec.scriptPath = positional[0];
      rec.outcome.ok = false;
      rec.outcome.diagCode = e.diag().code;
      rec.outcome.wallMs = runSpan.elapsedSeconds() * 1e3;
      recorder->append(rec);
    }
    // Caret-style rendering against the offending source line.
    cli::printDiag(e.diag(), src.str());
    return 1;
  } catch (const Error& e) {
    if (recorder) {
      obs::RequestRecord rec;
      rec.kind = obs::RequestKind::External;
      rec.name = positional[0];
      rec.scriptPath = positional[0];
      rec.outcome.ok = false;
      rec.outcome.diagCode = "AMG-GEN-001";
      rec.outcome.wallMs = runSpan.elapsedSeconds() * 1e3;
      recorder->append(rec);
    }
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const double runMs = runSpan.elapsedSeconds() * 1e3;

  for (const std::string& line : in.output()) std::printf("print: %s\n", line.c_str());

  std::printf("%-16s %-8s %-18s %s\n", "object", "rects", "size (um)", "drc");
  // Collect the global objects, check them in parallel (each module is an
  // independent read-only check), then report in name order.
  std::vector<std::pair<std::string, const db::Module*>> objects;
  for (const auto& [name, v] : in.globals())
    if (v.kind() == lang::Value::Kind::Object) objects.emplace_back(name, &v.asObject());
  std::vector<std::size_t> violationCount(objects.size());
  util::parallelFor(
      objects.size(),
      [&](std::size_t i) {
        drc::CheckOptions opts;
        opts.latchUp = false;
        violationCount[i] = drc::check(*objects[i].second, opts).size();
      },
      jobs);
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const auto& [name, m] = objects[i];
    const Box bb = m->bbox();
    char size[64];
    std::snprintf(size, sizeof size, "%.2f x %.2f",
                  static_cast<double>(bb.width()) / kMicron,
                  static_cast<double>(bb.height()) / kMicron);
    std::printf("%-16s %-8zu %-18s %s\n", name.c_str(), m->shapeCount(), size,
                violationCount[i] == 0 ? "clean" : "VIOLATIONS");
    io::writeSvg(*m, prefix + "_" + name + ".svg");
  }
  // One Script-kind request per produced object: replaying any of them
  // re-runs the whole script and takes that global as the product, so the
  // recorded whole-run counters are exactly what a replay reproduces.
  if (recorder) {
    for (const auto& [name, m] : objects) {
      gen::Job job;
      job.name = name;
      job.scriptPath = positional[0];
      job.script = src.str();
      job.resultVar = name;
      gen::JobResult res;
      res.name = name;
      res.ok = true;
      db::Module copy = *m;
      // The batch engine stamps the job name onto anonymous modules before
      // serializing; hash the same bytes a replay will.
      if (copy.name().empty()) copy.setName(name);
      const std::vector<std::uint8_t> bytes = io::serializeLayout(copy);
      res.layoutHash = util::fnv1a(
          std::string_view(reinterpret_cast<const char*>(bytes.data()),
                           bytes.size()));
      res.layout = std::move(copy);
      res.statements = in.stats().statementsExecuted;
      res.entityCalls = in.stats().entityCalls;
      res.compactions = in.stats().compactions;
      res.variantRollbacks = in.stats().variantRollbacks;
      res.prefixRestored = in.stats().prefixRestored;
      res.wallMs = runMs;
      recorder->append(gen::recordOf(job, res));
    }
    std::printf("recorded %zu requests to %s\n", recorder->recordCount(),
                recordPath.c_str());
  }
  std::printf("interpreter: %zu statements, %zu entity calls, %zu compactions\n",
              in.stats().statementsExecuted, in.stats().entityCalls,
              in.stats().compactions);
  obs::finishCli(obsOpts);
  return 0;
}
