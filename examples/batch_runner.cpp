// Batch module generation: run a manifest of DSL jobs through the
// gen::BatchEngine — many interpreters in parallel, one shared
// content-addressed layout cache, per-job diagnostics.
//
//   $ ./batch_runner ../scripts/sweep.manifest
//   $ ./batch_runner --jobs 8 --cache-dir .amg-cache --report batch.json
//         ../scripts/sweep.manifest   (one command line)
//
// A failing job never aborts the batch: it is reported with its
// file:line:col diagnostic (rendered caret-style against the script) and
// every other job still completes.  See docs/CLI.md for the manifest
// format and the full flag reference.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "capi/client.h"
#include "cli_common.h"
#include "gen/engine.h"
#include "gen/manifest.h"
#include "gen/replay.h"
#include "io/layout.h"
#include "io/svg.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "obs/stats_writer.h"
#include "tech/techfile.h"
#include "util/diag.h"

using namespace amg;

namespace {

void usage(const char* argv0, std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s [options] <manifest>\n"
      "  --jobs N        generate on N worker threads (0 = all hardware"
      " threads; default 0)\n"
      "  --tech T        override the manifest technology: bicmos1u, cmos2u"
      " or a .tech path\n"
      "  --no-cache      disable the result cache (every job generates)\n"
      "  --no-preflight  skip the static-analysis pre-flight (jobs that"
      " would be rejected fail at runtime instead)\n"
      "  --cache-mb N    in-memory cache budget in MiB (default 64)\n"
      "  --cache-dir D   also keep cache entries on disk under directory D\n"
      "  --no-prefix-cache     disable the compactor-prefix cache (every\n"
      "                  compaction step executes; docs/CACHING.md)\n"
      "  --prefix-cache-mb N   prefix-cache memory budget in MiB (default 64)\n"
      "  --prefix-cache-dir D  also keep prefix entries on disk under D\n"
      "  --report FILE   write the aggregate JSON report to FILE\n"
      "  --record FILE   record every job to an AMGT request trace; re-run\n"
      "                  and verify it with amg_replay (docs/OBSERVABILITY.md)\n"
      "  --svg PREFIX    write each successful layout as PREFIX_<job>.svg\n"
      "  --connect SOCK  thin-client mode: send the manifest to the amg_serve\n"
      "                  daemon on unix socket SOCK instead of running an\n"
      "                  in-process engine; engine-configuration flags are\n"
      "                  ignored (the server owns the engine; docs/SERVER.md)\n"
      "  --help          show this help and exit\n%s",
      argv0, obs::cliUsage());
}

/// One cache tier's counters as printed in the batch summary.
std::string tierCounts(const util::BlobStore::Stats& s) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%llu hit, %llu disk, %llu miss, %llu evicted",
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.diskHits),
                static_cast<unsigned long long>(s.misses),
                static_cast<unsigned long long>(s.evictions));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  obs::flight::installCrashHandlers();
  gen::EngineConfig cfg;
  std::string techOverride, reportPath, svgPrefix, recordPath, connectSock;
  obs::CliOptions obsOpts;
  std::vector<const char*> positional;

  auto value = [&](int& i, const char* flag) -> const char* {
    const std::size_t n = std::strlen(flag);
    if (std::strncmp(argv[i], flag, n) == 0 && argv[i][n] == '=') return argv[i] + n + 1;
    if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) return argv[++i];
    return nullptr;
  };

  for (int i = 1; i < argc; ++i) {
    if (const char* v = value(i, "--jobs"))
      cfg.threads = static_cast<std::size_t>(std::atol(v));
    else if (const char* v2 = value(i, "--tech"))
      techOverride = v2;
    else if (const char* v3 = value(i, "--cache-mb"))
      cfg.cache.maxBytes = static_cast<std::size_t>(std::atol(v3)) << 20;
    else if (const char* v4 = value(i, "--cache-dir"))
      cfg.cache.diskDir = v4;
    else if (const char* v5 = value(i, "--report"))
      reportPath = v5;
    else if (const char* v6 = value(i, "--svg"))
      svgPrefix = v6;
    else if (const char* v9 = value(i, "--record"))
      recordPath = v9;
    else if (const char* v10 = value(i, "--connect"))
      connectSock = v10;
    else if (const char* v7 = value(i, "--prefix-cache-mb"))
      cfg.prefix.maxBytes = static_cast<std::size_t>(std::atol(v7)) << 20;
    else if (const char* v8 = value(i, "--prefix-cache-dir"))
      cfg.prefix.diskDir = v8;
    else if (std::strcmp(argv[i], "--no-cache") == 0)
      cfg.useCache = false;
    else if (std::strcmp(argv[i], "--no-prefix-cache") == 0)
      cfg.prefixCache = false;
    else if (std::strcmp(argv[i], "--no-preflight") == 0)
      cfg.preflight = false;
    else if (std::strcmp(argv[i], "--help") == 0) {
      usage(argv[0], stdout);
      return 0;
    } else if (obs::parseCliFlag(argc, argv, i, obsOpts))
      continue;
    else
      positional.push_back(argv[i]);
  }
  if (positional.size() != 1) {
    usage(argv[0], stderr);
    return 2;
  }

  gen::Manifest manifest;
  std::shared_ptr<const tech::Technology> tech;
  try {
    manifest = gen::loadManifest(positional[0]);
    tech = tech::resolveTech(techOverride.empty() ? manifest.techSpec
                                                  : techOverride);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (manifest.jobs.empty()) {
    std::fprintf(stderr, "error: manifest '%s' declares no jobs\n", positional[0]);
    return 2;
  }

  if (!connectSock.empty()) {
    // Thin-client mode: the daemon owns the engine and every cache tier;
    // this process only speaks the wire protocol (docs/SERVER.md).
    if (!recordPath.empty()) {
      std::fprintf(stderr,
                   "error: --record is server-side in --connect mode; start "
                   "amg_serve with --record instead\n");
      return 2;
    }
    serve::GenerateRequest req;
    req.jobs = manifest.jobs;
    try {
      serve::Client client(connectSock);
      const serve::GenerateResponse resp = client.generate(req);
      if (!resp.errorCode.empty()) {
        std::fprintf(stderr, "error [%s]: %s\n", resp.errorCode.c_str(),
                     resp.errorMessage.c_str());
        return 1;
      }
      std::printf("%-28s %-6s %-9s %s\n", "job", "state", "wall (ms)",
                  "detail");
      std::size_t failed = 0;
      for (std::size_t i = 0; i < resp.results.size(); ++i) {
        const serve::WireResult& r = resp.results[i];
        if (r.ok) {
          const db::Module m = io::deserializeLayout(r.layout, *tech);
          const Box bb = m.bbox();
          std::printf("%-28s %-6s %-9.2f %zu rects, %.2f x %.2f um\n",
                      r.name.c_str(), r.cacheHit ? "hit" : "ok", r.wallMs,
                      m.shapeCount(), static_cast<double>(bb.width()) / kMicron,
                      static_cast<double>(bb.height()) / kMicron);
          if (!svgPrefix.empty())
            io::writeSvg(m, svgPrefix + "_" + r.name + ".svg");
        } else {
          ++failed;
          std::printf("%-28s %-6s %-9.2f %s\n", r.name.c_str(),
                      r.rejected ? "REJECT" : "FAIL", r.wallMs,
                      r.diagCode.c_str());
          util::Diag d;
          d.code = r.diagCode;
          d.message = r.diagMessage;
          d.hint = r.diagHint;
          d.loc.file = r.diagFile;
          d.loc.line = static_cast<int>(r.diagLine);
          d.loc.col = static_cast<int>(r.diagCol);
          cli::printDiag(d, manifest.jobs[i].script);
        }
      }
      std::printf(
          "batch (served): %zu jobs, %zu ok, %zu failed, %llu cache hits, "
          "%llu prefix steps restored in %.1f ms\n",
          resp.results.size(), resp.results.size() - failed, failed,
          static_cast<unsigned long long>(resp.cacheHits),
          static_cast<unsigned long long>(resp.prefixRestoredSteps),
          resp.wallMs);
      if (!reportPath.empty()) {
        obs::StatsWriter w("batch_runner");
        w.metric("jobs", static_cast<double>(resp.results.size()));
        w.metric("succeeded",
                 static_cast<double>(resp.results.size() - failed));
        w.metric("failed", static_cast<double>(failed));
        w.metric("cache_hits", static_cast<double>(resp.cacheHits));
        w.metric("prefix_restored_steps",
                 static_cast<double>(resp.prefixRestoredSteps));
        w.metric("wall_ms", resp.wallMs);
        w.flag("all_ok", failed == 0);
        w.flag("served", true);
        if (!w.write(reportPath))
          std::fprintf(stderr, "cannot write report '%s'\n",
                       reportPath.c_str());
        else
          std::printf("report written to %s\n", reportPath.c_str());
      }
      obs::finishCli(obsOpts);
      return failed == 0 ? 0 : 1;
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  gen::BatchEngine engine(*tech, cfg);
  std::optional<gen::EngineRecorder> recorder;
  if (!recordPath.empty()) {
    try {
      recorder.emplace(recordPath, "batch_runner",
                       techOverride.empty() ? manifest.techSpec : techOverride,
                       engine);
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  const gen::BatchReport report = engine.run(manifest.jobs);
  if (recorder) {
    recorder->append(manifest.jobs, report);
    std::printf("recorded %zu requests to %s\n", recorder->recordCount(),
                recordPath.c_str());
  }

  std::printf("%-28s %-6s %-9s %s\n", "job", "state", "wall (ms)", "detail");
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    const gen::JobResult& r = report.jobs[i];
    if (r.ok) {
      const Box bb = r.layout->bbox();
      std::printf("%-28s %-6s %-9.2f %zu rects, %.2f x %.2f um\n", r.name.c_str(),
                  r.cacheHit ? "hit" : "ok", r.wallMs, r.layout->shapeCount(),
                  static_cast<double>(bb.width()) / kMicron,
                  static_cast<double>(bb.height()) / kMicron);
      if (!svgPrefix.empty())
        io::writeSvg(*r.layout, svgPrefix + "_" + r.name + ".svg");
    } else {
      std::printf("%-28s %-6s %-9.2f %s\n", r.name.c_str(),
                  r.rejected ? "REJECT" : "FAIL", r.wallMs,
                  r.diag->code.c_str());
      // Caret rendering against the job's own script source.
      cli::printDiag(*r.diag, manifest.jobs[i].script);
    }
  }
  const util::BlobStore::Stats cs = engine.cache().store().stats();
  std::printf(
      "batch: %zu jobs, %zu ok, %zu failed (%zu rejected in pre-flight, "
      "%.2f ms), %zu cache hits in %.1f ms (cache: %s)\n",
      report.jobs.size(), report.succeeded, report.failed, report.rejected,
      report.preflightMs, report.cacheHits, report.wallMs,
      tierCounts(cs).c_str());
  if (const compact::PrefixCache* pc = engine.prefixCache())
    std::printf("prefix: %zu steps restored across %zu jobs (%s)\n",
                report.prefixRestoredSteps, report.jobs.size(),
                tierCounts(pc->store().stats()).c_str());

  if (!reportPath.empty()) {
    obs::StatsWriter w("batch_runner");
    for (const gen::JobResult& r : report.jobs)
      w.sample(r.ok ? r.name : r.name + ":" + r.diag->code,
               r.ok ? r.layout->shapeCount() : 0,
               r.ok ? (r.cacheHit ? "cache" : "generated") : "failed", r.wallMs);
    w.metric("jobs", static_cast<double>(report.jobs.size()));
    w.metric("succeeded", static_cast<double>(report.succeeded));
    w.metric("failed", static_cast<double>(report.failed));
    w.metric("rejected", static_cast<double>(report.rejected));
    w.metric("cache_hits", static_cast<double>(report.cacheHits));
    w.metric("cache_evictions", static_cast<double>(cs.evictions));
    w.metric("prefix_restored_steps",
             static_cast<double>(report.prefixRestoredSteps));
    if (const compact::PrefixCache* pc = engine.prefixCache()) {
      const util::BlobStore::Stats ps = pc->store().stats();
      w.metric("prefix_hits", static_cast<double>(ps.hits));
      w.metric("prefix_misses", static_cast<double>(ps.misses));
    }
    w.metric("wall_ms", report.wallMs);
    w.metric("preflight_ms", report.preflightMs);
    w.flag("all_ok", report.failed == 0);
    if (!w.write(reportPath))
      std::fprintf(stderr, "cannot write report '%s'\n", reportPath.c_str());
    else
      std::printf("report written to %s\n", reportPath.c_str());
  }
  obs::finishCli(obsOpts);
  return report.failed == 0 ? 0 : 1;
}
