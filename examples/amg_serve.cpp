// amg_serve: generation-as-a-service.  A long-lived daemon that keeps the
// rule deck, the compiled-chunk cache, the whole-layout cache and the
// compactor-prefix cache resident in one process and serves generation
// requests over a unix domain socket — so a warm request costs a cache
// lookup, not a process launch plus a cold engine.
//
//   $ ./amg_serve --socket /tmp/amg.sock &
//   $ ./batch_runner --connect /tmp/amg.sock ../scripts/sweep.manifest
//
// Concurrent clients multiplex over one engine: queued requests coalesce
// into engine batches (the worker pool fans them out) under admission
// control — a full queue rejects with AMG-SRV-002, a queue deadline expires
// with AMG-SRV-003, and SIGTERM/SIGINT begins a graceful drain (finish
// queued work, refuse new work with AMG-SRV-004, exit).  docs/SERVER.md
// has the wire protocol and the operations runbook.
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "capi/server.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "util/version.h"

using namespace amg;

namespace {

/// Self-pipe armed by the SIGTERM/SIGINT handler; main() parks on it and
/// runs the drain outside signal context (write() is async-signal-safe,
/// Server::drain() is not).
int gSigPipe[2] = {-1, -1};

void onSignal(int) {
  const char b = 1;
  [[maybe_unused]] const ssize_t w = ::write(gSigPipe[1], &b, 1);
}

void usage(const char* argv0, std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s --socket PATH [options]\n"
      "  --socket PATH   unix socket to listen on (required; keep it short,\n"
      "                  unix socket paths cap at ~107 bytes)\n"
      "  --tech T        technology: bicmos1u (default), cmos2u or a .tech"
      " path\n"
      "  --jobs N        engine worker threads (0 = all hardware threads)\n"
      "  --no-cache      disable the whole-layout result cache\n"
      "  --no-prefix-cache  disable the compactor-prefix cache\n"
      "  --cache-dir D   layout-cache disk tier under directory D\n"
      "  --max-queued N  admission limit: reject (AMG-SRV-002) when N jobs\n"
      "                  are already queued (default 1024)\n"
      "  --timeout-ms N  default queue deadline per request (default 30000)\n"
      "  --record FILE   record every served job to an AMGT request trace\n"
      "                  (closed on drain; verify with amg_replay)\n"
      "  --help          show this help and exit\n%s",
      argv0, obs::cliUsage());
}

}  // namespace

int main(int argc, char** argv) {
  obs::flight::installCrashHandlers();
  serve::ServerConfig cfg;
  obs::CliOptions obsOpts;

  auto value = [&](int& i, const char* flag) -> const char* {
    const std::size_t n = std::strlen(flag);
    if (std::strncmp(argv[i], flag, n) == 0 && argv[i][n] == '=') return argv[i] + n + 1;
    if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) return argv[++i];
    return nullptr;
  };

  for (int i = 1; i < argc; ++i) {
    if (const char* v = value(i, "--socket"))
      cfg.socketPath = v;
    else if (const char* v2 = value(i, "--tech"))
      cfg.tech = v2;
    else if (const char* v3 = value(i, "--jobs"))
      cfg.threads = static_cast<std::size_t>(std::atol(v3));
    else if (const char* v4 = value(i, "--cache-dir"))
      cfg.cacheDir = v4;
    else if (const char* v5 = value(i, "--max-queued"))
      cfg.maxQueuedJobs = static_cast<std::size_t>(std::atol(v5));
    else if (const char* v6 = value(i, "--timeout-ms"))
      cfg.defaultQueueTimeoutMs = static_cast<std::uint32_t>(std::atol(v6));
    else if (const char* v7 = value(i, "--record"))
      cfg.recordPath = v7;
    else if (std::strcmp(argv[i], "--no-cache") == 0)
      cfg.cache = false;
    else if (std::strcmp(argv[i], "--no-prefix-cache") == 0)
      cfg.prefixCache = false;
    else if (obs::parseCliFlag(argc, argv, i, obsOpts))
      continue;
    else if (std::strcmp(argv[i], "--help") == 0) {
      usage(argv[0], stdout);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      usage(argv[0], stderr);
      return 2;
    }
  }
  if (cfg.socketPath.empty()) {
    usage(argv[0], stderr);
    return 2;
  }

  if (::pipe(gSigPipe) < 0) {
    std::perror("pipe");
    return 2;
  }
  struct sigaction sa = {};
  sa.sa_handler = onSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // dead clients surface as send() errors

  serve::Server server(cfg);
  try {
    server.start();
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::printf("%s serving on %s (tech %s, %s)\n", util::kVersionString,
              cfg.socketPath.c_str(),
              cfg.tech.empty() ? "bicmos1u" : cfg.tech.c_str(),
              cfg.recordPath.empty()
                  ? "not recording"
                  : ("recording to " + cfg.recordPath).c_str());
  std::fflush(stdout);

  // Park until a signal or a SHUTDOWN frame drains the server.
  pollfd pfd = {gSigPipe[0], POLLIN, 0};
  while (!server.draining()) {
    const int rc = ::poll(&pfd, 1, 200);
    if (rc < 0 && errno != EINTR) break;
    if (rc > 0 && (pfd.revents & POLLIN) != 0) {
      server.drain();
      break;
    }
  }
  server.wait();
  const serve::StatsResponse s = server.statsSnapshot();
  std::printf(
      "drained: %llu requests (%llu jobs) served, %llu busy-rejected, "
      "%llu timed out\n",
      static_cast<unsigned long long>(s.requestsServed),
      static_cast<unsigned long long>(s.jobsServed),
      static_cast<unsigned long long>(s.busyRejected),
      static_cast<unsigned long long>(s.timedOut));
  obs::finishCli(obsOpts);
  return 0;
}
