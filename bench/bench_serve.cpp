// E14: what the resident amg_serve daemon adds to a warm generation.
//
// The workload is a 20-job parameter sweep whose entities compact a
// 140-step shared column (the bench_batch shape).  Two warm contenders
// run it, alternating for kRounds rounds:
//
//   * served     -> a serve::Client in this process sends the manifest as
//     one GENERATE frame to a spawned, already warm amg_serve (the launch
//     is not timed): frame encode/decode, the dispatcher, the engine's
//     cache hits and the layouts' serialization;
//   * in-process -> a warm gen::BatchEngine in this process runs the same
//     jobs: the cache hits alone.
//
// Both record their runs to an AMGT trace, so the two sides do the same
// engine work.  Each side's median ms per job over the rounds gives the
// overhead factor served / in-process: what the daemon's request path
// costs per job.  A cold `batch_runner <manifest>` process launch is
// timed too, as information only (cold_ms).
//
// Gates (non-zero exit on failure, BENCH_serve.json for the CI trend):
//   * served layouts byte-identical to a cold in-process gen::BatchEngine
//     run of the same manifest;
//   * overhead factor <= kMaxOverhead;
//   * the daemon's --record AMGT trace replays divergence-free and its
//     per-request outcomes match a batch_runner --record trace of the
//     same manifest (outcome digests ignore cache context by design).
#include <benchmark/benchmark.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "capi/client.h"
#include "gen/engine.h"
#include "gen/manifest.h"
#include "gen/replay.h"
#include "io/layout.h"
#include "obs/stats_writer.h"
#include "tech/builtin.h"

using namespace amg;

namespace {

constexpr int kColdRuns = 5;
/// Alternating served / in-process rounds; each side reports its median.
constexpr int kRounds = 31;
/// Bound on served / in-process ms per job (EXPERIMENTS.md E14 has the
/// runs it was set from).
constexpr double kMaxOverhead = 4.5;

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

const char* kSweepLib = R"(
ENT Cell(<W>, <L>)
  TWORECTS("poly", "pdiff", W, L)
  INBOX("metal1")

ENT Sweep(rows, <W>)
  INBOX("pdiff", 4, 4)
  FOR k = 1 TO rows DO
    c = Cell(W = 6, L = 2)
    compact(c, EAST, "poly")
  ENDFOR
  tail = Cell(W = W, L = 2)
  compact(tail, EAST, "poly")
)";

struct Workbench {
  std::filesystem::path dir;
  std::string manifest;
  std::string sock;
  std::string servedTrace;
  std::string coldTrace;
  std::string inprocTrace;
};

Workbench makeWorkbench() {
  Workbench w;
  w.dir = std::filesystem::temp_directory_path() /
          ("amg-bench-serve-" + std::to_string(::getpid()));
  std::filesystem::create_directories(w.dir);
  {
    std::ofstream f(w.dir / "sweep.amg");
    f << kSweepLib;
  }
  {
    std::ofstream f(w.dir / "serve.manifest");
    f << "tech bicmos1u\n"
         "sweep name=sw script=sweep.amg entity=Sweep rows=140 W=6:25:1\n";
  }
  w.manifest = (w.dir / "serve.manifest").string();
  // Unix socket paths cap at ~107 bytes — keep it short and flat.
  w.sock = "/tmp/amg-bench-" + std::to_string(::getpid()) + ".sock";
  w.servedTrace = (w.dir / "served.amgt").string();
  w.coldTrace = (w.dir / "cold.amgt").string();
  w.inprocTrace = (w.dir / "inproc.amgt").string();
  return w;
}

/// Spawn a child process, silence its stdout, wait for exit; returns the
/// wall time in ms, or -1 when the child failed.
double runProcess(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args)
    argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  std::fflush(stdout);  // or the child's freopen re-flushes our buffer
  const auto t0 = std::chrono::steady_clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    std::freopen("/dev/null", "w", stdout);
    ::execv(argv[0], argv.data());
    std::_Exit(127);  // execv only returns on failure
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  const auto t1 = std::chrono::steady_clock::now();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1;
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Spawn a long-running child (the daemon) without waiting.
pid_t spawnDaemon(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (const std::string& a : args)
    argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::freopen("/dev/null", "w", stdout);
    ::execv(argv[0], argv.data());
    std::_Exit(127);
  }
  return pid;
}

bool waitForDaemon(const std::string& sock) {
  for (int i = 0; i < 100; ++i) {
    try {
      serve::Client client(sock);
      client.ping();
      return true;
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  return false;
}

bool reportE14() {
  const Workbench wb = makeWorkbench();
  const std::string batchRunner = AMG_BATCH_RUNNER_BIN;
  const std::string amgServe = AMG_SERVE_BIN;

  const gen::Manifest manifest = gen::loadManifest(wb.manifest);
  const double jobs = static_cast<double>(manifest.jobs.size());
  std::printf(
      "=== E14: what the daemon adds to a warm generation (%zu-job sweep, "
      "140-step shared prefix) ===\n\n",
      manifest.jobs.size());

  // Cold process launches, information only (plus one recording pass for
  // the trace-equality gate, not timed).
  double coldMs = 0;
  bool coldOk = true;
  for (int i = 0; i < kColdRuns; ++i) {
    const double ms = runProcess({batchRunner, wb.manifest});
    if (ms < 0) coldOk = false;
    coldMs += ms / kColdRuns;
  }
  coldOk = coldOk &&
           runProcess({batchRunner, "--record", wb.coldTrace, wb.manifest}) >= 0;

  // One resident daemon, warmed by a batch_runner --connect fill pass.
  const pid_t daemon = spawnDaemon(
      {amgServe, "--socket", wb.sock, "--record", wb.servedTrace});
  bool servedOk = waitForDaemon(wb.sock);
  if (servedOk)  // fill pass: the daemon generates once, cold (not timed)
    servedOk = runProcess({batchRunner, "--connect", wb.sock, wb.manifest}) >= 0;

  // The in-process contender, warmed by one cold run whose layouts are the
  // byte-identity reference.
  gen::BatchEngine local(tech::bicmos1u(), {});
  gen::EngineRecorder localTrace(wb.inprocTrace, "bench_serve", "bicmos1u",
                                 local);
  const gen::BatchReport cold = local.run(manifest.jobs);
  localTrace.append(manifest.jobs, cold);

  std::vector<double> servedPerJob, inprocPerJob;
  bool byteIdentical = false;
  if (servedOk) {
    try {
      serve::Client client(wb.sock);
      serve::GenerateRequest req;
      req.jobs = manifest.jobs;
      serve::GenerateResponse resp;
      for (int round = 0; round < kRounds; ++round) {
        // Alternate which side goes first, so neither always runs on the
        // caches (and CPU state) the other just left.
        for (int side = 0; side < 2; ++side) {
          if ((side == 0) == (round % 2 == 0)) {
            const Clock::time_point t0 = Clock::now();
            resp = client.generate(req);
            servedPerJob.push_back(msSince(t0) / jobs);
          } else {
            const Clock::time_point t0 = Clock::now();
            const gen::BatchReport warm = local.run(manifest.jobs);
            localTrace.append(manifest.jobs, warm);
            inprocPerJob.push_back(msSince(t0) / jobs);
          }
        }
      }
      byteIdentical = resp.errorCode.empty() &&
                      resp.results.size() == cold.jobs.size() &&
                      cold.failed == 0;
      for (std::size_t i = 0; byteIdentical && i < cold.jobs.size(); ++i)
        byteIdentical = resp.results[i].layout ==
                        io::serializeLayout(*cold.jobs[i].layout);
      client.shutdown();  // graceful drain closes the recording
    } catch (const std::exception& e) {
      std::fprintf(stderr, "served rounds error: %s\n", e.what());
      servedOk = false;
    }
  }
  if (daemon > 0) {
    ::kill(daemon, SIGTERM);  // no-op when the drain already exited it
    int status = 0;
    ::waitpid(daemon, &status, 0);
  }

  // Trace gates: the served recording replays divergence-free, and its
  // fill pass matches the cold batch_runner recording outcome-for-outcome
  // (digests ignore cacheHit/wallMs context by design).
  bool replayClean = false, traceMatch = false;
  std::size_t servedRecords = 0;
  try {
    obs::TraceFile served = obs::readTraceFile(wb.servedTrace);
    const obs::TraceFile coldTrace = obs::readTraceFile(wb.coldTrace);
    servedRecords = served.requests.size();
    replayClean = gen::replayTrace(served, tech::bicmos1u(), {}).clean();
    if (served.requests.size() >= coldTrace.requests.size())
      served.requests.resize(coldTrace.requests.size());  // fill pass slice
    traceMatch = !coldTrace.requests.empty() &&
                 gen::compareTraces(served, coldTrace).clean();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace gate error: %s\n", e.what());
  }

  const double servedMs = median(servedPerJob);
  const double inprocMs = median(inprocPerJob);
  const double overhead = inprocMs > 0 ? servedMs / inprocMs : 0;
  const bool overheadOk = servedOk && overhead > 0 && overhead <= kMaxOverhead;
  std::printf("%-36s %10.1f ms/run  (information only)\n",
              "cold batch_runner process", coldMs);
  std::printf("%-36s %10.3f ms/job  (median of %d rounds)\n",
              "warm daemon, one GENERATE frame", servedMs, kRounds);
  std::printf("%-36s %10.3f ms/job  (median of %d rounds)\n\n",
              "warm in-process gen::BatchEngine", inprocMs, kRounds);
  std::printf("both contenders ran clean: %s\n",
              coldOk && servedOk ? "ok" : "FAILED");
  std::printf("served layouts byte-identical to in-process engine: %s\n",
              byteIdentical ? "ok" : "FAILED");
  std::printf("daemon overhead: %.2fx in-process  (<= %.1fx requirement: %s)\n",
              overhead, kMaxOverhead, overheadOk ? "PASS" : "FAIL");
  std::printf("served AMGT trace (%zu records) replays clean: %s\n",
              servedRecords, replayClean ? "ok" : "FAILED");
  std::printf("served trace matches cold batch_runner trace: %s\n",
              traceMatch ? "ok" : "FAILED");

  obs::StatsWriter w("serve");
  w.sample("sweep", manifest.jobs.size(), "cold_process", coldMs);
  w.sample("sweep", manifest.jobs.size(), "warm_served_per_job", servedMs);
  w.sample("sweep", manifest.jobs.size(), "warm_inproc_per_job", inprocMs);
  w.metric("cold_ms", coldMs);
  w.metric("served_ms_per_job", servedMs);
  w.metric("inproc_ms_per_job", inprocMs);
  w.metric("served_overhead", overhead);
  w.flag("byte_identical", byteIdentical);
  w.flag("served_overhead_ok", overheadOk);
  w.flag("replay_clean", replayClean);
  w.flag("trace_match", traceMatch);
  if (w.write("BENCH_serve.json")) std::printf("\nwrote BENCH_serve.json\n");

  std::error_code ec;
  std::filesystem::remove_all(wb.dir, ec);
  ::unlink(wb.sock.c_str());
  return coldOk && servedOk && byteIdentical && overheadOk && replayClean &&
         traceMatch;
}

}  // namespace

int main(int argc, char** argv) {
  const bool ok = reportE14();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return ok ? 0 : 1;
}
