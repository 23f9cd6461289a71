// amg_serve integration tests, run in-process against serve::Server (the
// library the daemon CLI wraps): protocol round-trips, concurrent
// clients, warm-cache hits across requests, one script analysis per
// daemon, admission control, AMGT recording of served traffic, the
// defaults for empty job fields, STATS during a running batch, and
// graceful drain semantics.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "capi/client.h"
#include "capi/server.h"
#include "gen/engine.h"
#include "gen/replay.h"
#include "io/layout.h"
#include "obs/obs.h"
#include "obs/recorder.h"
#include "tech/builtin.h"
#include "util/version.h"

namespace {

using namespace amg;

const char* kContactRow =
    "ENT ContactRow(layer, <W>, <L>)\n"
    "  INBOX(layer, W, L)\n"
    "  INBOX(\"metal1\")\n"
    "  ARRAY(\"contact\")\n";

/// Short unique socket path (unix sockets cap at ~107 bytes, so no deep
/// test-runner temp dirs).
std::string sockPath(const char* tag) {
  return "/tmp/amg-test-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + ".sock";
}

serve::WireJob crowJob(const std::string& name, int w) {
  serve::WireJob j;
  j.name = name;
  j.script = kContactRow;
  j.scriptPath = "<test>";
  j.entity = "ContactRow";
  j.params = {{"layer", "poly"}, {"W", std::to_string(w)}};
  return j;
}

serve::ServerConfig baseConfig(const std::string& sock) {
  serve::ServerConfig cfg;
  cfg.socketPath = sock;
  cfg.tech = "bicmos1u";
  return cfg;
}

TEST(ServeTest, PingStatsAndGenerate) {
  const std::string sock = sockPath("basic");
  serve::Server server(baseConfig(sock));
  server.start();
  {
    serve::Client client(sock);
    client.ping();

    serve::StatsResponse s = client.stats();
    EXPECT_EQ(s.version, util::kVersionString);
    EXPECT_EQ(s.requestsServed, 0u);
    EXPECT_FALSE(s.draining);

    serve::GenerateRequest req;
    for (int w = 1; w <= 4; ++w)
      req.jobs.push_back(crowJob("crow_W" + std::to_string(w), w));
    const serve::GenerateResponse resp = client.generate(req);
    ASSERT_TRUE(resp.errorCode.empty()) << resp.errorMessage;
    ASSERT_EQ(resp.results.size(), 4u);
    for (const serve::WireResult& r : resp.results) {
      EXPECT_TRUE(r.ok) << r.diagMessage;
      EXPECT_FALSE(r.layout.empty());
      EXPECT_NE(r.layoutHash, 0u);
      EXPECT_GT(r.shapeCount, 0u);
    }

    s = client.stats();
    EXPECT_EQ(s.requestsServed, 1u);
    EXPECT_EQ(s.jobsServed, 4u);
    EXPECT_GT(s.cacheEntries, 0u);
  }
  server.drain();
  EXPECT_FALSE(std::filesystem::exists(sock));  // socket unlinked on drain
}

TEST(ServeTest, WarmCacheAcrossRequestsAndClients) {
  const std::string sock = sockPath("warm");
  serve::Server server(baseConfig(sock));
  server.start();
  serve::GenerateRequest req;
  for (int w = 1; w <= 4; ++w)
    req.jobs.push_back(crowJob("crow_W" + std::to_string(w), w));

  serve::GenerateResponse cold;
  {
    serve::Client c1(sock);
    cold = c1.generate(req);
  }
  // A *different* connection hits the same resident engine warm.
  serve::Client c2(sock);
  const serve::GenerateResponse warm = c2.generate(req);
  ASSERT_TRUE(cold.errorCode.empty());
  ASSERT_TRUE(warm.errorCode.empty());
  EXPECT_EQ(cold.cacheHits, 0u);
  EXPECT_EQ(warm.cacheHits, 4u);
  ASSERT_EQ(warm.results.size(), cold.results.size());
  for (std::size_t i = 0; i < warm.results.size(); ++i) {
    EXPECT_TRUE(warm.results[i].cacheHit);
    // Byte-identity across cold and warm serving paths.
    EXPECT_EQ(warm.results[i].layout, cold.results[i].layout);
    EXPECT_EQ(warm.results[i].layoutHash, cold.results[i].layoutHash);
  }
  server.drain();
}

TEST(ServeTest, OneScriptIsAnalyzedOncePerDaemon) {
  // An edit loop sends one job per request, so each request is its own
  // engine run; the script's static analysis must outlive the run.
  const bool statsWereOn = obs::statsEnabled();
  obs::enableStats(true);
  const auto analyses = [] {
    return obs::Stats::global().value("gen.preflight.analyses");
  };
  const std::uint64_t before = analyses();

  const std::string sock = sockPath("memo");
  serve::Server server(baseConfig(sock));
  server.start();
  std::vector<serve::WireJob> sent;
  std::vector<serve::GenerateResponse> got;
  {
    serve::Client client(sock);
    for (int i = 0; i < 20; ++i) {
      // Ten distinct widths, each asked twice: misses and warm hits.
      serve::GenerateRequest req;
      req.jobs.push_back(crowJob("crow_" + std::to_string(i), 1 + i % 10));
      sent.push_back(req.jobs.back());
      got.push_back(client.generate(req));
    }
  }
  server.drain();
  EXPECT_EQ(analyses() - before, 1u);
  obs::enableStats(statsWereOn);

  gen::EngineConfig cold;
  cold.useCache = false;
  const gen::BatchReport local = gen::BatchEngine(tech::bicmos1u(), cold).run(sent);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].errorCode.empty()) << got[i].errorMessage;
    ASSERT_EQ(got[i].results.size(), 1u);
    const serve::WireResult& r = got[i].results[0];
    ASSERT_TRUE(local.jobs[i].ok) << local.jobs[i].error();
    EXPECT_TRUE(r.ok) << r.diagMessage;
    EXPECT_EQ(r.cacheHit, i >= 10) << i;
    EXPECT_EQ(r.key, local.jobs[i].key);
    EXPECT_EQ(r.layoutHash, local.jobs[i].layoutHash);
    EXPECT_EQ(r.layout, io::serializeLayout(*local.jobs[i].layout));
  }
}

TEST(ServeTest, ConcurrentClientsMultiplex) {
  const std::string sock = sockPath("conc");
  serve::Server server(baseConfig(sock));
  server.start();

  constexpr int kClients = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      try {
        serve::Client client(sock);
        serve::GenerateRequest req;
        for (int w = 1; w <= 3; ++w)
          req.jobs.push_back(
              crowJob("c" + std::to_string(t) + "_W" + std::to_string(w), w));
        const serve::GenerateResponse resp = client.generate(req);
        if (!resp.errorCode.empty() || resp.results.size() != 3) {
          ++failures;
          return;
        }
        for (const serve::WireResult& r : resp.results)
          if (!r.ok) ++failures;
      } catch (...) {
        ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  serve::Client client(sock);
  const serve::StatsResponse s = client.stats();
  EXPECT_EQ(s.requestsServed, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(s.jobsServed, static_cast<std::uint64_t>(kClients * 3));
  server.drain();
}

TEST(ServeTest, MalformedJobIsPerJobDataNotConnectionDeath) {
  const std::string sock = sockPath("diag");
  serve::Server server(baseConfig(sock));
  server.start();
  serve::Client client(sock);

  serve::GenerateRequest req;
  serve::WireJob bad;
  bad.name = "bad";
  bad.script = "row = Undefined(W = 1)\n";
  bad.scriptPath = "<test>";
  req.jobs.push_back(bad);
  req.jobs.push_back(crowJob("good", 2));

  const serve::GenerateResponse resp = client.generate(req);
  ASSERT_TRUE(resp.errorCode.empty());
  ASSERT_EQ(resp.results.size(), 2u);
  EXPECT_FALSE(resp.results[0].ok);
  EXPECT_FALSE(resp.results[0].diagCode.empty());
  EXPECT_FALSE(resp.results[0].diagMessage.empty());
  EXPECT_TRUE(resp.results[1].ok);

  client.ping();  // the connection survived the failed job
  server.drain();
}

TEST(ServeTest, AdmissionRejectsWhenQueueFull) {
  const std::string sock = sockPath("busy");
  serve::ServerConfig cfg = baseConfig(sock);
  cfg.maxQueuedJobs = 2;  // tiny queue
  serve::Server server(cfg);
  server.start();
  serve::Client client(sock);

  // One frame whose job count alone exceeds the admission limit.
  serve::GenerateRequest req;
  for (int w = 1; w <= 5; ++w)
    req.jobs.push_back(crowJob("crow_W" + std::to_string(w), w));
  const serve::GenerateResponse resp = client.generate(req);
  EXPECT_EQ(resp.errorCode, "AMG-SRV-002");
  EXPECT_TRUE(resp.results.empty());

  const serve::StatsResponse s = client.stats();
  EXPECT_EQ(s.busyRejected, 1u);
  server.drain();
}

TEST(ServeTest, RecordedTrafficReplaysAndMatchesLocalTrace) {
  const std::string sock = sockPath("rec");
  const std::string trace =
      "/tmp/amg-test-rec-" + std::to_string(::getpid()) + ".amgt";
  serve::ServerConfig cfg = baseConfig(sock);
  cfg.recordPath = trace;
  serve::Server server(cfg);
  server.start();
  {
    serve::Client client(sock);
    serve::GenerateRequest req;
    for (int w = 1; w <= 3; ++w)
      req.jobs.push_back(crowJob("crow_W" + std::to_string(w), w));
    const serve::GenerateResponse resp = client.generate(req);
    ASSERT_TRUE(resp.errorCode.empty());
  }
  server.drain();  // closes the recording

  const obs::TraceFile t = obs::readTraceFile(trace);
  EXPECT_EQ(t.header.tool, "amg_serve");
  ASSERT_EQ(t.requests.size(), 3u);
  const gen::ReplayReport rep = gen::replayTrace(t, tech::bicmos1u(), {});
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.matched, 3u);
  std::filesystem::remove(trace);
}

TEST(ServeTest, EmptyJobFieldsGetTheServedDefaults) {
  // A client may leave name, scriptPath and resultVar empty.  The daemon
  // runs such a job as "request" from "<embedded>" taking the global
  // "result", the values served jobs have always run with: they show in
  // the result row, in a failing job's diagnostic and in the AMGT record.
  const std::string sock = sockPath("defaults");
  const std::string trace =
      "/tmp/amg-test-defaults-" + std::to_string(::getpid()) + ".amgt";
  serve::ServerConfig cfg = baseConfig(sock);
  cfg.recordPath = trace;
  serve::Server server(cfg);
  server.start();

  serve::WireJob ok;
  ok.script = "result = ContactRow(layer = \"poly\", W = 3)\n" +
              std::string(kContactRow);
  serve::WireJob bad;
  bad.script = "row = Undefined(W = 1)\n";
  std::vector<serve::WireJob> sent = {ok, bad};
  for (serve::WireJob& j : sent) {
    j.name.clear();
    j.scriptPath.clear();
    j.resultVar.clear();
  }
  serve::GenerateRequest req;
  req.jobs = sent;
  serve::GenerateResponse resp;
  {
    serve::Client client(sock);
    resp = client.generate(req);
  }
  server.drain();  // closes the recording
  ASSERT_TRUE(resp.errorCode.empty()) << resp.errorMessage;
  ASSERT_EQ(resp.results.size(), 2u);

  // The same jobs with the defaults spelled out, run in-process.
  std::vector<gen::Job> spelled = sent;
  for (gen::Job& j : spelled) {
    j.name = "request";
    j.scriptPath = "<embedded>";
    j.resultVar = "result";
  }
  const gen::BatchReport local =
      gen::BatchEngine(tech::bicmos1u()).run(spelled);
  ASSERT_TRUE(local.jobs[0].ok) << local.jobs[0].error();
  ASSERT_FALSE(local.jobs[1].ok);

  const serve::WireResult& r0 = resp.results[0];
  EXPECT_EQ(r0.name, "request");
  EXPECT_TRUE(r0.ok) << r0.diagMessage;
  EXPECT_EQ(r0.key, local.jobs[0].key);
  EXPECT_EQ(r0.layoutHash, local.jobs[0].layoutHash);
  EXPECT_EQ(r0.shapeCount, local.jobs[0].layout->shapeCount());
  EXPECT_EQ(r0.layout, io::serializeLayout(*local.jobs[0].layout));

  const serve::WireResult& r1 = resp.results[1];
  EXPECT_EQ(r1.name, "request");
  EXPECT_FALSE(r1.ok);
  EXPECT_TRUE(r1.layout.empty());
  EXPECT_EQ(r1.diagFile, "<embedded>");
  EXPECT_EQ(r1.diagCode, local.jobs[1].diag->code);
  EXPECT_EQ(r1.diagMessage, local.jobs[1].diag->message);
  EXPECT_EQ(r1.diagLine, static_cast<std::uint32_t>(local.jobs[1].diag->loc.line));
  EXPECT_EQ(r1.diagCol, static_cast<std::uint32_t>(local.jobs[1].diag->loc.col));

  const obs::TraceFile t = obs::readTraceFile(trace);
  ASSERT_EQ(t.requests.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const obs::RequestRecord& rec = t.requests[i];
    EXPECT_EQ(rec.kind, obs::RequestKind::Script);
    EXPECT_EQ(rec.name, "request");
    EXPECT_EQ(rec.scriptPath, "<embedded>");
    EXPECT_EQ(rec.resultVar, "result");
    EXPECT_EQ(obs::outcomeDigest(rec.outcome),
              obs::outcomeDigest(gen::outcomeOf(local.jobs[i])));
  }
  std::filesystem::remove(trace);
}

TEST(ServeTest, StatsAnswersWhileABatchRuns) {
  // STATS reads the cache tiers, which lock themselves, so it must not
  // wait for the batch the dispatcher is running.  The batch is a number
  // of distinct moderate Sweep jobs on one worker; how long it runs
  // depends on the build and the machine, so a batch that ends too soon
  // to tell is retried at twice the jobs.
  const char* kSweep =
      "ENT Cell(<W>, <L>)\n"
      "  TWORECTS(\"poly\", \"pdiff\", W, L)\n"
      "  INBOX(\"metal1\")\n"
      "ENT Sweep(rows, <W>)\n"
      "  INBOX(\"pdiff\", 4, 4)\n"
      "  FOR k = 1 TO rows DO\n"
      "    c = Cell(W = W, L = 2)\n"
      "    compact(c, EAST, \"poly\")\n"
      "  ENDFOR\n";
  using Clock = std::chrono::steady_clock;
  const auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  constexpr std::size_t kMaxJobs = 256;
  for (std::size_t jobs = 32;; jobs *= 2) {
    const std::string sock = sockPath("statsbusy");
    serve::ServerConfig cfg = baseConfig(sock);
    cfg.threads = 1;
    serve::Server server(cfg);
    server.start();

    // Each job's cell width differs, so no job restores another's steps
    // from the prefix tier or its layout from the layout tier.
    serve::GenerateRequest req;
    for (std::size_t i = 0; i < jobs; ++i) {
      serve::WireJob j;
      j.name = "long" + std::to_string(i);
      j.script = kSweep;
      j.scriptPath = "<test>";
      j.entity = "Sweep";
      j.params = {{"rows", "500"}, {"W", std::to_string(6 + 0.01 * static_cast<double>(i))}};
      req.jobs.push_back(j);
    }
    serve::GenerateResponse resp;
    Clock::time_point batchDone;
    std::thread generating([&] {
      serve::Client client(sock);
      resp = client.generate(req);
      batchDone = Clock::now();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    serve::Client client(sock);
    const Clock::time_point sent = Clock::now();
    const serve::StatsResponse s = client.stats();
    const Clock::time_point answered = Clock::now();
    generating.join();
    server.drain();

    ASSERT_TRUE(resp.errorCode.empty()) << resp.errorMessage;
    ASSERT_EQ(resp.results.size(), jobs);
    for (const auto& r : resp.results) EXPECT_TRUE(r.ok) << r.diagMessage;
    const double statsMs = ms(answered - sent);
    const double remainingMs = ms(batchDone - sent);
    if (remainingMs <= 50.0) {
      ASSERT_LT(jobs, kMaxJobs) << "a batch of " << jobs
                                << " jobs still ended too soon to tell";
      continue;
    }
    EXPECT_EQ(s.requestsServed, 0u);  // the batch had not finished
    EXPECT_LT(4 * statsMs, remainingMs)
        << "STATS took " << statsMs << " ms; the batch ended " << remainingMs
        << " ms after it was sent";
    break;
  }
}

TEST(ServeTest, DrainRejectsNewWorkAndShutdownFrameDrains) {
  const std::string sock = sockPath("drain");
  serve::Server server(baseConfig(sock));
  server.start();

  serve::Client client(sock);
  client.shutdown();  // SHUTDOWN frame: ack now, drain in the background
  // The server finishes its drain; the socket disappears.
  for (int i = 0; i < 200 && std::filesystem::exists(sock); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(std::filesystem::exists(sock));
  server.wait();
  EXPECT_TRUE(server.draining());

  // New connections are refused once the listener is gone.
  EXPECT_THROW(serve::Client{sock}, util::DiagError);
}

TEST(ServeTest, DrainLeavesReusedDescriptorNumbersAlone) {
  // A finished connection's fd number goes back to the process; drain()
  // must not shut down whatever descriptor reuses it.
  const std::string sock = sockPath("fdreuse");
  serve::Server server(baseConfig(sock));
  server.start();

  // The server's end of a connection is the new socket bound to `sock`.
  auto serverEnd = [&]() {
    for (int fd = 0; fd < 1024; ++fd) {
      sockaddr_un addr = {};
      socklen_t len = sizeof addr;
      int listening = 1;
      socklen_t optLen = sizeof listening;
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0 &&
          addr.sun_family == AF_UNIX && sock == addr.sun_path &&
          ::getsockopt(fd, SOL_SOCKET, SO_ACCEPTCONN, &listening, &optLen) == 0 &&
          !listening)
        return fd;
    }
    return -1;
  };
  int freed = -1;
  {
    serve::Client client(sock);
    client.ping();  // accepted: the server's end is open now
    freed = serverEnd();
  }
  ASSERT_GE(freed, 0);
  // The client hung up; the connection thread closes its end.
  for (int i = 0; i < 200 && ::fcntl(freed, F_GETFD) != -1; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(::fcntl(freed, F_GETFD), -1);

  // Socket pairs take the lowest free numbers; open them until one end
  // holds the freed number.
  std::vector<std::array<int, 2>> pairs;
  int reused = -1;
  while (reused < 0 && pairs.size() < 8) {
    std::array<int, 2> sv{};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv.data()), 0);
    pairs.push_back(sv);
    if (sv[0] == freed || sv[1] == freed) reused = static_cast<int>(pairs.size()) - 1;
  }
  ASSERT_GE(reused, 0);

  server.drain();

  // Neither end was shut down: with nothing queued a read would block
  // (EOF would mean SHUT_RD landed), and a byte sent still arrives.
  const std::array<int, 2> sv = pairs[static_cast<std::size_t>(reused)];
  for (int end = 0; end < 2; ++end) {
    char b = 0;
    errno = 0;
    EXPECT_EQ(::recv(sv[end], &b, 1, MSG_DONTWAIT), -1) << "end " << end;
    EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << "end " << end;
    const char x = 'x';
    ASSERT_EQ(::send(sv[1 - end], &x, 1, 0), 1);
    ASSERT_EQ(::recv(sv[end], &b, 1, 0), 1);
    EXPECT_EQ(b, 'x');
  }
  for (const auto& p : pairs) {
    ::close(p[0]);
    ::close(p[1]);
  }
}

TEST(ServeTest, FinishedConnectionThreadsAreReaped) {
  // One thread serves each connection.  The daemon runs for its whole
  // uptime, so a finished connection thread must be joined while it runs,
  // not kept until drain().  The acceptor joins, at each accept, the
  // threads that returned before it; a thread still winding down after its
  // client left is joined at a later accept.  So sequential connections
  // leave only a few threads unjoined, however many came before.
  const std::string sock = sockPath("reap");
  serve::Server server(baseConfig(sock));
  server.start();
  for (int i = 0; i < 500; ++i) {
    {
      serve::Client client(sock);
      client.ping();
    }
    ASSERT_LE(server.unjoinedConnections(), 4u) << "cycle " << i;
  }
  server.drain();
}

}  // namespace
