// amg_serve's engine room: a resident generation server over a unix
// domain socket, built as a library so the integration test and
// bench_serve can run it in-process (examples/amg_serve.cpp is a thin
// flag-parsing shell around this class).
//
// Threading model.  One acceptor thread owns the listening socket and
// spawns a thread per connection (joining, before each spawn, the ones
// that have finished); connection threads decode frames and
// *enqueue* generation work.  A single dispatcher thread drains the
// queue, coalescing everything pending into one gen::BatchEngine::run —
// the engine's worker pool (util/thread_pool.h is a one-controller
// design) provides the parallelism, the dispatcher provides the single
// controller.  Caches stay resident in the engine across requests; that
// residency is the entire point of the daemon (docs/SERVER.md).  STATS
// reads the two cache tiers' BlobStores, which lock themselves, so it
// answers while a batch runs.
//
// Admission control.  A request is rejected up front with AMG-SRV-002
// when the queue already holds maxQueuedJobs jobs, with AMG-SRV-003 when
// it waited longer than its queue deadline, and with AMG-SRV-004 once
// drain() began.  Running batches are never interrupted.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "capi/protocol.h"
#include "util/thread_annotations.h"

namespace amg::tech {
class Technology;
}
namespace amg::gen {
class BatchEngine;
class EngineRecorder;
}

namespace amg::serve {

struct ServerConfig {
  std::string socketPath;
  std::string tech;           ///< builtin name or tech-file path ("" = default)
  std::size_t threads = 0;    ///< engine worker count; 0 = hardware
  bool cache = true;
  bool prefixCache = true;
  std::string cacheDir;       ///< optional disk tier for the layout cache
  /// Admission: max jobs queued (not yet dispatched) before AMG-SRV-002.
  std::size_t maxQueuedJobs = 1024;
  /// Default queue deadline applied when a request does not set its own.
  std::uint32_t defaultQueueTimeoutMs = 30000;
  /// Record every served job to this AMGT trace (--record); "" = off.
  std::string recordPath;
};

class Server {
 public:
  explicit Server(ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the socket and start the acceptor + dispatcher threads.
  /// Throws util::DiagError: the deck's AMG-TECH-* code when the tech spec
  /// does not resolve, AMG-OBS-004 when the --record file cannot be
  /// written, AMG-SRV-005 on bind failure.
  void start();

  /// Begin graceful drain: stop accepting connections, reject newly
  /// queued work with AMG-SRV-004, finish everything already queued,
  /// then return.  Idempotent; also invoked by a SHUTDOWN frame.
  void drain();

  /// Block until drain() completes (amg_serve's main thread parks here).
  void wait();

  bool draining() const { return draining_.load(); }
  const ServerConfig& config() const { return cfg_; }
  StatsResponse statsSnapshot();
  /// Connection threads not yet joined: the live connections plus those
  /// that returned since the acceptor last reaped.  Sequential clients
  /// keep it small; a daemon that never joined would grow it by one per
  /// connection.
  std::size_t unjoinedConnections() const;

 private:
  struct Pending;

  void acceptLoop();
  void dispatchLoop();
  void serveConnection(int fd);
  GenerateResponse handleGenerate(GenerateRequest req);

  ServerConfig cfg_;
  std::shared_ptr<const tech::Technology> tech_;
  /// Set up by start(), before any thread exists.  Only the dispatcher
  /// runs the engine; statsSnapshot() reads its tiers' BlobStores.
  std::unique_ptr<gen::BatchEngine> engine_;
  std::unique_ptr<gen::EngineRecorder> recorder_;  ///< --record; closed by drain()
  int listenFd_ = -1;
  /// Wakes the acceptor's poll() from drain() without a race (self-pipe).
  int wakePipe_[2] = {-1, -1};

  util::Mutex mu_;
  std::condition_variable_any queueCv_;
  std::vector<std::shared_ptr<Pending>> queue_ AMG_GUARDED_BY(mu_);
  std::size_t queuedJobs_ AMG_GUARDED_BY(mu_) = 0;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::thread acceptor_;
  std::thread dispatcher_;
  mutable util::Mutex connMu_;
  std::vector<std::thread> connections_ AMG_GUARDED_BY(connMu_);  ///< not yet joined
  /// Connection threads that returned; the acceptor joins them.
  std::vector<std::thread::id> finished_ AMG_GUARDED_BY(connMu_);
  /// Open connection fds, for drain shutdown().
  std::vector<int> connFds_ AMG_GUARDED_BY(connMu_);

  util::Mutex statsMu_;
  std::uint64_t requestsServed_ AMG_GUARDED_BY(statsMu_) = 0;
  std::uint64_t jobsServed_ AMG_GUARDED_BY(statsMu_) = 0;
  std::uint64_t busyRejected_ AMG_GUARDED_BY(statsMu_) = 0;
  std::uint64_t timedOut_ AMG_GUARDED_BY(statsMu_) = 0;
};

}  // namespace amg::serve
