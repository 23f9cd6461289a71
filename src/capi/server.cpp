#include "capi/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>

#include "gen/engine.h"
#include "gen/replay.h"
#include "io/layout.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "tech/techfile.h"
#include "util/version.h"

namespace amg::serve {
namespace {

using Clock = std::chrono::steady_clock;

util::Diag srvDiag(const char* code, std::string message, std::string hint) {
  util::Diag d;
  d.code = code;
  d.message = std::move(message);
  d.hint = std::move(hint);
  return d;
}

GenerateResponse rejectAll(std::string code, std::string message) {
  GenerateResponse resp;
  resp.errorCode = std::move(code);
  resp.errorMessage = std::move(message);
  return resp;
}

/// The daemon's one place for the fields a client may leave empty; these
/// are the values served jobs have always run with.
void fillDefaults(gen::Job& j) {
  if (j.name.empty()) j.name = "request";
  if (j.scriptPath.empty()) j.scriptPath = "<embedded>";
  if (j.resultVar.empty()) j.resultVar = "result";
}

WireResult wireResultOf(gen::JobResult& r) {
  WireResult wr;
  wr.name = std::move(r.name);
  wr.ok = r.ok;
  wr.cacheHit = r.cacheHit;
  wr.rejected = r.rejected;
  wr.key = r.key;
  wr.layoutHash = r.layoutHash;
  wr.prefixRestored = r.prefixRestored;
  wr.wallMs = r.wallMs;
  if (r.layout) {
    wr.shapeCount = r.layout->shapeCount();
    wr.layout = io::serializeLayout(*r.layout);
  }
  if (r.diag) {
    wr.diagCode = r.diag->code;
    wr.diagMessage = r.diag->message;
    wr.diagHint = r.diag->hint;
    wr.diagFile = r.diag->loc.file;
    wr.diagLine = static_cast<std::uint32_t>(r.diag->loc.line);
    wr.diagCol = static_cast<std::uint32_t>(r.diag->loc.col);
  }
  return wr;
}

}  // namespace

/// One queued GENERATE frame: its jobs, its deadline, and the slot the
/// dispatcher fulfills for the connection thread parked on it.
struct Server::Pending {
  GenerateRequest req;
  Clock::time_point deadline;
  std::promise<GenerateResponse> done;
};

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)) {}

Server::~Server() { drain(); }

void Server::start() {
  // Engine first: a bad tech spec should fail before the socket exists.
  tech_ = tech::resolveTech(cfg_.tech);
  gen::EngineConfig ecfg;
  ecfg.threads = cfg_.threads;
  ecfg.useCache = cfg_.cache;
  ecfg.prefixCache = cfg_.prefixCache;
  ecfg.cache.diskDir = cfg_.cacheDir;
  engine_ = std::make_unique<gen::BatchEngine>(*tech_, ecfg);
  if (!cfg_.recordPath.empty())
    recorder_ = std::make_unique<gen::EngineRecorder>(
        cfg_.recordPath, "amg_serve",
        cfg_.tech.empty() ? "bicmos1u" : cfg_.tech, *engine_);

  listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listenFd_ < 0)
    throw util::DiagError(srvDiag(
        "AMG-SRV-005", std::string("socket: ") + std::strerror(errno), ""));
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (cfg_.socketPath.size() >= sizeof addr.sun_path)
    throw util::DiagError(srvDiag(
        "AMG-SRV-005",
        "socket path too long: " + cfg_.socketPath,
        "unix socket paths are limited to ~107 bytes; use a /tmp path"));
  std::strncpy(addr.sun_path, cfg_.socketPath.c_str(),
               sizeof addr.sun_path - 1);
  ::unlink(cfg_.socketPath.c_str());  // stale socket from a dead server
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listenFd_, 64) < 0)
    throw util::DiagError(srvDiag(
        "AMG-SRV-005",
        "cannot bind '" + cfg_.socketPath + "': " + std::strerror(errno),
        "is another amg_serve already listening there?"));
  if (::pipe(wakePipe_) < 0)
    throw util::DiagError(srvDiag(
        "AMG-SRV-005", std::string("pipe: ") + std::strerror(errno), ""));

  obs::flight::mark("serve.start", cfg_.socketPath.c_str());
  acceptor_ = std::thread([this] { acceptLoop(); });
  dispatcher_ = std::thread([this] { dispatchLoop(); });
}

void Server::acceptLoop() {
  for (;;) {
    pollfd fds[2] = {{listenFd_, POLLIN, 0}, {wakePipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0 || draining_.load()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    OBS_COUNT("serve.connections");
    std::vector<std::thread> finished;
    {
      util::MutexLock lock(connMu_);
      if (draining_.load()) {  // drain won the race: refuse late arrivals
        ::close(fd);
        break;
      }
      // Reap the connections that ended since the last accept, so the
      // thread list holds live connections, not the daemon's history.
      for (const std::thread::id id : finished_) {
        const auto it = std::find_if(connections_.begin(), connections_.end(),
                                     [&](const std::thread& t) { return t.get_id() == id; });
        finished.push_back(std::move(*it));
        connections_.erase(it);
      }
      finished_.clear();
      connFds_.push_back(fd);
      connections_.emplace_back([this, fd] { serveConnection(fd); });
    }
    // Join outside connMu_, as drain() does.
    for (std::thread& t : finished) t.join();
  }
}

void Server::serveConnection(int fd) {
  try {
    while (auto payload = recvFrame(fd)) {
      util::WireReader r(*payload, frameDiag("truncated request frame"));
      const auto type = static_cast<MsgType>(r.u8());
      switch (type) {
        case MsgType::Generate: {
          GenerateResponse resp;
          try {
            resp = handleGenerate(decodeGenerateRequest(r));
          } catch (const util::DiagError& e) {
            resp = rejectAll(e.diag().code, e.diag().message);
          }
          sendFrame(fd, encodeGenerateResponse(resp));
          break;
        }
        case MsgType::Ping:
          sendFrame(fd, encodePing());
          break;
        case MsgType::Stats:
          sendFrame(fd, encodeStatsResponse(statsSnapshot()));
          break;
        case MsgType::Shutdown: {
          sendFrame(fd, encodePing());  // ack before the drain blocks us
          // drain() joins connection threads, so it must not run on one:
          // hand it to a detached helper and keep reading until EOF.
          std::thread([this] { drain(); }).detach();
          break;
        }
        default:
          throw util::DiagError(frameDiag(
              "unknown message type " +
              std::to_string(static_cast<unsigned>(type))));
      }
    }
  } catch (const std::exception&) {
    // Torn frame or dead peer: drop the connection; the server survives.
  }
  // Forget the fd before closing it: once closed, the number may be
  // reused, and drain() must not shut down a descriptor it does not own.
  // Then report this thread finished, for the acceptor to join.
  {
    util::MutexLock lock(connMu_);
    connFds_.erase(std::find(connFds_.begin(), connFds_.end(), fd));
    finished_.push_back(std::this_thread::get_id());
  }
  ::close(fd);
}

GenerateResponse Server::handleGenerate(GenerateRequest req) {
  OBS_COUNT("serve.requests");
  obs::Span span("serve.request");
  span.arg("jobs", static_cast<std::uint64_t>(req.jobs.size()));
  const std::uint32_t timeoutMs =
      req.queueTimeoutMs ? req.queueTimeoutMs : cfg_.defaultQueueTimeoutMs;

  for (gen::Job& j : req.jobs) fillDefaults(j);
  auto pending = std::make_shared<Pending>();
  pending->deadline = Clock::now() + std::chrono::milliseconds(timeoutMs);
  pending->req = std::move(req);
  std::future<GenerateResponse> done = pending->done.get_future();
  {
    util::MutexLock lock(mu_);
    if (draining_.load()) {
      return rejectAll("AMG-SRV-004", "server is draining; resubmit later");
    }
    if (queuedJobs_ + pending->req.jobs.size() > cfg_.maxQueuedJobs) {
      OBS_COUNT("serve.busy");
      util::MutexLock slock(statsMu_);
      ++busyRejected_;
      return rejectAll(
          "AMG-SRV-002",
          "server at capacity (" + std::to_string(queuedJobs_) +
              " jobs queued, limit " + std::to_string(cfg_.maxQueuedJobs) +
              ")");
    }
    queuedJobs_ += pending->req.jobs.size();
    queue_.push_back(pending);
  }
  queueCv_.notify_one();
  GenerateResponse resp = done.get();
  {
    util::MutexLock lock(statsMu_);
    if (resp.errorCode.empty()) {
      ++requestsServed_;
      jobsServed_ += resp.results.size();
    } else if (resp.errorCode == "AMG-SRV-003") {
      ++timedOut_;
    }
  }
  return resp;
}

void Server::dispatchLoop() {
  for (;;) {
    std::vector<std::shared_ptr<Pending>> batch;
    {
      util::MutexLock lock(mu_);
      while (queue_.empty() && !stopped_.load() && !draining_.load())
        queueCv_.wait(mu_);
      if (queue_.empty()) return;  // stopped or draining, nothing left
      batch.swap(queue_);
      for (const auto& p : batch) queuedJobs_ -= p->req.jobs.size();
    }

    // Expired-in-queue requests answer immediately with AMG-SRV-003.
    const Clock::time_point now = Clock::now();
    std::vector<std::shared_ptr<Pending>> live;
    for (auto& p : batch) {
      if (now > p->deadline) {
        OBS_COUNT("serve.timeouts");
        p->done.set_value(rejectAll(
            "AMG-SRV-003", "request timed out waiting in the queue"));
      } else {
        live.push_back(std::move(p));
      }
    }
    if (live.empty()) continue;

    // Coalesce every live request into one batch: the engine's worker
    // pool fans the jobs out, and sweep siblings from different clients
    // share prefix-cache chains within the run.
    std::vector<gen::Job> jobs;
    for (const auto& p : live)
      jobs.insert(jobs.end(), std::make_move_iterator(p->req.jobs.begin()),
                  std::make_move_iterator(p->req.jobs.end()));
    OBS_HIST("serve.batch.jobs", static_cast<std::uint64_t>(jobs.size()));

    obs::Span span("serve.dispatch");
    span.arg("jobs", static_cast<std::uint64_t>(jobs.size()));
    gen::BatchReport report;
    try {
      report = engine_->run(jobs);
      if (recorder_) recorder_->append(jobs, report);
    } catch (const std::exception& e) {
      // Job failures are data; only an engine-level failure lands here.
      const auto* de = dynamic_cast<const util::DiagError*>(&e);
      obs::flight::mark("serve.dispatch.error", e.what());
      for (const auto& p : live)
        p->done.set_value(rejectAll(de ? de->diag().code : "AMG-GEN-001",
                                    de ? de->diag().message : e.what()));
      continue;
    }

    std::size_t idx = 0;
    for (const auto& p : live) {
      GenerateResponse resp;
      resp.wallMs = report.wallMs;
      for (std::size_t j = 0; j < p->req.jobs.size(); ++j, ++idx) {
        WireResult wr = wireResultOf(report.jobs[idx]);
        if (wr.cacheHit) resp.cacheHits++;
        resp.prefixRestoredSteps += wr.prefixRestored;
        resp.results.push_back(std::move(wr));
      }
      p->done.set_value(std::move(resp));
    }
  }
}

void Server::drain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) {
    wait();
    return;
  }
  obs::flight::mark("serve.drain");
  // Wake the acceptor and close the front door.
  if (wakePipe_[1] >= 0) {
    const char b = 1;
    [[maybe_unused]] const ssize_t w = ::write(wakePipe_[1], &b, 1);
  }
  if (acceptor_.joinable()) acceptor_.join();
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
    ::unlink(cfg_.socketPath.c_str());
  }
  // Unblock connection reads; their queued work still completes because
  // the dispatcher drains the queue before exiting.
  {
    util::MutexLock lock(connMu_);
    for (const int fd : connFds_) ::shutdown(fd, SHUT_RD);
  }
  // Passing through mu_ orders draining_ before the dispatcher's next
  // check, so the notify cannot fall between its check and its wait.
  { util::MutexLock lock(mu_); }
  queueCv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  // Join outside connMu_: each connection thread takes it to deregister
  // its fd.  The acceptor is gone, so the list no longer grows.
  std::vector<std::thread> connections;
  {
    util::MutexLock lock(connMu_);
    connections.swap(connections_);
  }
  for (std::thread& t : connections) t.join();
  if (wakePipe_[0] >= 0) ::close(wakePipe_[0]);
  if (wakePipe_[1] >= 0) ::close(wakePipe_[1]);
  wakePipe_[0] = wakePipe_[1] = -1;
  if (recorder_) {
    recorder_.reset();
    obs::flight::mark("serve.record.closed");
  }
  obs::flight::mark("serve.stopped");
  // Last member access: wait() (and thus ~Server) may run the moment this
  // store lands, and a SHUTDOWN frame runs drain() on a detached thread.
  stopped_.store(true);
}

void Server::wait() {
  while (!stopped_.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

std::size_t Server::unjoinedConnections() const {
  util::MutexLock lock(connMu_);
  return connections_.size();
}

StatsResponse Server::statsSnapshot() {
  StatsResponse s;
  s.version = util::kVersionString;
  s.draining = draining_.load();
  {
    util::MutexLock lock(statsMu_);
    s.requestsServed = requestsServed_;
    s.jobsServed = jobsServed_;
    s.busyRejected = busyRejected_;
    s.timedOut = timedOut_;
  }
  if (!engine_) return s;
  const util::BlobStore& layouts = engine_->cache().store();
  const util::BlobStore::Stats cs = layouts.stats();
  s.cacheHits = cs.hits + cs.diskHits;
  s.cacheEntries = layouts.entryCount();
  s.cacheBytes = layouts.byteCount();
  if (const compact::PrefixCache* pc = engine_->prefixCache()) {
    s.prefixEntries = pc->store().entryCount();
    s.prefixBytes = pc->store().byteCount();
  }
  return s;
}

}  // namespace amg::serve
