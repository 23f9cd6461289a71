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

#include "amgen.h"
#include "obs/flight.h"
#include "obs/obs.h"
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

GenerateResponse rejectAll(const char* code, std::string message) {
  GenerateResponse resp;
  resp.errorCode = code;
  resp.errorMessage = std::move(message);
  return resp;
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

Server::~Server() {
  drain();
  if (engine_) amg_engine_destroy(engine_);
}

void Server::start() {
  // Engine first: a bad tech spec should fail before the socket exists.
  amg_config cfg;
  amg_config_init(&cfg);
  cfg.threads = cfg_.threads;
  cfg.use_cache = cfg_.cache ? 1 : 0;
  cfg.prefix_cache = cfg_.prefixCache ? 1 : 0;
  cfg.cache_dir = cfg_.cacheDir.empty() ? nullptr : cfg_.cacheDir.c_str();
  engine_ = amg_engine_create(cfg_.tech.c_str(), &cfg);
  if (!engine_) {
    amg_diag d;
    if (amg_last_error(&d))
      throw util::DiagError(srvDiag(d.code, d.message, d.hint));
    throw util::DiagError(
        srvDiag("AMG-SRV-005", "engine construction failed", ""));
  }
  if (!cfg_.recordPath.empty() &&
      amg_record_start(engine_, cfg_.recordPath.c_str(), "amg_serve") !=
          AMG_OK) {
    amg_diag d;
    amg_last_error(&d);
    throw util::DiagError(srvDiag(d.code, d.message, d.hint));
  }

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
      std::lock_guard<std::mutex> lock(connMu_);
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
            resp = rejectAll(e.diag().code.c_str(), e.diag().message);
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
    std::lock_guard<std::mutex> lock(connMu_);
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

  auto pending = std::make_shared<Pending>();
  pending->deadline = Clock::now() + std::chrono::milliseconds(timeoutMs);
  pending->req = std::move(req);
  std::future<GenerateResponse> done = pending->done.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_.load()) {
      return rejectAll("AMG-SRV-004", "server is draining; resubmit later");
    }
    if (queuedJobs_ + pending->req.jobs.size() > cfg_.maxQueuedJobs) {
      OBS_COUNT("serve.busy");
      std::lock_guard<std::mutex> slock(statsMu_);
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
    std::lock_guard<std::mutex> lock(statsMu_);
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
      std::unique_lock<std::mutex> lock(mu_);
      queueCv_.wait(lock, [this] {
        return !queue_.empty() || stopped_.load() ||
               (draining_.load() && queue_.empty());
      });
      if (queue_.empty() && (stopped_.load() || draining_.load())) return;
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
    std::vector<amg_request> reqs;
    std::vector<std::vector<amg_param>> paramStore;
    std::size_t total = 0;
    for (const auto& p : live) total += p->req.jobs.size();
    reqs.reserve(total);
    paramStore.reserve(total);
    OBS_HIST("serve.batch.jobs", static_cast<std::uint64_t>(total));
    for (const auto& p : live) {
      for (const WireJob& j : p->req.jobs) {
        paramStore.emplace_back();
        std::vector<amg_param>& ps = paramStore.back();
        ps.reserve(j.params.size());
        for (const auto& [k, v] : j.params)
          ps.push_back(amg_param{k.c_str(), v.c_str()});
        amg_request r;
        amg_request_init(&r);
        r.name = j.name.c_str();
        r.script = j.script.c_str();
        r.script_path = j.scriptPath.empty() ? nullptr : j.scriptPath.c_str();
        r.entity = j.entity.empty() ? nullptr : j.entity.c_str();
        r.result_var = j.resultVar.empty() ? nullptr : j.resultVar.c_str();
        r.params = ps.empty() ? nullptr : ps.data();
        r.param_count = ps.size();
        reqs.push_back(r);
      }
    }

    obs::Span span("serve.dispatch");
    span.arg("jobs", static_cast<std::uint64_t>(total));
    amg_batch* out = nullptr;
    const amg_status st =
        amg_generate_batch(engine_, reqs.data(), reqs.size(), &out);
    if (st != AMG_OK || !out) {
      amg_diag d;
      const bool have = amg_last_error(&d) != 0;
      obs::flight::mark("serve.dispatch.error",
                        have ? d.message : "batch failed");
      for (const auto& p : live)
        p->done.set_value(rejectAll(have ? d.code : "AMG-SRV-001",
                                    have ? d.message : "batch failed"));
      continue;
    }

    amg_batch_info info;
    amg_batch_info_get(out, &info);
    std::size_t idx = 0;
    for (const auto& p : live) {
      GenerateResponse resp;
      resp.wallMs = info.wall_ms;
      for (std::size_t j = 0; j < p->req.jobs.size(); ++j, ++idx) {
        amg_result* res = amg_batch_result(out, idx);
        WireResult wr;
        wr.name = amg_result_name(res);
        wr.ok = amg_result_ok(res) != 0;
        wr.cacheHit = amg_result_cache_hit(res) != 0;
        wr.rejected = amg_result_rejected(res) != 0;
        wr.key = amg_result_key(res);
        wr.layoutHash = amg_result_layout_hash(res);
        wr.shapeCount = amg_result_shape_count(res);
        wr.prefixRestored = amg_result_prefix_restored(res);
        wr.wallMs = amg_result_wall_ms(res);
        if (wr.cacheHit) resp.cacheHits++;
        resp.prefixRestoredSteps += wr.prefixRestored;
        if (wr.ok) {
          const std::uint8_t* data = nullptr;
          std::size_t size = 0;
          if (amg_result_layout_data(res, &data, &size) == AMG_OK)
            wr.layout.assign(data, data + size);
        } else {
          amg_diag d;
          if (amg_result_diag(res, &d)) {
            wr.diagCode = d.code;
            wr.diagMessage = d.message;
            wr.diagHint = d.hint;
            wr.diagFile = d.file;
            wr.diagLine = static_cast<std::uint32_t>(d.line);
            wr.diagCol = static_cast<std::uint32_t>(d.col);
          }
        }
        resp.results.push_back(std::move(wr));
      }
      p->done.set_value(std::move(resp));
    }
    amg_batch_destroy(out);
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
    std::lock_guard<std::mutex> lock(connMu_);
    for (const int fd : connFds_) ::shutdown(fd, SHUT_RD);
  }
  queueCv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  // Join outside connMu_: each connection thread takes it to deregister
  // its fd.  The acceptor is gone, so the list no longer grows.
  std::vector<std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(connMu_);
    connections.swap(connections_);
  }
  for (std::thread& t : connections) t.join();
  if (wakePipe_[0] >= 0) ::close(wakePipe_[0]);
  if (wakePipe_[1] >= 0) ::close(wakePipe_[1]);
  wakePipe_[0] = wakePipe_[1] = -1;
  if (engine_ && amg_record_active(engine_)) {
    std::uint64_t n = 0;
    amg_record_stop(engine_, &n);
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
  std::lock_guard<std::mutex> lock(connMu_);
  return connections_.size();
}

StatsResponse Server::statsSnapshot() {
  StatsResponse s;
  s.version = util::kVersionString;
  s.draining = draining_.load();
  {
    std::lock_guard<std::mutex> lock(statsMu_);
    s.requestsServed = requestsServed_;
    s.jobsServed = jobsServed_;
    s.busyRejected = busyRejected_;
    s.timedOut = timedOut_;
  }
  amg_cache_stats cs;
  if (engine_ && amg_engine_cache_stats(engine_, &cs) == AMG_OK) {
    s.cacheHits = cs.hits + cs.disk_hits;
    s.cacheEntries = cs.entries;
    s.cacheBytes = cs.bytes;
  }
  if (engine_ && amg_engine_prefix_cache_stats(engine_, &cs)) {
    s.prefixEntries = cs.entries;
    s.prefixBytes = cs.bytes;
  }
  return s;
}

}  // namespace amg::serve
