// serve_edit: an interactive edit session against the real amg_serve daemon
// over its unix socket.  One client runs a closed loop; the daemon has two
// engine workers and the default in-memory cache tiers.  Each request edits
// one parameter of the session's module (prefix restore plus a tail step),
// repeats an earlier request exactly (a layout-cache hit), or starts a new
// module.  Every kReconnectEvery requests the client reconnects.  With one
// client every cache outcome is a function of the seed alone.  The client
// and the daemon share one fixed CPU while requests are timed (OneCpu).
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fcntl.h>

#include <algorithm>
#include <filesystem>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "capi/client.h"
#include "common.h"
#include "compact/prefix.h"
#include "drc/drc.h"
#include "gen/cache.h"
#include "gen/engine.h"
#include "io/layout.h"
#include "tech/builtin.h"

extern char** environ;

namespace e2e {
namespace {

constexpr int kDaemonWorkers = 2;
constexpr int kReconnectEvery = 16;
constexpr int kOpsPerSecond = 160;  // op-list length per --seconds
constexpr int kRepeatsPerSession = 4;
constexpr int kWarmupOps = 100;

// Row-of-cells entity for edit sessions: W0 is the first step, W the tail.
const char* kSweepScript = R"(
ENT Cell(<W>, <L>)
  TWORECTS("poly", "pdiff", W, L)
  INBOX("metal1")

ENT Sweep(rows, <W0>, <W>)
  INBOX("pdiff", 4, 4)
  first = Cell(W = W0, L = 2)
  compact(first, EAST, "poly")
  FOR k = 1 TO rows DO
    c = Cell(W = 6, L = 2)
    compact(c, EAST, "poly")
  ENDFOR
  tail = Cell(W = W, L = 2)
  compact(tail, EAST, "poly")
)";

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// An entity the session edits: its parameters, and which of them an edit
/// changes (Sweep's tail width and Interdig's finger count leave a shared
/// compaction prefix to restore; Trans and DiffPair rebuild from step one).
struct Template {
  const char* entity;
  int script;  // 0 sweep, 1 library.amg, 2 diffpair.amg
  std::vector<const char*> params;
  std::vector<int> editable;  // indices into params
  int weight;                 // share of new modules
};

const std::vector<Template>& templates() {
  static const std::vector<Template> t = {
      {"Sweep", 0, {"rows", "W0", "W"}, {2}, 4},
      {"Interdig", 1, {"W", "L", "fingers"}, {2}, 3},
      {"Trans", 1, {"W", "L"}, {0, 1}, 1},
      {"DiffPair", 2, {"W", "L"}, {0, 1}, 1},
  };
  return t;
}

/// Size of a parameter's value domain.
int domainSize(const std::string& p) {
  if (p == "rows") return 37;     // 24..60
  if (p == "fingers") return 16;  // 4..19
  if (p == "L") return 5;         // 1.0..3.0
  return 60;                      // widths
}

std::string valueOf(const std::string& entity, const std::string& p, int idx) {
  if (p == "rows") return std::to_string(24 + idx);
  if (p == "fingers") return std::to_string(4 + idx);
  if (p == "L") return decimal(1.0 + 0.5 * idx);
  const double base = entity == "Sweep" ? 4.0 : 6.0;
  return decimal(base + 0.2 * idx);
}

struct Request {
  int tmpl = 0;
  std::vector<int> idx;  // one per template parameter
  bool operator==(const Request& o) const { return tmpl == o.tmpl && idx == o.idx; }
};

std::string keyOf(const Request& r) {
  const Template& t = templates()[r.tmpl];
  std::string k = std::string(t.entity) + "(";
  for (std::size_t i = 0; i < t.params.size(); ++i)
    k += (i ? "," : "") + std::string(t.params[i]) + "=" + valueOf(t.entity, t.params[i], r.idx[i]);
  return k + ")";
}

/// Shuffled decks of parameter-value indices, one per (template, param):
/// every draw takes the next card and a used-up deck is reshuffled, so
/// across the list every value of a domain is drawn equally often.
class Decks {
 public:
  explicit Decks(Rng& rng) : rng_(rng), decks_(templates().size()) {
    for (std::size_t t = 0; t < templates().size(); ++t)
      decks_[t].resize(templates()[t].params.size());
  }
  int draw(int tmpl, int param) {
    std::vector<int>& d = decks_[tmpl][param];
    if (d.empty()) {
      for (int v = 0; v < domainSize(templates()[tmpl].params[param]); ++v) d.push_back(v);
      shuffle(rng_, d);
    }
    const int v = d.back();
    d.pop_back();
    return v;
  }

 private:
  Rng& rng_;
  std::vector<std::vector<std::vector<int>>> decks_;
};

/// The seed-derived request list, as sessions of kReconnectEvery requests
/// on one connection.  A session opens a new module, then makes
/// kRepeatsPerSession exact repeats of the session's earlier requests and
/// edits the session's module in the remaining slots, in a shuffled order.
/// Session templates come in shuffled blocks holding each template `weight`
/// times, and every parameter value comes from a deck (above), so the mix
/// and the module sizes are nearly the same for every seed.
std::vector<Request> makeOps(Rng& rng, int n) {
  Decks decks(rng);
  std::vector<int> order;
  std::vector<Request> ops;
  while (static_cast<int>(ops.size()) < n) {
    if (order.empty()) {
      for (std::size_t t = 0; t < templates().size(); ++t)
        order.insert(order.end(), templates()[t].weight, static_cast<int>(t));
      shuffle(rng, order);
    }
    Request current;
    current.tmpl = order.back();
    order.pop_back();
    const Template& t = templates()[current.tmpl];
    for (std::size_t p = 0; p < t.params.size(); ++p)
      current.idx.push_back(decks.draw(current.tmpl, static_cast<int>(p)));
    const std::size_t sessionStart = ops.size();
    ops.push_back(current);
    std::vector<char> repeat(kReconnectEvery - 1, 0);
    std::fill(repeat.begin(), repeat.begin() + kRepeatsPerSession, 1);
    shuffle(rng, repeat);
    for (const char rep : repeat) {
      if (static_cast<int>(ops.size()) == n) break;
      if (rep) {
        const int span = static_cast<int>(ops.size() - sessionStart);
        ops.push_back(ops[sessionStart + rng.below(span)]);
        continue;
      }
      // An edit moves one editable parameter to a value not yet requested
      // with the rest of the module unchanged, so the planned repeats stay
      // the only layout-cache hits (a few draws, then give up).
      Request next = current;
      for (int attempt = 0; attempt < 8; ++attempt) {
        next = current;
        const int p = t.editable[rng.below(static_cast<int>(t.editable.size()))];
        next.idx[p] = decks.draw(current.tmpl, p);
        if (next.idx[p] != current.idx[p] &&
            std::find(ops.begin(), ops.end(), next) == ops.end())
          break;
      }
      current = next;
      ops.push_back(current);
    }
  }
  return ops;
}

struct Scripts {
  std::string text[3];
};

amg::serve::WireJob wireJob(const Scripts& s, const Request& r, const std::string& name) {
  const Template& t = templates()[r.tmpl];
  amg::serve::WireJob j;
  j.name = name;
  j.scriptPath = t.script == 0 ? "<serve>" : t.script == 1 ? "scripts/library.amg"
                                                            : "scripts/diffpair.amg";
  j.script = s.text[t.script];
  j.entity = t.entity;
  for (std::size_t i = 0; i < t.params.size(); ++i)
    j.params.emplace_back(t.params[i], valueOf(t.entity, t.params[i], r.idx[i]));
  return j;
}

/// While alive, pins the calling thread to the highest CPU the process may
/// use; a daemon spawned meanwhile inherits the mask, so the client and
/// all daemon threads share that CPU and every request/response hand-off
/// is a context switch on it.  Across CPUs each hand-off wakes an idle
/// vCPU, and on a shared VM host that delay is the host's scheduling, not
/// the program's: in alternating runs of one seed the median latency moved
/// between 0.78 and 1.66 ms unpinned and between 0.58 and 0.75 ms here.
/// The destructor restores the previous mask.
class OneCpu {
 public:
  OneCpu() {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    int last = -1;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &saved_)) last = cpu;
    if (last < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(last, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~OneCpu() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// The amg_serve child process.  The destructor always reaps it.
class Daemon {
 public:
  Daemon(const std::string& dir, bool stats) : sock_(dir + "/s.sock") {
    statsPath_ = stats ? dir + "/daemon-stats.json" : "";
    const std::string log = dir + "/daemon.log";
    std::vector<std::string> args = {AMG_SERVE_BIN, "--socket", sock_, "--jobs",
                                     std::to_string(kDaemonWorkers)};
    if (stats) args.push_back("--stats=" + statsPath_);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc = posix_spawn(&pid_, argv[0], &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error("cannot start amg_serve");
    const Clock::time_point t0 = Clock::now();
    for (;;) {
      try {
        amg::serve::Client probe(sock_);
        probe.ping();
        break;
      } catch (const std::exception&) {
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          throw std::runtime_error("amg_serve exited during start-up; see " + log);
        }
        if (msSince(t0) > 20000) throw std::runtime_error("amg_serve did not come up");
        usleep(1000);
      }
    }
  }
  ~Daemon() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 5000 && waitpid(pid_, &status, WNOHANG) == 0; ++i) usleep(1000);
    if (waitpid(pid_, &status, WNOHANG) == 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
    }
  }
  /// Graceful SHUTDOWN frame, then reap.
  void shutdown() {
    amg::serve::Client(sock_).shutdown();
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  const std::string& socket() const { return sock_; }
  pid_t pid() const { return pid_; }
  const std::string& statsPath() const { return statsPath_; }

 private:
  std::string sock_, statsPath_;
  pid_t pid_ = -1;
};

struct Served {
  amg::serve::WireResult res;
  double latencyMs = 0;
};

struct Session {
  std::unique_ptr<Daemon> daemon;
  std::string dir;
  double seconds = 0;
};

/// One set-up: a fresh directory, the daemon, and the fixed warm-up
/// requests (first-step widths below every timed request's, so the timed
/// list finds no entry of theirs in either cache).
Session setUp(const Options& o, const Scripts& s, int index, bool stats) {
  const Clock::time_point t0 = Clock::now();
  Session ss;
  ss.dir = o.workDir + "/daemon" + std::to_string(index);
  std::filesystem::create_directories(ss.dir);
  ss.daemon = std::make_unique<Daemon>(ss.dir, stats);
  amg::serve::Client conn(ss.daemon->socket());
  for (int k = 0; k < kWarmupOps; ++k) {
    amg::serve::WireJob j;
    j.name = "warmup";
    const bool sweep = k % 2 == 0;
    j.scriptPath = sweep ? "<serve>" : "scripts/library.amg";
    j.script = s.text[sweep ? 0 : 1];
    j.entity = sweep ? "Sweep" : "Interdig";
    if (sweep)
      j.params = {{"rows", std::to_string(20 + k % 40)},
                  {"W0", decimal(2.0 + 0.1 * (k / 2 % 20))},
                  {"W", decimal(3.0 + 0.2 * k)}};
    else
      j.params = {{"W", "5.0"}, {"L", "2"}, {"fingers", std::to_string(1 + k % 10)}};
    amg::serve::GenerateRequest req;
    req.jobs.push_back(j);
    const amg::serve::GenerateResponse resp = conn.generate(req);
    if (resp.results.size() != 1 || !resp.results[0].ok)
      throw std::runtime_error("serve_edit warm-up request failed");
  }
  ss.seconds = msSince(t0) / 1e3;
  return ss;
}

struct PassOut {
  std::vector<Served> served;
  double wallS = 0;
  amg::serve::StatsResponse stats;
  double peakRssMb = 0;
  std::string statsJson;
};

/// Runs the op list in a closed loop, reconnecting every kReconnectEvery
/// requests, then reads the daemon's STATS frame and peak RSS and drains it.
PassOut runPass(Session& ss, const Scripts& s, const std::vector<Request>& ops, SpanLog& spans) {
  PassOut out;
  out.served.resize(ops.size());
  std::unique_ptr<amg::serve::Client> conn;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i % kReconnectEvery == 0) {
      conn.reset();
      conn = std::make_unique<amg::serve::Client>(ss.daemon->socket());
    }
    amg::serve::GenerateRequest req;
    req.jobs.push_back(wireJob(s, ops[i], "op" + std::to_string(i)));
    Scope span(spans, "capi.Client.generate", static_cast<int>(i));
    const Clock::time_point t = Clock::now();
    amg::serve::GenerateResponse resp = conn->generate(req);
    out.served[i].latencyMs = msSince(t);
    span.close();
    if (!resp.errorCode.empty() || resp.results.size() != 1) {
      out.served[i].res.ok = false;
      out.served[i].res.diagCode = resp.errorCode.empty() ? "no result" : resp.errorCode;
    } else {
      out.served[i].res = std::move(resp.results.front());
    }
  }
  out.wallS = msSince(t0) / 1e3;
  conn.reset();
  out.stats = amg::serve::Client(ss.daemon->socket()).stats();
  out.peakRssMb = peakRssMb(ss.daemon->pid());
  ss.daemon->shutdown();
  if (!ss.daemon->statsPath().empty()) out.statsJson = readFile(ss.daemon->statsPath());
  return out;
}

/// The first number after `"name"` (and after `"field"` when given) in an
/// obs stats JSON dump; 0 when absent.
double jsonValue(const std::string& json, const std::string& name, const char* field = nullptr) {
  std::size_t at = json.find("\"" + name + "\"");
  if (at == std::string::npos) return 0;
  if (field) {
    at = json.find(std::string("\"") + field + "\"", at);
    if (at == std::string::npos) return 0;
  }
  at = json.find(':', at);
  return at == std::string::npos ? 0 : std::strtod(json.c_str() + at + 1, nullptr);
}

struct Verified {
  std::vector<double> deserializeUs, drcMs;
};

/// Every op: served OK, wire digest == digest of the served bytes ==
/// cache-off in-process generation of the same job, DRC-clean.
Verified verify(const Options& o, const Scripts& s, const std::vector<Request>& ops,
                const std::vector<PassOut>& passes, Result& r) {
  const amg::tech::Technology& tech = amg::tech::bicmos1u();
  // Reference path: every distinct request generated in-process with both
  // cache tiers off.
  std::map<std::string, std::size_t> refIndex;
  std::vector<amg::gen::Job> jobs;
  for (const Request& q : ops) {
    const std::string key = keyOf(q);
    if (refIndex.count(key)) continue;
    refIndex[key] = jobs.size();
    const amg::serve::WireJob w = wireJob(s, q, key);
    amg::gen::Job j;
    j.name = w.name;
    j.scriptPath = w.scriptPath;
    j.script = w.script;
    j.entity = w.entity;
    j.params = w.params;
    jobs.push_back(std::move(j));
  }
  amg::gen::EngineConfig cfg;
  cfg.threads = kDaemonWorkers;
  cfg.useCache = false;
  cfg.prefixCache = false;
  const amg::gen::BatchReport ref = amg::gen::BatchEngine(tech, cfg).run(jobs);

  Verified v;
  amg::drc::CheckOptions drcOpt;
  drcOpt.latchUp = false;  // module-level check; latch-up is a top-level rule
  std::map<std::uint64_t, bool> drcClean;  // by digest: each layout checked once
  int index = 0;
  for (std::size_t round = 0; round < passes.size(); ++round) {
    for (std::size_t i = 0; i < ops.size(); ++i, ++index) {
      const Served& sv = passes[round].served[i];
      Op op;
      op.key = keyOf(ops[i]);
      op.latencyMs = sv.latencyMs;
      if (!sv.res.ok) {
        fail(op, "request failed: " + sv.res.diagCode + " " + sv.res.diagMessage);
      } else {
        op.ok = true;
        op.digest = digestOf(sv.res.layout);
        if (op.digest != sv.res.layoutHash) fail(op, "served bytes do not match the wire digest");
        const amg::gen::JobResult& want = ref.jobs[refIndex[op.key]];
        const std::uint64_t wantHash = want.layoutHash ^ (index == o.perturbRef ? 1 : 0);
        if (!want.ok) fail(op, "cache-off reference generation failed");
        else if (op.digest != wantHash)
          fail(op, "digest " + hex(op.digest) + " != cache-off reference " + hex(wantHash));
        const Clock::time_point t = Clock::now();
        const amg::db::Module m = amg::io::deserializeLayout(sv.res.layout, tech);
        v.deserializeUs.push_back(msSince(t) * 1e3);
        op.areaUm2 = areaUm2(m);
        auto [it, fresh] = drcClean.emplace(op.digest, false);
        if (fresh) {
          const Clock::time_point t2 = Clock::now();
          it->second = amg::drc::check(m, drcOpt).empty();
          v.drcMs.push_back(msSince(t2));
        }
        if (!it->second) fail(op, "layout is not DRC-clean");
      }
      if (round > 0 && op.digest != r.ops[i].digest) {
        r.deterministic = false;
        fail(op, "digest drifted between rounds");
      }
      r.ops.push_back(std::move(op));
    }
  }
  return v;
}

/// Direct probes of the cache and session-snapshot layers on the layouts
/// the session produced: LayoutCache put/get with the disk tier on, and
/// AMGS session-state deserialization.
void probes(const Options& o, const PassOut& pass, double* putUs, double* getUs,
            double* sessionUs, std::size_t* n) {
  const amg::tech::Technology& tech = amg::tech::bicmos1u();
  std::map<std::uint64_t, const std::vector<std::uint8_t>*> blobs;
  for (const Served& sv : pass.served)
    if (sv.res.ok && blobs.size() < 400) blobs.emplace(sv.res.layoutHash, &sv.res.layout);
  amg::gen::CacheConfig cfg;
  cfg.diskDir = o.workDir + "/probe-cache";
  amg::gen::LayoutCache cache(cfg);
  std::vector<double> put, get, session;
  for (const auto& [key, bytes] : blobs) {
    const Clock::time_point t = Clock::now();
    cache.put(key, *bytes);
    put.push_back(msSince(t) * 1e3);
  }
  for (const auto& [key, bytes] : blobs) {
    const Clock::time_point t = Clock::now();
    const auto got = cache.get(key);
    get.push_back(msSince(t) * 1e3);
    if (!got || *got != *bytes) throw std::runtime_error("layout cache probe returned a wrong entry");
  }
  for (const auto& [key, bytes] : blobs) {
    const std::vector<std::uint8_t> state =
        amg::io::serializeSessionState(amg::io::deserializeLayout(*bytes, tech));
    const Clock::time_point t = Clock::now();
    const amg::db::Module m = amg::io::deserializeSessionState(state, tech);
    session.push_back(msSince(t) * 1e3);
  }
  *putUs = median(put);
  *getUs = median(get);
  *sessionUs = median(session);
  *n = blobs.size();
}

}  // namespace

Result runServeEdit(const Options& o) {
  Scripts s;
  s.text[0] = kSweepScript;
  s.text[1] = readFile(o.repoDir + "/scripts/library.amg");
  s.text[2] = readFile(o.repoDir + "/scripts/diffpair.amg");
  Rng rng(o.seed);
  const std::vector<Request> ops = makeOps(rng, kOpsPerSecond * o.seconds);

  Result r;
  SpanLog spans;
  if (!o.trace) {
    std::vector<double> setupS, rss;
    std::vector<PassOut> passes;
    std::vector<std::vector<double>> latency;
    {
      OneCpu pin;
      for (int round = 0; round < kSetUps; ++round) {
        Session ss = setUp(o, s, round, false);
        setupS.push_back(ss.seconds);
        if (round >= kRounds) continue;
        passes.push_back(runPass(ss, s, ops, spans));
        rss.push_back(passes.back().peakRssMb);
        std::vector<double> ms;
        for (const Served& sv : passes.back().served) ms.push_back(sv.latencyMs);
        latency.push_back(ms);
      }
    }
    r.setupS = median(setupS);
    r.peakRssMb = median(rss);
    medianOverRounds(latency, r);
    verify(o, s, ops, passes, r);
    return r;
  }

  // Traced run: an untraced round, then a fresh daemon with its obs
  // counters on (--stats) and client-side spans.
  std::vector<PassOut> passes;
  {
    OneCpu pin;
    Session plain = setUp(o, s, 0, false);
    passes.push_back(runPass(plain, s, ops, spans));
    spans.enabled = true;
    Session traced = setUp(o, s, 1, true);
    passes.push_back(runPass(traced, s, ops, spans));
  }
  const PassOut& untraced = passes[0];
  const PassOut& pass = passes[1];
  const Verified v = verify(o, s, ops, passes, r);

  std::size_t hits = 0, generated = 0, restoredOps = 0, restoredSteps = 0;
  std::vector<double> overhead;
  for (const Served& sv : pass.served) {
    overhead.push_back(sv.latencyMs - sv.res.wallMs);
    if (sv.res.cacheHit) {
      ++hits;
      continue;
    }
    ++generated;
    restoredOps += sv.res.prefixRestored > 0;
    restoredSteps += sv.res.prefixRestored;
  }
  double putUs = 0, getUs = 0, sessionUs = 0;
  std::size_t probeN = 0;
  probes(o, pass, &putUs, &getUs, &sessionUs, &probeN);

  // Daemon-side obs counters cover its whole lifetime: the warm-up and the
  // timed requests (pass.stats.jobsServed of them).
  const std::string& js = pass.statsJson;
  const double jobs = static_cast<double>(pass.stats.jobsServed);
  const double steps = jsonValue(js, "compact.steps");
  const double cand = jsonValue(js, "compact.constraints.candidates");
  const double emitted = jsonValue(js, "compact.constraints.emitted");
  const double queries = jsonValue(js, "spatial.queries");
  const double spatialCand = jsonValue(js, "spatial.candidates");
  const double rounds = jsonValue(js, "serve.batch.jobs", "count");
  const double batched = jsonValue(js, "serve.batch.jobs", "sum");

  const std::size_t N = ops.size();
  r.layer = {
      {"capi.overhead_ms", median(overhead), "ms", N},
      {"gen.cache_hit_ratio", static_cast<double>(hits) / N, "1", N, true},
      {"gen.prefix_hit_ratio", generated ? static_cast<double>(restoredOps) / generated : 0, "1",
       generated, true},
      {"gen.prefix_restored_steps_per_op",
       generated ? static_cast<double>(restoredSteps) / generated : 0, "count", generated, true},
      {"gen.cache_get_us", getUs, "us", probeN},
      {"gen.cache_put_us", putUs, "us", probeN},
      {"io.layout_deserialize_us", median(v.deserializeUs), "us", v.deserializeUs.size()},
      {"io.session_deserialize_us", sessionUs, "us", probeN},
      {"serve.jobs_per_round", rounds > 0 ? batched / rounds : 0, "jobs/round",
       static_cast<std::size_t>(rounds)},
      {"serve.cache_bytes", static_cast<double>(pass.stats.cacheBytes), "B", 1, true},
      {"serve.prefix_bytes", static_cast<double>(pass.stats.prefixBytes), "B", 1, true},
      {"compact.steps_per_op", steps / jobs, "count", N, true},
      {"compact.constraint_yield", cand > 0 ? emitted / cand : 0, "1", N, true},
      {"geom.spatial_queries_per_step", steps > 0 ? queries / steps : 0, "count", N, true},
      {"geom.spatial_candidates_per_step", steps > 0 ? spatialCand / steps : 0, "count", N, true},
      {"geom.spatial_queries_per_op", queries / jobs, "count", N, true},
      {"lang.vm_dispatch_per_op", jsonValue(js, "vm.dispatch") / jobs, "count", N, true},
      {"gen.prefix_put_bytes_per_op", jsonValue(js, "gen.prefix.bytes_put") / jobs, "B", N,
       true},
      {"drc.check_ms", median(v.drcMs), "ms", v.drcMs.size()},
      {"obs.trace_overhead_pct", (pass.wallS / untraced.wallS - 1) * 100, "%", 2},
  };
  spans.write(o.workDir + "/../serve_edit-seed" + std::to_string(o.seed) + "-spans.json");
  return r;
}

}  // namespace e2e
