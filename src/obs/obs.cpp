#include "obs/obs.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdlib>
#include <cstring>

#include "obs/json.h"

namespace amg::obs {

// --------------------------------------------------------------------------
// Switches
// --------------------------------------------------------------------------

void enableStats(bool on) { detail::gStats.store(on, std::memory_order_relaxed); }

void enableTrace(bool on) {
  // First enable after a quiet period restarts the clock so traces start
  // near t=0 regardless of how long the process ran untraced.
  if (on && !traceEnabled()) Tracer::global().clear();
  detail::gTrace.store(on, std::memory_order_relaxed);
}

void setLogLevel(LogLevel l) {
  detail::gLogLevel.store(static_cast<int>(l), std::memory_order_relaxed);
}

LogLevel logLevel() {
  return static_cast<LogLevel>(detail::gLogLevel.load(std::memory_order_relaxed));
}

const char* levelName(LogLevel l) {
  switch (l) {
    case LogLevel::Off: return "off";
    case LogLevel::Error: return "error";
    case LogLevel::Warn: return "warn";
    case LogLevel::Info: return "info";
    case LogLevel::Debug: return "debug";
    case LogLevel::Trace: return "trace";
  }
  return "?";
}

std::optional<LogLevel> parseLogLevel(std::string_view name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  for (const LogLevel l : {LogLevel::Off, LogLevel::Error, LogLevel::Warn,
                           LogLevel::Info, LogLevel::Debug, LogLevel::Trace})
    if (lower == levelName(l)) return l;
  return std::nullopt;
}

// --------------------------------------------------------------------------
// Histogram
// --------------------------------------------------------------------------

void Histogram::record(std::uint64_t v) {
  buckets_[bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur && !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  if (s.count == 0) return s;
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);

  // A percentile resolves to the upper bound of the bucket where the
  // cumulative count crosses it, clamped to the exact extrema.  Counts may
  // race with in-flight record() calls; the dump is a best-effort snapshot.
  auto percentile = [&](double p) -> double {
    const auto want = static_cast<std::uint64_t>(p * static_cast<double>(s.count - 1)) + 1;
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += buckets_[b].load(std::memory_order_relaxed);
      if (seen >= want) {
        // Bucket b holds values of bit width b: [2^(b-1), 2^b - 1]; b=0 is 0.
        const double hi = b == 0 ? 0.0 : static_cast<double>((b >= 64 ? ~0ull : (1ull << b) - 1));
        return std::clamp(hi, static_cast<double>(s.min), static_cast<double>(s.max));
      }
    }
    return static_cast<double>(s.max);
  };
  s.p50 = percentile(0.50);
  s.p95 = percentile(0.95);
  s.p99 = percentile(0.99);
  return s;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~0ull, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// --------------------------------------------------------------------------
// Stats registry
// --------------------------------------------------------------------------

Stats& Stats::global() {
  static Stats s;
  return s;
}

Counter& Stats::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  return *it->second;
}

Histogram& Stats::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first;
  return *it->second;
}

std::uint64_t Stats::value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

std::vector<std::pair<std::string, std::uint64_t>> Stats::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, Histogram::Snapshot>> Stats::histograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, Histogram::Snapshot>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.emplace_back(name, h->snapshot());
  return out;
}

void Stats::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

void Stats::dumpText(std::FILE* out) const {
  for (const auto& [name, v] : counters())
    if (v != 0) std::fprintf(out, "  %-44s %12" PRIu64 "\n", name.c_str(), v);
  for (const auto& [name, s] : histograms()) {
    if (s.count == 0) continue;
    std::fprintf(out,
                 "  %-44s count=%" PRIu64 " p50=%.0f p95=%.0f p99=%.0f max=%" PRIu64
                 " sum=%" PRIu64 "\n",
                 name.c_str(), s.count, s.p50, s.p95, s.p99, s.max, s.sum);
  }
}

namespace {

void writeStatsBody(JsonWriter& w, const Stats& stats) {
  w.beginObject("counters");
  for (const auto& [name, v] : stats.counters()) w.field(name.c_str(), v);
  w.end();
  w.beginObject("histograms");
  for (const auto& [name, s] : stats.histograms()) {
    w.beginObject(name.c_str());
    w.field("count", s.count);
    w.field("sum", s.sum);
    w.field("min", s.min);
    w.field("max", s.max);
    w.field("p50", s.p50);
    w.field("p95", s.p95);
    w.field("p99", s.p99);
    w.end();
  }
  w.end();
}

}  // namespace

bool Stats::writeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  JsonWriter w(f);
  w.beginObject();
  writeStatsBody(w, *this);
  w.end();
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

// --------------------------------------------------------------------------
// Tracer
// --------------------------------------------------------------------------

Tracer& Tracer::global() {
  static Tracer t;
  return t;
}

Tracer::ThreadBuf& Tracer::localBuf() {
  thread_local std::shared_ptr<ThreadBuf> buf;
  if (!buf) {
    buf = std::make_shared<ThreadBuf>();
    std::lock_guard<std::mutex> lock(mu_);
    buf->lane = static_cast<int>(bufs_.size());
    bufs_.push_back(buf);
  }
  return *buf;
}

void Tracer::record(Event ev) {
  ThreadBuf& b = localBuf();
  std::lock_guard<std::mutex> lock(b.mu);
  b.events.push_back(std::move(ev));
}

std::int64_t Tracer::sinceEpochNs(std::chrono::steady_clock::time_point t) const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : bufs_) {
    std::lock_guard<std::mutex> inner(b->mu);
    b->events.clear();
  }
  epoch_ = std::chrono::steady_clock::now();
}

std::size_t Tracer::eventCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& b : bufs_) {
    std::lock_guard<std::mutex> inner(b->mu);
    n += b->events.size();
  }
  return n;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;

  // Snapshot under the registration lock so lanes are stable.
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    bufs = bufs_;
  }

  JsonWriter w(f);
  w.beginObject();
  w.field("displayTimeUnit", "ms");
  w.beginArray("traceEvents");
  for (const auto& b : bufs) {
    std::lock_guard<std::mutex> inner(b->mu);
    // Lane metadata: Perfetto shows these as track names.
    w.beginObject();
    w.field("ph", "M");
    w.field("pid", 1);
    w.field("tid", b->lane);
    w.field("name", "thread_name");
    w.beginObject("args");
    w.field("name", b->lane == 0 ? std::string("main")
                                 : "worker-" + std::to_string(b->lane));
    w.end();
    w.end();
    for (const Event& ev : b->events) {
      w.beginObject();
      w.field("ph", "X");
      w.field("pid", 1);
      w.field("tid", b->lane);
      w.field("name", ev.name);
      w.field("cat", "amg");
      w.field("ts", static_cast<double>(ev.startNs) / 1000.0);   // microseconds
      w.field("dur", static_cast<double>(ev.durNs) / 1000.0);
      if (!ev.args.empty()) {
        w.beginObject("args");
        for (const TraceArg& a : ev.args) {
          if (a.quoted)
            w.field(a.key, std::string_view(a.value));
          else
            w.fieldRaw(a.key, a.value);
        }
        w.end();
      }
      w.end();
    }
  }
  w.end();
  w.end();
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

// --------------------------------------------------------------------------
// Span
// --------------------------------------------------------------------------

Span& Span::arg(const char* key, std::string value) {
  if (active_) args_.push_back(TraceArg{key, std::move(value), /*quoted=*/true});
  return *this;
}

Span& Span::arg(const char* key, std::string_view value) {
  if (active_) args_.push_back(TraceArg{key, std::string(value), true});
  return *this;
}

Span& Span::arg(const char* key, const char* value) {
  if (active_) args_.push_back(TraceArg{key, std::string(value), true});
  return *this;
}

Span& Span::arg(const char* key, std::int64_t value) {
  if (active_) args_.push_back(TraceArg{key, std::to_string(value), false});
  return *this;
}

Span& Span::arg(const char* key, std::uint64_t value) {
  if (active_) args_.push_back(TraceArg{key, std::to_string(value), false});
  return *this;
}

Span& Span::arg(const char* key, double value) {
  if (active_) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    args_.push_back(TraceArg{key, buf, false});
  }
  return *this;
}

Span& Span::arg(const char* key, bool value) {
  if (active_) args_.push_back(TraceArg{key, value ? "true" : "false", false});
  return *this;
}

double Span::elapsedSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
      .count();
}

void Span::finish() {
  if (finished_) return;
  finished_ = true;
  flight::noteSpanEnd(name_);
  if (!active_) return;
  const auto end = std::chrono::steady_clock::now();
  Tracer& t = Tracer::global();
  const std::int64_t startNs = t.sinceEpochNs(start_);
  const std::int64_t durNs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_).count();
  t.record(Tracer::Event{name_, startNs, durNs < 0 ? 0 : durNs, std::move(args_)});
}

// --------------------------------------------------------------------------
// Log
// --------------------------------------------------------------------------

namespace {

std::mutex gLogMu;
std::function<void(const LogRecord&)> gLogSink;  // guarded by gLogMu

std::chrono::steady_clock::time_point logEpoch() {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

}  // namespace

void setLogSink(std::function<void(const LogRecord&)> sink) {
  std::lock_guard<std::mutex> lock(gLogMu);
  gLogSink = std::move(sink);
}

void logEmit(LogLevel level, const char* category, std::string message) {
  LogRecord rec{level, category, std::move(message),
                std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              logEpoch())
                    .count()};
  // Only level-enabled messages reach here (OBS_LOG gates first), so the
  // flight recorder's copy preserves the lazy-message guarantee.
  flight::noteLog(static_cast<int>(rec.level), rec.category,
                  rec.message.c_str(), rec.message.size());
  std::lock_guard<std::mutex> lock(gLogMu);
  if (gLogSink) {
    gLogSink(rec);
    return;
  }
  std::fprintf(stderr, "[%8.3f] %-5s %s: %s\n", rec.seconds, levelName(rec.level),
               rec.category, rec.message.c_str());
}

// --------------------------------------------------------------------------
// CLI plumbing
// --------------------------------------------------------------------------

namespace {

/// Value of "--flag=..." or nullptr.
const char* eqValue(const char* arg, const char* flag) {
  const std::size_t n = std::strlen(flag);
  if (std::strncmp(arg, flag, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

[[noreturn]] void dieBadFlag(const char* what) {
  std::fprintf(stderr, "error: %s\n%s", what, cliUsage());
  std::exit(2);
}

}  // namespace

const char* cliUsage() {
  return "observability flags:\n"
         "  --trace FILE       write a Chrome/Perfetto trace of the run\n"
         "  --stats[=FILE]     counters/histograms: text to stderr, or JSON file\n"
         "  --log-level LEVEL  off|error|warn|info|debug|trace (default off)\n";
}

bool parseCliFlag(int argc, char** argv, int& i, CliOptions& o) {
  const char* arg = argv[i];
  auto takeValue = [&](const char* flag) -> const char* {
    if (const char* v = eqValue(arg, flag)) return v;
    if (std::strcmp(arg, flag) == 0) {
      if (i + 1 >= argc) dieBadFlag("missing value after flag");
      return argv[++i];
    }
    return nullptr;
  };

  if (const char* v = takeValue("--trace")) {
    o.tracePath = v;
    enableTrace(true);
    return true;
  }
  if (const char* v = eqValue(arg, "--stats")) {
    o.stats = true;
    o.statsPath = v;
    enableStats(true);
    return true;
  }
  if (std::strcmp(arg, "--stats") == 0) {
    o.stats = true;
    enableStats(true);
    return true;
  }
  if (const char* v = takeValue("--log-level")) {
    const auto l = parseLogLevel(v);
    if (!l) dieBadFlag("unknown log level");
    setLogLevel(*l);
    return true;
  }
  return false;
}

void finishCli(const CliOptions& o) {
  if (!o.tracePath.empty()) {
    if (Tracer::global().write(o.tracePath))
      std::fprintf(stderr, "obs: wrote trace (%zu events) to %s\n",
                   Tracer::global().eventCount(), o.tracePath.c_str());
    else
      std::fprintf(stderr, "obs: cannot write trace to %s\n", o.tracePath.c_str());
  }
  if (o.stats) {
    if (o.statsPath.empty()) {
      Stats::global().dumpText(stderr);
    } else if (Stats::global().writeJson(o.statsPath)) {
      std::fprintf(stderr, "obs: wrote stats to %s\n", o.statsPath.c_str());
    } else {
      std::fprintf(stderr, "obs: cannot write stats to %s\n", o.statsPath.c_str());
    }
  }
}

}  // namespace amg::obs
