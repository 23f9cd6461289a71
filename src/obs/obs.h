// Flow-wide observability: counters & histograms, RAII span tracing with
// Perfetto-compatible export, and a structured event log.
//
// The generator is a multi-stage pipeline — DSL interpretation with
// backtracking, primitive auto-expansion, successive compaction, the §2.4
// order search, DRC and routing — and an analog-layout flow lives or dies
// by being able to see *why* a variant was rejected or a shape expanded.
// This layer gives every stage three cheap channels:
//
//  * `obs::Stats` — a thread-safe registry of monotonic counters and
//    log₂-bucketed value histograms with hierarchical dotted names
//    ("compact.constraints.pruned").  Hot paths go through OBS_COUNT /
//    OBS_HIST, which check one relaxed atomic flag, then cache the registry
//    entry in a function-local static — a disabled build path does no
//    lookup, no allocation, no atomic RMW.
//  * `obs::Span` — RAII wall-clock spans buffered per thread and merged by
//    `obs::Tracer::write()` into Chrome trace-event JSON ("X" complete
//    events) loadable in Perfetto; spans carry typed args (module name,
//    entity, step index, permutation id) and map worker threads onto
//    stable lanes.
//  * `OBS_LOG` — a leveled structured event log, off by default; the level
//    gate is a single relaxed atomic load *before* the message expression
//    is evaluated, so a disabled log line costs one predictable branch.
//
// Everything is off by default.  The examples enable the channels from
// --trace / --stats / --log-level (see CliOptions below); benches reuse the
// registry dump through obs::StatsWriter (stats_writer.h).
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight.h"

namespace amg::obs {

// --------------------------------------------------------------------------
// Global switches
// --------------------------------------------------------------------------

enum class LogLevel : int { Off = 0, Error = 1, Warn = 2, Info = 3, Debug = 4, Trace = 5 };

namespace detail {
inline std::atomic<bool> gStats{false};
inline std::atomic<bool> gTrace{false};
inline std::atomic<int> gLogLevel{static_cast<int>(LogLevel::Off)};
}  // namespace detail

/// Are counters/histograms being recorded?  Single relaxed load — the gate
/// every OBS_COUNT/OBS_HIST site checks first.
inline bool statsEnabled() { return detail::gStats.load(std::memory_order_relaxed); }
void enableStats(bool on);

/// Is span tracing active?  Spans constructed while disabled record nothing.
inline bool traceEnabled() { return detail::gTrace.load(std::memory_order_relaxed); }
void enableTrace(bool on);

/// Would a message at `l` be emitted?  Checked by OBS_LOG *before* the
/// message expression is evaluated.
inline bool logEnabled(LogLevel l) {
  return static_cast<int>(l) <= detail::gLogLevel.load(std::memory_order_relaxed);
}
void setLogLevel(LogLevel l);
LogLevel logLevel();
const char* levelName(LogLevel l);
/// "off" | "error" | "warn" | "info" | "debug" | "trace" (case-insensitive).
std::optional<LogLevel> parseLogLevel(std::string_view name);

// --------------------------------------------------------------------------
// Counters & histograms
// --------------------------------------------------------------------------

/// A monotonic counter.  add() is a relaxed fetch-add; totals are exact
/// under any number of concurrent writers.
class Counter {
 public:
  void add(std::uint64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// A value histogram over log₂ buckets (bucket b holds values with bit
/// width b), plus exact count/sum/min/max.  record() is lock-free;
/// percentiles are approximate (resolved to a bucket, clamped to the exact
/// min/max), which is the right trade for hot-path instrumentation.
class Histogram {
 public:
  void record(std::uint64_t v);

  struct Snapshot {
    std::uint64_t count = 0, sum = 0, min = 0, max = 0;
    double p50 = 0, p95 = 0, p99 = 0;
  };
  Snapshot snapshot() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  void reset();

 private:
  static constexpr int kBuckets = 65;  // bit widths 0..64
  static int bucketOf(std::uint64_t v) { return std::bit_width(v); }

  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};
};

/// The registry: dotted hierarchical names mapped to counters/histograms.
/// Entries are created on first use and never move (callers cache
/// references); reset() zeroes values but keeps entries, so cached
/// references stay valid across benchmark rounds.
class Stats {
 public:
  static Stats& global();

  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Current counter value; 0 when the counter was never touched.
  std::uint64_t value(std::string_view name) const;

  /// Sorted snapshots for dumps and tests.
  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  std::vector<std::pair<std::string, Histogram::Snapshot>> histograms() const;

  /// Zero every counter/histogram (entries survive; see class comment).
  void reset();

  /// Human-readable dump: counters and histograms in name order.
  /// Zero-valued counters are skipped.
  void dumpText(std::FILE* out) const;
  /// Same content as one JSON object:
  /// {"counters": {...}, "histograms": {...}}.
  bool writeJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// Hot-path macros: one relaxed load when disabled; when enabled, a cached
// registry reference (function-local static, resolved once) plus one
// relaxed fetch-add.  `name` must be a string literal (or at least live for
// the program — the registry keeps a copy, but the cache is per call site).
#define OBS_COUNT(name) OBS_COUNT_N(name, 1)
#define OBS_COUNT_N(name, n)                                          \
  do {                                                                \
    if (::amg::obs::statsEnabled()) {                                 \
      static ::amg::obs::Counter& obs_counter_ =                      \
          ::amg::obs::Stats::global().counter(name);                  \
      obs_counter_.add(static_cast<std::uint64_t>(n));                \
    }                                                                 \
  } while (0)
#define OBS_HIST(name, v)                                             \
  do {                                                                \
    if (::amg::obs::statsEnabled()) {                                 \
      static ::amg::obs::Histogram& obs_hist_ =                       \
          ::amg::obs::Stats::global().histogram(name);                \
      obs_hist_.record(static_cast<std::uint64_t>(v));                \
    }                                                                 \
  } while (0)

// --------------------------------------------------------------------------
// Span tracing
// --------------------------------------------------------------------------

/// One span argument, pre-rendered: strings are emitted quoted/escaped,
/// numbers and booleans raw.
struct TraceArg {
  const char* key;
  std::string value;
  bool quoted;
};

/// Collects finished spans into per-thread buffers and merges them into a
/// Chrome trace-event JSON file (Perfetto's legacy-JSON importer).  Worker
/// threads get stable small lane ids in registration order; a metadata
/// event names each lane.
class Tracer {
 public:
  static Tracer& global();

  /// Drop all buffered events and restart the time origin.
  void clear();

  /// Merge every thread's events and write
  /// {"displayTimeUnit":"ms","traceEvents":[...]}.  Returns false when the
  /// file cannot be opened.
  bool write(const std::string& path) const;

  std::size_t eventCount() const;

  // -- internals used by Span ----------------------------------------------
  struct Event {
    const char* name;
    std::int64_t startNs;
    std::int64_t durNs;
    std::vector<TraceArg> args;
  };
  void record(Event ev);
  std::int64_t sinceEpochNs(std::chrono::steady_clock::time_point t) const;

 private:
  struct ThreadBuf {
    std::mutex mu;  // owner thread appends; write()/clear() read/clear
    std::vector<Event> events;
    int lane = 0;
  };
  ThreadBuf& localBuf();

  mutable std::mutex mu_;  // guards bufs_ and epoch_
  std::vector<std::shared_ptr<ThreadBuf>> bufs_;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
};

/// RAII wall-clock span.  Construction samples the clock (always — the
/// elapsed time doubles as the flow's timing source, see elapsedSeconds());
/// destruction buffers a trace event only when tracing was enabled at
/// construction.  arg() is a no-op on inactive spans, so argument
/// formatting costs nothing in an untraced run — guard any *expensive*
/// argument computation with `if (span) ...`.
class Span {
 public:
  explicit Span(const char* name)
      : name_(name),
        active_(traceEnabled()),
        start_(std::chrono::steady_clock::now()) {
    // The flight recorder (flight.h) sees every span regardless of whether
    // tracing is enabled — that's its whole point.
    flight::noteSpanBegin(name_, start_);
  }
  ~Span() { finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when this span will be recorded.
  explicit operator bool() const { return active_; }

  Span& arg(const char* key, std::string value);
  Span& arg(const char* key, std::string_view value);
  Span& arg(const char* key, const char* value);
  Span& arg(const char* key, std::int64_t value);
  Span& arg(const char* key, std::uint64_t value);
  Span& arg(const char* key, int value) { return arg(key, static_cast<std::int64_t>(value)); }
  Span& arg(const char* key, double value);
  Span& arg(const char* key, bool value);

  /// Wall-clock seconds since construction; valid whether or not tracing
  /// is enabled (replaces ad-hoc std::chrono timing blocks).
  double elapsedSeconds() const;

  /// Emit now instead of at destruction (idempotent).
  void finish();

 private:
  const char* name_;
  bool active_;
  bool finished_ = false;
  std::chrono::steady_clock::time_point start_;
  std::vector<TraceArg> args_;
};

// --------------------------------------------------------------------------
// Structured event log
// --------------------------------------------------------------------------

struct LogRecord {
  LogLevel level;
  const char* category;  ///< dotted source, e.g. "lang.variant"
  std::string message;
  double seconds;  ///< since process start of the log subsystem
};

/// Emit one record to the sink (default: one line on stderr).  Call through
/// OBS_LOG so the message expression is only evaluated when the level is on.
void logEmit(LogLevel level, const char* category, std::string message);

/// Replace the sink (nullptr restores the stderr default).  Used by tests
/// to capture records.
void setLogSink(std::function<void(const LogRecord&)> sink);

/// `level` is the bare enumerator name: OBS_LOG(Debug, "lang.variant",
/// "branch 2 rejected: " + why) — the message expression is NOT evaluated
/// unless the level is enabled.
#define OBS_LOG(level, category, message)                                    \
  do {                                                                       \
    if (::amg::obs::logEnabled(::amg::obs::LogLevel::level))                 \
      ::amg::obs::logEmit(::amg::obs::LogLevel::level, category, (message)); \
  } while (0)

// --------------------------------------------------------------------------
// Command-line plumbing shared by the examples
// --------------------------------------------------------------------------

/// The observability flags every example understands:
///   --trace FILE | --trace=FILE      span tracing -> Chrome/Perfetto JSON
///   --stats [FILE] | --stats=FILE    counters; text to stderr, or JSON file
///   --log-level LVL | --log-level=LVL   off|error|warn|info|debug|trace
struct CliOptions {
  std::string tracePath;
  bool stats = false;
  std::string statsPath;  ///< empty = text dump to stderr
};

/// Try to consume argv[i] (and possibly argv[i+1]) as an observability
/// flag.  On success updates `o`, advances `i` past the consumed words,
/// enables the corresponding channel, and returns true.  Unknown arguments
/// return false untouched.  Exits with a message on a malformed value.
bool parseCliFlag(int argc, char** argv, int& i, CliOptions& o);

/// End-of-run hook: write the trace file and/or the stats dump that the
/// parsed flags asked for (no-op for a default CliOptions).
void finishCli(const CliOptions& o);

/// The usage snippet describing the flags above, for the examples' help text.
const char* cliUsage();

}  // namespace amg::obs
