// Shared plumbing of the end-to-end benchmark: the seeded generator, the
// latency summary, peak-RSS probes, layout digests, the in-memory span log
// and the result record every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

#include "db/module.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// splitmix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed * 0x9e3779b97f4a7c15ull + 1) {}
  std::uint64_t next();
  double uniform();                 ///< [0, 1)
  int below(int n);                 ///< [0, n)
  bool chance(int num, int den) { return below(den) < num; }

 private:
  std::uint64_t s_;
};

/// `n` draws from the log-uniform distribution on [lo, hi], stratified: the
/// log range is cut into n equal strata and one point is drawn in each, so
/// every seed covers the whole range evenly.  Returned in stratum order.
std::vector<double> stratifiedLogUniform(Rng& rng, int n, double lo, double hi);

/// Deterministic Fisher-Yates shuffle.
template <class T>
void shuffle(Rng& rng, std::vector<T>& v) {
  for (int i = static_cast<int>(v.size()) - 1; i > 0; --i) {
    const int j = rng.below(i + 1);
    std::swap(v[i], v[j]);
  }
}

/// A decimal parameter value rendered with one fractional digit, so the
/// generated request text is exact and platform independent.
std::string decimal(double v);

struct Latency {
  double p50 = 0;
  double tail = 0;
  double tailPct = 0;     ///< which percentile `tail` is
  std::size_t beyond = 0; ///< samples above the tail percentile
  std::size_t n = 0;
};
/// Nearest-rank median and the highest percentile of the ladder
/// 99.9/99.5/99/98/95/90/80/75/50 that leaves at least ten samples beyond it.
Latency summarize(std::vector<double> ms);

double median(std::vector<double> v);

/// Peak resident set (VmHWM) of a process, in MiB; `pid` 0 = this process.
double peakRssMb(pid_t pid = 0);

/// FNV-1a over serialized layout bytes — the same digest gen::JobResult::
/// layoutHash and the wire protocol carry.
std::uint64_t digestOf(const std::vector<std::uint8_t>& bytes);
std::uint64_t digestOf(const amg::db::Module& m);

/// Bounding-box area in square micrometres.
double areaUm2(const amg::db::Module& m);

/// Spans recorded by the benchmark around its calls into each layer.  Kept
/// in memory; written out once at the end of a traced run.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double startMs, endMs;
    int parent;  ///< index of the enclosing span, -1 at top level
    int op;      ///< operation index the span belongs to, -1 for set-up
  };
  bool enabled = false;

  /// Opens a span; returns its index (or -1 when disabled).
  int begin(const std::string& name, int op);
  void end(int idx);

  /// Per-name count, total and self time (total minus the time covered by
  /// direct children), in milliseconds.
  struct Roll {
    std::size_t count = 0;
    double totalMs = 0, selfMs = 0;
  };
  std::map<std::string, Roll> rollup() const;
  /// Chrome trace-event JSON of every span, plus the rollup under "rollup".
  bool write(const std::string& path) const;

 private:
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII helper over SpanLog.
class Scope {
 public:
  Scope(SpanLog& log, const std::string& name, int op)
      : log_(log), idx_(log.begin(name, op)), t0_(Clock::now()) {}
  ~Scope() { close(); }
  /// Ends the span; returns its duration in milliseconds.
  double close() {
    if (!done_) {
      ms_ = msSince(t0_);
      log_.end(idx_);
      done_ = true;
    }
    return ms_;
  }

 private:
  SpanLog& log_;
  int idx_;
  Clock::time_point t0_;
  bool done_ = false;
  double ms_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;  ///< how many measurements the value summarizes
  bool exact = false;   ///< a count that must repeat exactly run to run
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string repoDir;  ///< checkout root (scripts/)
  std::string workDir;  ///< scratch directory inside the checkout
  std::string refsDir;  ///< committed reference digests
  bool writeRefs = false;  ///< record references instead of checking them
  int perturbRef = -1;     ///< self-test: corrupt this reference entry
};

/// What a workload run reports.  `ops` are the timed operations, each with
/// its stable description, digest and outcome.
struct Op {
  std::string key;          ///< seed-derived description, e.g. "rows=57.3"
  double latencyMs = 0;
  std::uint64_t digest = 0;
  double areaUm2 = 0;
  bool ok = false;          ///< generated, DRC-clean and digest-verified
  std::string why;          ///< first failure reason
};

struct Result {
  /// Every timed execution: each workload runs its op list kRounds times.
  std::vector<Op> ops;
  /// Per-op latency: the median of the op's executions over the rounds,
  /// so a stall that hits one round does not move the summary.
  std::vector<double> latencyMs;
  double setupS = 0;       ///< median over the run's kSetUps set-ups
  double peakRssMb = 0;
  bool deterministic = true;  ///< no drift between repeated executions
  std::vector<Metric> layer;  ///< per-layer metrics (traced runs)
  std::vector<std::string> notes;
};

/// Rounds per untraced run; every round starts with its own set-up.
constexpr int kRounds = 3;
/// Set-ups per untraced run: one before each round, and the rest alone,
/// to give setup_s's median more samples.
constexpr int kSetUps = 7;

/// Fills r.latencyMs with per-op medians of `perRound[round][op]`.
void medianOverRounds(const std::vector<std::vector<double>>& perRound, Result& r);

/// Reference digests committed for the default seed: one line per distinct
/// op, "op <key> <digest-hex>", plus "area <value>" and "count <name>
/// <value>".
struct Refs {
  bool present = false;
  std::map<std::string, std::uint64_t> ops;
  std::string area;
  std::map<std::string, std::string> counts;
};
Refs loadRefs(const Options& o);
void saveRefs(const Options& o, const Result& r);
/// Marks every execution whose digest differs from the committed
/// reference as failed and checks area/count drift.  Skipped (with a note)
/// when no reference was committed for this seed and length.
void checkRefs(const Options& o, Result& r);

/// Fixed-precision rendering used for the exact-repeat checks.
std::string exact(double v);

std::string hex(std::uint64_t v);

void fail(Op& op, const std::string& why);

/// Workload entry points.
Result runSweepCold(const Options& o);
Result runServeEdit(const Options& o);
Result runAmplifierFlow(const Options& o);

/// The default seed, whose op digests are committed under refs/.
constexpr std::uint64_t kDefaultSeed = 1;

}  // namespace e2e
