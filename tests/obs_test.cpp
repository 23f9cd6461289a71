// The observability layer's own contract: exact concurrent counters, trace
// files that are valid Chrome trace-event JSON, a genuinely free disabled
// path (no allocation, no registry touch), deterministic stats across
// worker counts, and the central spatial-engine config block steering the
// consumers' defaults.
#include "obs/obs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "drc/drc.h"
#include "obs/stats_writer.h"
#include "tech/builtin.h"
#include "util/thread_pool.h"

// ---- global allocation counting for the zero-overhead test ---------------
// Every operator new in the binary bumps this; the test snapshots it around
// a disabled-instrumentation section and expects zero growth.
namespace {
std::atomic<std::uint64_t> gAllocCount{0};
}  // namespace

void* operator new(std::size_t n) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace amg;

// ---- helpers --------------------------------------------------------------

/// Minimal recursive-descent JSON validator: accepts exactly the grammar a
/// real parser would, so a truncated or mis-comma'd trace file fails here.
struct JsonCheck {
  const std::string& s;
  std::size_t i = 0;
  bool ok = true;

  void ws() {
    while (i < s.size() &&
           (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' || s[i] == '\r'))
      ++i;
  }
  bool lit(const char* l) {
    const std::size_t n = std::strlen(l);
    if (s.compare(i, n, l) == 0) {
      i += n;
      return true;
    }
    return false;
  }
  void value() {
    ws();
    if (i >= s.size()) {
      ok = false;
      return;
    }
    if (s[i] == '{')
      object();
    else if (s[i] == '[')
      array();
    else if (s[i] == '"')
      str();
    else if (!lit("true") && !lit("false") && !lit("null"))
      number();
  }
  void object() {
    ++i;
    ws();
    if (i < s.size() && s[i] == '}') {
      ++i;
      return;
    }
    while (ok) {
      ws();
      str();
      ws();
      if (i >= s.size() || s[i] != ':') {
        ok = false;
        return;
      }
      ++i;
      value();
      ws();
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      break;
    }
    if (!ok || i >= s.size() || s[i] != '}')
      ok = false;
    else
      ++i;
  }
  void array() {
    ++i;
    ws();
    if (i < s.size() && s[i] == ']') {
      ++i;
      return;
    }
    while (ok) {
      value();
      ws();
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      break;
    }
    if (!ok || i >= s.size() || s[i] != ']')
      ok = false;
    else
      ++i;
  }
  void str() {
    if (i >= s.size() || s[i] != '"') {
      ok = false;
      return;
    }
    ++i;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') ++i;
      ++i;
    }
    if (i >= s.size())
      ok = false;
    else
      ++i;
  }
  void number() {
    const std::size_t start = i;
    while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) ||
                            std::strchr("+-.eE", s[i])))
      ++i;
    if (i == start) ok = false;
  }
};

bool validJson(const std::string& text) {
  JsonCheck c{text};
  c.value();
  c.ws();
  return c.ok && c.i == text.size();
}

std::string readFile(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

std::size_t countSub(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t p = text.find(needle); p != std::string::npos;
       p = text.find(needle, p + needle.size()))
    ++n;
  return n;
}

/// A row of spaced metal1 pads plus one deliberate spacing violation —
/// enough geometry to drive the DRC counters.
db::Module padRow(int n) {
  const tech::Technology& t = tech::bicmos1u();
  db::Module m(t, "obs_pads");
  for (int i = 0; i < n; ++i)
    m.addShape(db::makeShape(Box::fromSize(i * 5000, 0, 2000, 2000),
                             t.layer("metal1"), m.net("n" + std::to_string(i))));
  return m;
}

/// RAII guard: every test leaves the global switches off and the registry
/// content behind (entries are permanent by design; values don't matter).
struct ObsQuiet {
  ~ObsQuiet() {
    obs::enableStats(false);
    obs::enableTrace(false);
    obs::setLogLevel(obs::LogLevel::Off);
    obs::setLogSink(nullptr);
  }
};

// ---- counters & histograms ------------------------------------------------

TEST(ObsStats, CounterExactUnderConcurrency) {
  ObsQuiet q;
  obs::enableStats(true);
  obs::Stats::global().reset();
  constexpr std::size_t kTasks = 64, kPerTask = 10'000;
  util::parallelFor(
      kTasks,
      [&](std::size_t) {
        for (std::size_t j = 0; j < kPerTask; ++j) OBS_COUNT("test.hammer");
      },
      8);
  EXPECT_EQ(obs::Stats::global().value("test.hammer"), kTasks * kPerTask);
}

TEST(ObsStats, CounterAddNExact) {
  ObsQuiet q;
  obs::enableStats(true);
  obs::Stats::global().reset();
  util::parallelFor(
      32, [&](std::size_t i) { OBS_COUNT_N("test.addn", i); }, 4);
  EXPECT_EQ(obs::Stats::global().value("test.addn"), 31u * 32u / 2u);
}

TEST(ObsStats, HistogramCountSumMinMaxExactPercentilesBounded) {
  ObsQuiet q;
  obs::enableStats(true);
  obs::Stats::global().reset();
  util::parallelFor(
      100, [&](std::size_t i) { OBS_HIST("test.hist", i + 1); }, 8);
  const auto snap = obs::Stats::global().histogram("test.hist").snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.sum, 5050u);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, 100u);
  // log2 buckets: the percentile resolves to a bucket bound within [min,max].
  EXPECT_GE(snap.p50, 32.0);
  EXPECT_LE(snap.p50, 64.0);
  EXPECT_GE(snap.p95, snap.p50);
  EXPECT_LE(snap.p95, 100.0);
}

TEST(ObsStats, ResetKeepsEntriesAndCachedReferences) {
  ObsQuiet q;
  obs::enableStats(true);
  obs::Counter& c = obs::Stats::global().counter("test.sticky");
  c.add(7);
  obs::Stats::global().reset();
  EXPECT_EQ(obs::Stats::global().value("test.sticky"), 0u);
  c.add(3);  // the pre-reset reference must still feed the same entry
  EXPECT_EQ(obs::Stats::global().value("test.sticky"), 3u);
}

TEST(ObsStats, JsonDumpIsValid) {
  ObsQuiet q;
  obs::enableStats(true);
  obs::Stats::global().reset();
  OBS_COUNT_N("test.dump", 41);
  OBS_HIST("test.dump.hist", 9);
  const std::string path = testing::TempDir() + "obs_stats_test.json";
  ASSERT_TRUE(obs::Stats::global().writeJson(path));
  const std::string text = readFile(path);
  EXPECT_TRUE(validJson(text)) << text;
  EXPECT_NE(text.find("\"test.dump\":41"), std::string::npos);
  EXPECT_NE(text.find("\"test.dump.hist\""), std::string::npos);
}

// ---- span tracing ---------------------------------------------------------

TEST(ObsTrace, WritesValidPerfettoJsonWithThreadLanes) {
  ObsQuiet q;
  obs::enableTrace(false);
  obs::enableTrace(true);  // off->on restarts the epoch with no events
  EXPECT_EQ(obs::Tracer::global().eventCount(), 0u);

  constexpr std::size_t kTasks = 16;
  util::parallelFor(
      kTasks,
      [&](std::size_t i) {
        obs::Span s("test.work");
        s.arg("task", static_cast<std::uint64_t>(i))
            .arg("label", "quote\" back\\slash\nnewline");
      },
      4);
  {
    obs::Span s("test.main");
    s.arg("pi", 3.25).arg("neg", static_cast<std::int64_t>(-7)).arg("on", true);
  }
  EXPECT_GE(obs::Tracer::global().eventCount(), kTasks + 1);

  const std::string path = testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(obs::Tracer::global().write(path));
  obs::enableTrace(false);

  const std::string text = readFile(path);
  EXPECT_TRUE(validJson(text)) << text.substr(0, 400);
  EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Every event is a complete span ("X") or lane metadata ("M"), and every
  // X event carries ts and dur.
  const std::size_t xs = countSub(text, "\"ph\":\"X\"");
  const std::size_t ms = countSub(text, "\"ph\":\"M\"");
  EXPECT_GE(xs, kTasks + 1);
  EXPECT_GE(ms, 1u);  // at least the main lane is named
  EXPECT_EQ(countSub(text, "\"ph\":\""), xs + ms);
  EXPECT_EQ(countSub(text, "\"ts\":"), xs);
  EXPECT_EQ(countSub(text, "\"dur\":"), xs);
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
  // Args survive with escaping intact.
  EXPECT_NE(text.find("quote\\\" back\\\\slash\\nnewline"), std::string::npos);
  EXPECT_NE(text.find("\"pi\":3.25"), std::string::npos);
  EXPECT_NE(text.find("\"neg\":-7"), std::string::npos);
  EXPECT_NE(text.find("\"on\":true"), std::string::npos);
}

TEST(ObsTrace, DisabledSpansRecordNothingButStillTime) {
  ObsQuiet q;
  obs::enableTrace(false);
  obs::enableTrace(true);
  obs::enableTrace(false);  // span below sees tracing disabled
  obs::Span s("test.silent");
  EXPECT_FALSE(static_cast<bool>(s));
  EXPECT_GE(s.elapsedSeconds(), 0.0);  // the clock still works untraced
  s.finish();
  EXPECT_EQ(obs::Tracer::global().eventCount(), 0u);
}

// ---- zero-overhead disabled path ------------------------------------------

TEST(ObsOverhead, DisabledPathAllocatesNothing) {
  ObsQuiet q;
  obs::enableStats(false);
  obs::enableTrace(false);
  obs::setLogLevel(obs::LogLevel::Off);

  const std::uint64_t before = gAllocCount.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    OBS_COUNT("test.zero.count");
    OBS_COUNT_N("test.zero.countn", i);
    OBS_HIST("test.zero.hist", i);
    obs::Span s("test.zero.span");
    s.arg("i", static_cast<std::int64_t>(i));  // numeric arg: no-op inactive
    if (s) s.arg("big", std::string(128, 'x'));  // guarded: never evaluated
    // The message expression would allocate; OBS_LOG must not evaluate it.
    OBS_LOG(Debug, "test.zero", std::string(128, 'y') + std::to_string(i));
  }
  EXPECT_EQ(gAllocCount.load(std::memory_order_relaxed) - before, 0u);
}

// ---- determinism across worker counts -------------------------------------

TEST(ObsStats, DeterministicAcrossJobCounts) {
  ObsQuiet q;
  obs::enableStats(true);
  std::vector<db::Module> mods;
  for (int i = 0; i < 8; ++i) mods.push_back(padRow(6 + i));

  auto runWith = [&](std::size_t jobs) {
    obs::Stats::global().reset();
    util::parallelFor(
        mods.size(),
        [&](std::size_t i) {
          drc::CheckOptions opt;
          opt.latchUp = false;
          (void)drc::check(mods[i], opt);
        },
        jobs);
    return obs::Stats::global().counters();
  };

  const auto serial = runWith(1);
  const auto parallel = runWith(4);
  EXPECT_EQ(serial, parallel);
  // And the workload actually counted something.
  EXPECT_GT(obs::Stats::global().value("drc.checks"), 0u);
  EXPECT_GT(obs::Stats::global().value("drc.spacing.universe"), 0u);
}

// ---- structured log --------------------------------------------------------

TEST(ObsLog, LevelGatesEvaluationAndSinkCapturesRecords) {
  ObsQuiet q;
  std::vector<obs::LogRecord> seen;
  obs::setLogSink([&](const obs::LogRecord& r) { seen.push_back(r); });

  int evaluated = 0;
  auto msg = [&](const char* text) {
    ++evaluated;
    return std::string(text);
  };

  obs::setLogLevel(obs::LogLevel::Warn);
  OBS_LOG(Error, "test.log", msg("e"));
  OBS_LOG(Warn, "test.log", msg("w"));
  OBS_LOG(Info, "test.log", msg("i"));   // below the level: not evaluated
  OBS_LOG(Debug, "test.log", msg("d"));  // below the level: not evaluated
  EXPECT_EQ(evaluated, 2);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].level, obs::LogLevel::Error);
  EXPECT_EQ(seen[0].message, "e");
  EXPECT_STREQ(seen[1].category, "test.log");
  EXPECT_GE(seen[1].seconds, 0.0);

  obs::setLogLevel(obs::LogLevel::Off);
  OBS_LOG(Error, "test.log", msg("off"));
  EXPECT_EQ(evaluated, 2);
  EXPECT_EQ(seen.size(), 2u);
}

TEST(ObsLog, ParseLevelNames) {
  EXPECT_EQ(obs::parseLogLevel("debug"), obs::LogLevel::Debug);
  EXPECT_EQ(obs::parseLogLevel("WARN"), obs::LogLevel::Warn);
  EXPECT_EQ(obs::parseLogLevel("off"), obs::LogLevel::Off);
  EXPECT_FALSE(obs::parseLogLevel("loud").has_value());
}

// ---- CLI plumbing ----------------------------------------------------------

TEST(ObsCli, ParsesTraceStatsAndLogLevelForms) {
  ObsQuiet q;
  std::vector<std::string> words = {"prog",    "--trace",          "t.json",
                                    "--stats", "--log-level=info", "other"};
  std::vector<char*> argv;
  for (auto& w : words) argv.push_back(w.data());
  const int argc = static_cast<int>(argv.size());

  obs::CliOptions o;
  int consumed = 0;
  for (int i = 1; i < argc; ++i)
    if (obs::parseCliFlag(argc, argv.data(), i, o)) ++consumed;
  EXPECT_EQ(consumed, 3);
  EXPECT_EQ(o.tracePath, "t.json");
  EXPECT_TRUE(o.stats);
  EXPECT_TRUE(o.statsPath.empty());
  EXPECT_TRUE(obs::statsEnabled());
  EXPECT_TRUE(obs::traceEnabled());
  EXPECT_EQ(obs::logLevel(), obs::LogLevel::Info);

  obs::CliOptions o2;
  std::vector<std::string> w2 = {"prog", "--trace=x.json", "--stats=s.json"};
  std::vector<char*> a2;
  for (auto& w : w2) a2.push_back(w.data());
  for (int i = 1; i < 3; ++i)
    (void)obs::parseCliFlag(3, a2.data(), i, o2);
  EXPECT_EQ(o2.tracePath, "x.json");
  EXPECT_EQ(o2.statsPath, "s.json");
  EXPECT_NE(std::string(obs::cliUsage()).find("--trace"), std::string::npos);
}

// ---- bench stats writer ----------------------------------------------------

TEST(ObsStatsWriter, PreservesBenchSchema) {
  ObsQuiet q;
  obs::StatsWriter w("spatial");
  w.sample("drc", 1058, "indexed", 12.5);
  w.sample("drc", 1058, "brute", 99.25);
  w.flag("identical_results", true);
  w.metric("speedup_drc", 7.94);
  const std::string path = testing::TempDir() + "obs_writer_test.json";
  ASSERT_TRUE(w.write(path));
  const std::string text = readFile(path);
  EXPECT_TRUE(validJson(text)) << text;
  EXPECT_NE(text.find("\"bench\":\"spatial\""), std::string::npos);
  EXPECT_NE(text.find("\"workload\":\"drc\""), std::string::npos);
  EXPECT_NE(text.find("\"n\":1058"), std::string::npos);
  EXPECT_NE(text.find("\"engine\":\"brute\""), std::string::npos);
  EXPECT_NE(text.find("\"wall_ms\":"), std::string::npos);
  EXPECT_NE(text.find("\"identical_results\":true"), std::string::npos);
  EXPECT_NE(text.find("\"speedup_drc\":7.94"), std::string::npos);
}

}  // namespace
