// Request record/replay and the flight recorder: AMGT round-trips, stable
// outcome digests across execution engines, structured corruption
// diagnostics, divergence detection on perturbed traces, and the bounded
// always-on ring dump.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gen/engine.h"
#include "gen/fingerprint.h"
#include "gen/replay.h"
#include "io/layout.h"
#include "obs/flight.h"
#include "obs/recorder.h"
#include "prefix_tier.h"
#include "tech/builtin.h"
#include "util/diag.h"
#include "util/wire.h"

namespace amg {
namespace {

const char* kLib = R"(
ENT ContactRow(layer, <W>, <L>)
  INBOX(layer, W, L)
  INBOX("metal1")
  ARRAY("contact")
)";

gen::Job rowJob(const std::string& name, const std::string& w) {
  gen::Job j;
  j.name = name;
  j.script = kLib;
  j.scriptPath = "lib.amg";
  j.entity = "ContactRow";
  j.params = {{"layer", "poly"}, {"W", w}};
  return j;
}

obs::TraceFile sampleTrace() {
  obs::TraceFile t;
  t.header.tool = "test";
  t.header.techSpec = "bicmos1u";
  t.header.techFingerprint = 0xFEEDFACECAFEF00Dull;
  t.header.cacheEnabled = false;
  t.header.prefixCacheEnabled = true;

  obs::RequestRecord a;
  a.kind = obs::RequestKind::Entity;
  a.name = "w4";
  a.scriptPath = "lib.amg";
  a.script = "ENT X()\n";
  a.entity = "ContactRow";
  a.params = {{"W", "4"}, {"layer", "poly"}};
  a.outcome.ok = true;
  a.outcome.cacheHit = true;
  a.outcome.layoutHash = 0x1234;
  a.outcome.shapeCount = 17;
  a.outcome.statements = 3;
  a.outcome.wallMs = 1.5;

  obs::RequestRecord b;
  b.kind = obs::RequestKind::Script;
  b.name = "bad";
  b.script = "x = Nope()\n";
  b.resultVar = "x";
  b.outcome.ok = false;
  b.outcome.diagCode = "AMG-INTERP-002";

  obs::RequestRecord c;
  c.kind = obs::RequestKind::External;
  c.name = "full_flow.top";
  c.outcome.ok = true;
  c.outcome.layoutHash = 0xABCDEF;
  c.outcome.shapeCount = 321;

  t.requests = {a, b, c};
  return t;
}

std::string diagCodeOf(const std::vector<std::uint8_t>& bytes) {
  try {
    obs::deserializeTrace(bytes);
  } catch (const util::DiagError& e) {
    return e.diag().code;
  }
  return "";
}

// --- digest semantics ------------------------------------------------------

TEST(OutcomeDigest, IgnoresContextFields) {
  obs::RequestOutcome a;
  a.ok = true;
  a.layoutHash = 42;
  a.shapeCount = 7;
  obs::RequestOutcome b = a;
  // Everything that may legitimately differ between a cold recording and a
  // warm replay must not move the digest.
  b.cacheHit = true;
  b.prefixRestored = 99;
  b.statements = 1000;
  b.entityCalls = 12;
  b.compactions = 5;
  b.variantRollbacks = 2;
  b.wallMs = 123.4;
  EXPECT_EQ(obs::outcomeDigest(a), obs::outcomeDigest(b));
}

TEST(OutcomeDigest, TracksBehavioralFields) {
  obs::RequestOutcome base;
  base.ok = true;
  base.layoutHash = 42;
  base.shapeCount = 7;
  const std::uint64_t d = obs::outcomeDigest(base);

  obs::RequestOutcome m = base;
  m.layoutHash ^= 1;
  EXPECT_NE(obs::outcomeDigest(m), d);
  m = base;
  m.shapeCount += 1;
  EXPECT_NE(obs::outcomeDigest(m), d);
  m = base;
  m.ok = false;
  EXPECT_NE(obs::outcomeDigest(m), d);
  m = base;
  m.rejected = true;
  EXPECT_NE(obs::outcomeDigest(m), d);
  m = base;
  m.diagCode = "AMG-GEN-001";
  EXPECT_NE(obs::outcomeDigest(m), d);
}

// --- AMGT round-trips ------------------------------------------------------

TEST(TraceFormat, RoundTripsEveryField) {
  const obs::TraceFile t = sampleTrace();
  const obs::TraceFile r = obs::deserializeTrace(obs::serializeTrace(t));

  EXPECT_EQ(r.header.tool, t.header.tool);
  EXPECT_EQ(r.header.techSpec, t.header.techSpec);
  EXPECT_EQ(r.header.techFingerprint, t.header.techFingerprint);
  EXPECT_EQ(r.header.cacheEnabled, t.header.cacheEnabled);
  EXPECT_EQ(r.header.prefixCacheEnabled, t.header.prefixCacheEnabled);

  ASSERT_EQ(r.requests.size(), t.requests.size());
  for (std::size_t i = 0; i < t.requests.size(); ++i) {
    const obs::RequestRecord& a = t.requests[i];
    const obs::RequestRecord& b = r.requests[i];
    EXPECT_EQ(b.kind, a.kind) << i;
    EXPECT_EQ(b.name, a.name) << i;
    EXPECT_EQ(b.scriptPath, a.scriptPath) << i;
    EXPECT_EQ(b.script, a.script) << i;
    EXPECT_EQ(b.entity, a.entity) << i;
    EXPECT_EQ(b.resultVar, a.resultVar) << i;
    EXPECT_EQ(b.params, a.params) << i;
    EXPECT_EQ(obs::outcomeDigest(b.outcome), obs::outcomeDigest(a.outcome))
        << i;
    EXPECT_EQ(b.outcome.cacheHit, a.outcome.cacheHit) << i;
    EXPECT_EQ(b.outcome.statements, a.outcome.statements) << i;
    EXPECT_DOUBLE_EQ(b.outcome.wallMs, a.outcome.wallMs) << i;
  }
}

TEST(TraceFormat, StreamingRecorderMatchesBatchSerialization) {
  const obs::TraceFile t = sampleTrace();
  const std::string path = ::testing::TempDir() + "recorder_stream.amgt";
  {
    obs::Recorder rec(path, t.header);
    for (const obs::RequestRecord& r : t.requests) rec.append(r);
    EXPECT_EQ(rec.recordCount(), t.requests.size());
  }
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good());
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string streamed = ss.str();
  const std::vector<std::uint8_t> batch = obs::serializeTrace(t);
  ASSERT_EQ(streamed.size(), batch.size());
  EXPECT_EQ(0, std::memcmp(streamed.data(), batch.data(), batch.size()));
}

TEST(TraceFormat, FileRoundTrip) {
  const obs::TraceFile t = sampleTrace();
  const std::string path = ::testing::TempDir() + "recorder_file.amgt";
  obs::writeTraceFile(t, path);
  const obs::TraceFile r = obs::readTraceFile(path);
  ASSERT_EQ(r.requests.size(), t.requests.size());
  EXPECT_EQ(r.header.tool, t.header.tool);
}

// --- corruption diagnostics ------------------------------------------------

TEST(TraceFormat, BadMagicIsObs001) {
  std::vector<std::uint8_t> bytes = obs::serializeTrace(sampleTrace());
  bytes[0] ^= 0xFF;
  EXPECT_EQ(diagCodeOf(bytes), "AMG-OBS-001");
}

TEST(TraceFormat, UnsupportedVersionIsObs002) {
  std::vector<std::uint8_t> bytes = obs::serializeTrace(sampleTrace());
  bytes[4] = 0xEE;  // version field follows the 4-byte magic
  EXPECT_EQ(diagCodeOf(bytes), "AMG-OBS-002");
}

TEST(TraceFormat, VersionOneTraceIsObs002) {
  // A version-1 header still carried the execution-engine and
  // spatial-engine bytes; such a trace is refused with the version
  // diagnostic instead of being misparsed.
  util::WireWriter w;
  w.u32(0x54474D41u);  // "AMGT"
  w.u32(1);
  w.str("batch_runner");
  w.str("bicmos1u");
  w.u64(0xFEEDFACECAFEF00Dull);
  w.u8(1);    // v1 execution engine: bytecode VM
  w.u8(3);    // cache flags
  w.u8(0xF);  // v1 spatial engines: all indexed
  EXPECT_EQ(diagCodeOf(w.take()), "AMG-OBS-002");
}

TEST(TraceFormat, TruncationAnywhereIsObs003) {
  const std::vector<std::uint8_t> whole = obs::serializeTrace(sampleTrace());
  // Chop the stream at every prefix length past the header and expect a
  // structured diagnostic — never a crash, never a silent partial parse.
  // (A cut exactly between two records is a legal EOF, so only prefixes
  // that fail must fail with AMG-OBS-003.)
  std::size_t failures = 0;
  for (std::size_t n = 9; n < whole.size(); ++n) {
    const std::vector<std::uint8_t> cut(whole.begin(), whole.begin() + n);
    const std::string code = diagCodeOf(cut);
    if (!code.empty()) {
      EXPECT_EQ(code, "AMG-OBS-003") << "at prefix " << n;
      ++failures;
    }
  }
  EXPECT_GT(failures, whole.size() / 2);
}

TEST(TraceFormat, MissingFileIsObs005) {
  try {
    obs::readTraceFile("/nonexistent/trace.amgt");
    FAIL() << "expected DiagError";
  } catch (const util::DiagError& e) {
    EXPECT_EQ(e.diag().code, "AMG-OBS-005");
  }
}

TEST(TraceFormat, UnwritablePathIsObs004) {
  try {
    obs::Recorder rec("/nonexistent/dir/trace.amgt", obs::TraceHeader{});
    FAIL() << "expected DiagError";
  } catch (const util::DiagError& e) {
    EXPECT_EQ(e.diag().code, "AMG-OBS-004");
  }
}

// --- record + replay through the batch engine ------------------------------

obs::TraceFile recordSweep(const std::string& path) {
  gen::BatchEngine engine(tech::bicmos1u());
  {
    gen::EngineRecorder rec(path, "recorder_test", "bicmos1u", engine);
    std::vector<gen::Job> jobs;
    for (int w = 3; w <= 8; ++w)
      jobs.push_back(rowJob("w" + std::to_string(w), std::to_string(w)));
    const gen::BatchReport rep = engine.run(jobs);
    rec.append(jobs, rep);
    EXPECT_EQ(rep.failed, 0u);
    EXPECT_EQ(rec.recordCount(), jobs.size());
  }
  const obs::TraceFile trace = obs::readTraceFile(path);
  EXPECT_EQ(trace.header.tool, "recorder_test");
  EXPECT_EQ(trace.header.techFingerprint,
            gen::techFingerprint(tech::bicmos1u()));
  EXPECT_TRUE(trace.header.cacheEnabled);
  EXPECT_TRUE(trace.header.prefixCacheEnabled);
  return trace;
}

TEST(Replay, CleanUnderRecordedConfiguration) {
  const obs::TraceFile trace =
      recordSweep(::testing::TempDir() + "replay_vm.amgt");
  const gen::ReplayReport rep = gen::replayTrace(trace, tech::bicmos1u());
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.executed, trace.requests.size());
  EXPECT_EQ(rep.matched, trace.requests.size());
  EXPECT_EQ(rep.skippedExternal, 0u);
}

TEST(Replay, CacheDisabledReplayStillMatches) {
  const obs::TraceFile trace =
      recordSweep(::testing::TempDir() + "replay_nocache.amgt");
  gen::ReplayOptions opt;
  opt.useCache = false;
  opt.noPrefixCache = true;
  opt.threads = 1;
  EXPECT_TRUE(gen::replayTrace(trace, tech::bicmos1u(), opt).clean());
}

TEST(Replay, PerturbedTraceDiverges) {
  obs::TraceFile trace = recordSweep(::testing::TempDir() + "replay_perturb.amgt");
  trace.requests[2].outcome.layoutHash ^= 0x1;
  const gen::ReplayReport rep = gen::replayTrace(trace, tech::bicmos1u());
  ASSERT_EQ(rep.divergences.size(), 1u);
  const gen::Divergence& d = rep.divergences[0];
  EXPECT_EQ(d.index, 2u);
  EXPECT_EQ(d.name, trace.requests[2].name);
  EXPECT_NE(d.recordedDigest, d.replayedDigest);
  bool sawLayoutHash = false;
  for (const auto& [field, rec, rep2] : d.deltas())
    if (field == "layout_hash") {
      sawLayoutHash = true;
      EXPECT_NE(rec, rep2);
    }
  EXPECT_TRUE(sawLayoutHash);
}

TEST(Replay, ExternalRecordsAreSkipped) {
  obs::TraceFile trace = recordSweep(::testing::TempDir() + "replay_ext.amgt");
  obs::RequestRecord ext;
  ext.kind = obs::RequestKind::External;
  ext.name = "pipeline";
  ext.outcome.ok = true;
  ext.outcome.layoutHash = 7;
  trace.requests.push_back(ext);
  const gen::ReplayReport rep = gen::replayTrace(trace, tech::bicmos1u());
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.skippedExternal, 1u);
  EXPECT_EQ(rep.executed, trace.requests.size() - 1);
}

TEST(Replay, CompareTracesFlagsLengthAndDigestDrift) {
  const obs::TraceFile a = sampleTrace();
  obs::TraceFile b = a;
  EXPECT_TRUE(gen::compareTraces(a, b).clean());

  b.requests[0].outcome.shapeCount += 1;
  gen::ReplayReport rep = gen::compareTraces(a, b);
  ASSERT_EQ(rep.divergences.size(), 1u);
  EXPECT_EQ(rep.divergences[0].index, 0u);

  b = a;
  b.requests.pop_back();
  rep = gen::compareTraces(a, b);
  ASSERT_EQ(rep.divergences.size(), 1u);
  EXPECT_EQ(rep.divergences[0].index, 2u);
}

// --- flight recorder -------------------------------------------------------

// Dumps into an unnamed temporary file: ctest runs tests as concurrent
// processes, and a shared path would let one truncate another's dump.
std::string dumpToString() {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  if (!f) return {};
  const std::size_t n = obs::flight::dump(fileno(f));
  std::rewind(f);
  std::string out;
  char buf[4096];
  for (std::size_t got; (got = std::fread(buf, 1, sizeof buf, f)) > 0;) out.append(buf, got);
  std::fclose(f);
  EXPECT_EQ(out.size(), n);
  return out;
}

TEST(Flight, RingWrapsAndDumpStaysBounded) {
  obs::flight::resetForTest();
  // Far more events than one ring holds: the oldest must be overwritten,
  // the dump must stay under its hard cap and still end cleanly.
  for (int i = 0; i < 1000; ++i) {
    obs::flight::mark("flight.test", i % 2 ? "odd" : "even");
    obs::flight::noteSpanBegin("flight.span",
                               std::chrono::steady_clock::now());
    obs::flight::noteSpanEnd("flight.span");
  }
  const std::string out = dumpToString();
  EXPECT_LT(out.size(), 64u * 1024u);
  EXPECT_NE(out.find("flight-recorder dump"), std::string::npos);
  EXPECT_NE(out.find("flight.test"), std::string::npos);
  EXPECT_NE(out.find("end of dump"), std::string::npos);
  // Wraparound: the per-ring header admits to more events than it prints.
  EXPECT_NE(out.find(" of "), std::string::npos);
}

TEST(Flight, LogLinesAndMarksCarryDetail) {
  obs::flight::resetForTest();
  obs::flight::mark("flight.job", "diffpair_w15");
  const char* msg = "rolled back variant 3";
  obs::flight::noteLog(2, "lang.variant", msg, std::strlen(msg));
  const std::string out = dumpToString();
  EXPECT_NE(out.find("diffpair_w15"), std::string::npos);
  EXPECT_NE(out.find("rolled back variant 3"), std::string::npos);
  EXPECT_NE(out.find("lang.variant"), std::string::npos);
}

TEST(Flight, BatchJobFailureDumpsOnce) {
  testutil::forBothPrefixTiers([](gen::EngineConfig cfg) {
    obs::flight::resetForTest();
    const std::string path = ::testing::TempDir() + "flight_fail.txt";
    std::FILE* f = std::fopen(path.c_str(), "w+b");
    ASSERT_NE(f, nullptr);
    obs::flight::setDumpStream(f);

    cfg.preflight = false;  // let the failure happen at runtime
    gen::BatchEngine engine(tech::bicmos1u(), cfg);
    gen::Job bad;
    bad.name = "bad";
    bad.script = "x = Nope()\n";
    bad.entity = "";
    bad.resultVar = "x";
    const gen::BatchReport rep = engine.run({bad, bad, bad});
    EXPECT_EQ(rep.failed, 3u);

    obs::flight::setDumpStream(nullptr);
    std::fclose(f);
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string out = ss.str();
    // Exactly one dump despite three failing jobs, and the failure
    // breadcrumb made it into the rings.
    EXPECT_NE(out.find("flight-recorder dump"), std::string::npos);
    EXPECT_NE(out.find("gen.job.fail"), std::string::npos);
    EXPECT_LT(out.size(), 64u * 1024u);
    const std::size_t first = out.find("flight-recorder dump");
    EXPECT_EQ(out.find("flight-recorder dump", first + 1), std::string::npos);
  });
}

}  // namespace
}  // namespace amg
