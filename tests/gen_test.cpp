// Batch generation engine: content-addressed cache determinism, the
// fingerprint invalidation rules, structured per-job diagnostics and the
// per-engine script memo behind pre-flight and keyOf.
// The Fingerprint, BatchCache and BatchDiagnostics engines run with the
// compactor-prefix tier on and off.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#ifndef AMG_REPO_DIR
#define AMG_REPO_DIR "."
#endif

#include "gen/engine.h"
#include "gen/fingerprint.h"
#include "gen/manifest.h"
#include "io/layout.h"
#include "lang/compiler.h"
#include "lang/interp.h"
#include "obs/obs.h"
#include "prefix_tier.h"
#include "tech/builtin.h"
#include "tech/techfile.h"
#include "util/diag.h"
#include "util/hash.h"

namespace amg {
namespace {

using testutil::forBothPrefixTiers;

const char* kLib = R"(
// A contact row entity (Fig. 2).
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

// --- fingerprinting -------------------------------------------------------

TEST(Fingerprint, CanonicalizationIgnoresCommentsAndWhitespace) {
  const std::string a = "x = 1\ny   =  2  // trailing comment\n\n\n";
  const std::string b = "// leading comment\nx = 1\n y = 2\n";
  EXPECT_EQ(gen::canonicalizeSource(a), gen::canonicalizeSource(b));
  EXPECT_EQ(gen::canonicalizeSource(a), "x = 1\ny = 2\n");
}

TEST(Fingerprint, StringLiteralsSurviveCanonicalization) {
  // '//' and double spaces inside a string are content, not syntax.
  const std::string s = "m = label(\"a  // b\")\n";
  EXPECT_NE(gen::canonicalizeSource(s).find("a  // b"), std::string::npos);
}

TEST(Fingerprint, KeyIgnoresCommentEdits) {
  forBothPrefixTiers([](const gen::EngineConfig& cfg) {
    gen::BatchEngine engine(tech::bicmos1u(), cfg);
    gen::Job a = rowJob("a", "4");
    gen::Job b = a;
    b.script = std::string("// a new comment\n") + b.script;
    EXPECT_EQ(engine.keyOf(a), engine.keyOf(b));
  });
}

TEST(Fingerprint, KeyChangesOnParameterEdit) {
  forBothPrefixTiers([](const gen::EngineConfig& cfg) {
    gen::BatchEngine engine(tech::bicmos1u(), cfg);
    EXPECT_NE(engine.keyOf(rowJob("a", "4")), engine.keyOf(rowJob("a", "5")));
    // ...but not on an equivalent numeric spelling or parameter order.
    gen::Job a = rowJob("a", "4");
    gen::Job b = rowJob("a", "4.0");
    EXPECT_EQ(engine.keyOf(a), engine.keyOf(b));
    std::reverse(b.params.begin(), b.params.end());
    EXPECT_EQ(engine.keyOf(a), engine.keyOf(b));
  });
}

TEST(Fingerprint, KeyChangesOnTechRuleEdit) {
  const tech::Technology& base = tech::cmos2u();
  // Same deck, one widened rule: every key made under it must differ.
  std::string deck = tech::saveTechFile(base);
  const std::size_t at = deck.find("width poly");
  ASSERT_NE(at, std::string::npos);
  deck.insert(deck.find('\n', at), "0");  // widen poly by 10x
  const tech::Technology edited = tech::parseTechString(deck);
  ASSERT_NE(gen::techFingerprint(base), gen::techFingerprint(edited));

  forBothPrefixTiers([&](const gen::EngineConfig& cfg) {
    gen::BatchEngine e1(base, cfg), e2(edited, cfg);
    EXPECT_NE(e1.keyOf(rowJob("a", "4")), e2.keyOf(rowJob("a", "4")));
  });
}

TEST(Fingerprint, KeysArePinned) {
  // Cache keys name disk-tier files, travel on the wire and sit in
  // recorded traces, so they must not drift.  A deliberate change to what
  // a key hashes bumps util::kEngineVersion and re-records these values.
  gen::BatchEngine engine(tech::bicmos1u());
  gen::Job row = rowJob("a", "4");
  gen::Job spelled = rowJob("a", "04.0");
  std::reverse(spelled.params.begin(), spelled.params.end());
  gen::Job commented = row;
  commented.script = "// a new comment\n" + commented.script + "  // trailing\n";
  gen::Job wide = rowJob("a", "6");
  wide.params.emplace_back("L", "2");
  gen::Job metal = rowJob("a", "4");
  metal.params[0].second = "metal1";
  gen::Job script;
  script.script = "result = ContactRow(layer = \"poly\", W = 4)\n" +
                  std::string(kLib);
  script.resultVar = "result";

  constexpr std::uint64_t kRow = 0xe49b1c4233391a51ull;
  EXPECT_EQ(engine.keyOf(row), kRow);
  EXPECT_EQ(engine.keyOf(spelled), kRow);
  EXPECT_EQ(engine.keyOf(commented), kRow);
  EXPECT_EQ(engine.keyOf(wide), 0x409076a7b57cd010ull);
  EXPECT_EQ(engine.keyOf(metal), 0x61f89d095fdade6bull);
  EXPECT_EQ(engine.keyOf(script), 0x25a07bdecec56cc6ull);
}

// --- cache determinism ----------------------------------------------------

TEST(BatchCache, WarmRunIsByteIdenticalToCold) {
  forBothPrefixTiers([](const gen::EngineConfig& cfg) {
    gen::BatchEngine engine(tech::bicmos1u(), cfg);
    std::vector<gen::Job> jobs;
    for (int w = 2; w <= 12; ++w)
      jobs.push_back(rowJob("w" + std::to_string(w), std::to_string(w)));
    const gen::BatchReport cold = engine.run(jobs);
    const gen::BatchReport warm = engine.run(jobs);
    ASSERT_EQ(cold.failed, 0u);
    ASSERT_EQ(warm.failed, 0u);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(warm.cacheHits, jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_TRUE(warm.jobs[i].cacheHit);
      EXPECT_EQ(io::serializeLayout(*cold.jobs[i].layout),
                io::serializeLayout(*warm.jobs[i].layout))
          << jobs[i].name;
    }
  });
}

TEST(BatchCache, DiskTierSurvivesEngineRestart) {
  forBothPrefixTiers([](gen::EngineConfig cfg) {
    cfg.cache.diskDir = ::testing::TempDir() + "amg_gen_disk_cache";
    std::filesystem::remove_all(cfg.cache.diskDir);
    const std::vector<gen::Job> jobs = {rowJob("a", "4"), rowJob("b", "6")};

    gen::BatchEngine first(tech::bicmos1u(), cfg);
    const gen::BatchReport cold = first.run(jobs);
    ASSERT_EQ(cold.failed, 0u);

    // A fresh engine (empty memory tier) must hit the disk tier.
    gen::BatchEngine second(tech::bicmos1u(), cfg);
    const gen::BatchReport warm = second.run(jobs);
    ASSERT_EQ(warm.failed, 0u);
    EXPECT_EQ(warm.cacheHits, jobs.size());
    EXPECT_EQ(second.cache().store().stats().diskHits, jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
      EXPECT_EQ(io::serializeLayout(*cold.jobs[i].layout),
                io::serializeLayout(*warm.jobs[i].layout));
  });
}

TEST(BatchCache, UndecodableDiskEntryIsRegenerated) {
  const gen::Job job = rowJob("a", "4");
  gen::EngineConfig coldCfg;
  coldCfg.useCache = false;
  const gen::BatchReport cold = gen::BatchEngine(tech::bicmos1u(), coldCfg).run({job});
  ASSERT_EQ(cold.failed, 0u);
  const std::vector<std::uint8_t> want = io::serializeLayout(*cold.jobs[0].layout);

  forBothPrefixTiers([&](gen::EngineConfig cfg) {
    cfg.cache.diskDir = ::testing::TempDir() + "amg_gen_bad_entry";
    std::filesystem::remove_all(cfg.cache.diskDir);
    std::filesystem::create_directories(cfg.cache.diskDir);
    gen::BatchEngine engine(tech::bicmos1u(), cfg);
    // A truncated entry, as an interrupted in-place write leaves it.
    const std::string path =
        cfg.cache.diskDir + "/" + util::keyHex(engine.keyOf(job)) + ".amgl";
    std::ofstream(path, std::ios::binary)
        .write(reinterpret_cast<const char*>(want.data()),
               static_cast<std::streamsize>(want.size() / 2));

    const gen::BatchReport r = engine.run({job});
    ASSERT_TRUE(r.jobs[0].ok) << r.jobs[0].error();
    EXPECT_FALSE(r.jobs[0].cacheHit);
    EXPECT_EQ(io::serializeLayout(*r.jobs[0].layout), want);

    // The regenerated put replaced the bad file: a fresh engine hits it.
    gen::BatchEngine fresh(tech::bicmos1u(), cfg);
    const gen::BatchReport again = fresh.run({job});
    ASSERT_TRUE(again.jobs[0].ok) << again.jobs[0].error();
    EXPECT_TRUE(again.jobs[0].cacheHit);
    EXPECT_EQ(io::serializeLayout(*again.jobs[0].layout), want);
  });
}

TEST(BatchCache, LruEvictsUnderByteBudget) {
  forBothPrefixTiers([](gen::EngineConfig cfg) {
    cfg.cache.maxBytes = 600;  // a couple of small blobs at most
    gen::BatchEngine engine(tech::bicmos1u(), cfg);
    std::vector<gen::Job> jobs;
    for (int w = 2; w <= 20; ++w)
      jobs.push_back(rowJob("w" + std::to_string(w), std::to_string(w)));
    const gen::BatchReport r = engine.run(jobs);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_GT(engine.cache().store().stats().evictions, 0u);
    EXPECT_LE(engine.cache().store().byteCount(), cfg.cache.maxBytes);
  });
}

TEST(BatchCache, NoCacheModeNeverHits) {
  forBothPrefixTiers([](gen::EngineConfig cfg) {
    cfg.useCache = false;
    gen::BatchEngine engine(tech::bicmos1u(), cfg);
    const std::vector<gen::Job> jobs = {rowJob("a", "4")};
    engine.run(jobs);
    const gen::BatchReport again = engine.run(jobs);
    EXPECT_EQ(again.cacheHits, 0u);
    EXPECT_EQ(engine.cache().store().stats().puts, 0u);
  });
}

// --- per-job diagnostics and isolation ------------------------------------

TEST(BatchDiagnostics, BrokenJobDoesNotPoisonTheBatch) {
  forBothPrefixTiers([](const gen::EngineConfig& cfg) {
    gen::BatchEngine engine(tech::bicmos1u(), cfg);
    gen::Job broken = rowJob("broken", "4");
    broken.script = "ENT ContactRow(layer, <W>)\n  INBOX(layer, W, $)\n";
    broken.scriptPath = "broken.amg";
    const std::vector<gen::Job> jobs = {rowJob("a", "4"), broken, rowJob("b", "6")};
    const gen::BatchReport r = engine.run(jobs);
    EXPECT_EQ(r.succeeded, 2u);
    EXPECT_EQ(r.failed, 1u);
    EXPECT_TRUE(r.jobs[0].ok);
    EXPECT_TRUE(r.jobs[2].ok);

    ASSERT_FALSE(r.jobs[1].ok);
    ASSERT_TRUE(r.jobs[1].diag.has_value());
    const util::Diag& d = *r.jobs[1].diag;
    EXPECT_EQ(d.code, "AMG-LEX-003");
    EXPECT_EQ(d.loc.file, "broken.amg");
    EXPECT_EQ(d.loc.line, 2);
    EXPECT_GT(d.loc.col, 0);
    EXPECT_NE(d.str().find("broken.amg:2:"), std::string::npos);
  });
}

TEST(BatchDiagnostics, DesignRuleFailureKeepsStructuredPayload) {
  forBothPrefixTiers([](const gen::EngineConfig& cfg) {
    gen::BatchEngine engine(tech::bicmos1u(), cfg);
    gen::Job j = rowJob("thin", "0.1");  // far below min width: must fail
    const gen::BatchReport r = engine.run({j});
    ASSERT_EQ(r.failed, 1u);
    ASSERT_TRUE(r.jobs[0].diag.has_value());
    EXPECT_EQ(r.jobs[0].diag->code.rfind("AMG-PRIM-", 0), 0u) << r.jobs[0].error();
    EXPECT_FALSE(r.jobs[0].diag->hint.empty());
  });
}

TEST(BatchDiagnostics, UnknownEntityIsLocatedAtTheJob) {
  forBothPrefixTiers([](const gen::EngineConfig& cfg) {
    gen::BatchEngine engine(tech::bicmos1u(), cfg);
    gen::Job j = rowJob("missing", "4");
    j.entity = "NoSuchEntity";
    const gen::BatchReport r = engine.run({j});
    ASSERT_EQ(r.failed, 1u);
    EXPECT_EQ(r.jobs[0].diag->code, "AMG-INTERP-002");
  });
}

TEST(BatchDiagnostics, CaretRenderingPointsAtTheColumn) {
  const std::string src = "ENT E(<W>)\n  INBOX(\"poly\", Wx)\n";
  lang::Interpreter in(tech::bicmos1u());
  try {
    in.loadEntities(src, "e.amg");
    in.instantiate("E");
    FAIL() << "expected a LangError";
  } catch (const util::DiagError& e) {
    const std::string rendered = util::renderDiag(e.diag(), src);
    EXPECT_NE(rendered.find("e.amg:2:"), std::string::npos) << rendered;
    EXPECT_NE(rendered.find("INBOX(\"poly\", Wx)"), std::string::npos) << rendered;
    EXPECT_NE(rendered.find('^'), std::string::npos) << rendered;
  }
}

// --- the static-analysis pre-flight ----------------------------------------

TEST(Preflight, LintErrorRejectsTheJobBeforeScheduling) {
  gen::BatchEngine engine(tech::bicmos1u());
  gen::Job bad = rowJob("bad", "4");
  // 'polly' is not a bicmos1u layer: a lint error, not a parse error.
  bad.script = "ENT ContactRow(layer, <W>, <L>)\n  INBOX(\"polly\", W, L)\n";
  bad.scriptPath = "typo.amg";
  bad.params = {{"W", "4"}};
  const gen::BatchReport r = engine.run({rowJob("a", "4"), bad, rowJob("b", "6")});

  // The broken job is rejected, the others still generate.
  EXPECT_EQ(r.succeeded, 2u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(r.rejected, 1u);
  EXPECT_TRUE(r.jobs[0].ok);
  EXPECT_TRUE(r.jobs[2].ok);
  ASSERT_TRUE(r.jobs[1].rejected);
  ASSERT_TRUE(r.jobs[1].diag.has_value());
  EXPECT_EQ(r.jobs[1].diag->code, "AMG-L020");
  EXPECT_EQ(r.jobs[1].diag->loc.file, "typo.amg");
  EXPECT_EQ(r.jobs[1].diag->loc.line, 2);
  EXPECT_GE(r.preflightMs, 0.0);
}

TEST(Preflight, DisablingItFallsBackToRuntimeFailure) {
  gen::EngineConfig cfg;
  cfg.preflight = false;
  gen::BatchEngine engine(tech::bicmos1u(), cfg);
  gen::Job bad = rowJob("bad", "4");
  bad.script = "ENT ContactRow(layer, <W>, <L>)\n  INBOX(\"polly\", W, L)\n";
  const gen::BatchReport r = engine.run({bad});
  ASSERT_EQ(r.failed, 1u);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_FALSE(r.jobs[0].rejected);
  // The worker hit the interpreter's own error instead.
  EXPECT_EQ(r.jobs[0].diag->code, "AMG-INTERP-010");
}

TEST(Preflight, RequestValidationMirrorsTheInterpreterCodes) {
  gen::BatchEngine engine(tech::bicmos1u());

  gen::Job unknownEntity = rowJob("e", "4");
  unknownEntity.entity = "NoSuch";
  gen::Job unknownParam = rowJob("p", "4");
  unknownParam.params.emplace_back("bogus", "1");
  gen::Job missingRequired = rowJob("m", "4");
  missingRequired.params = {{"W", "4"}};  // 'layer' is required

  const gen::BatchReport r =
      engine.run({unknownEntity, unknownParam, missingRequired});
  ASSERT_EQ(r.rejected, 3u);
  EXPECT_EQ(r.jobs[0].diag->code, "AMG-INTERP-002");
  EXPECT_EQ(r.jobs[1].diag->code, "AMG-INTERP-003");
  EXPECT_EQ(r.jobs[2].diag->code, "AMG-INTERP-005");
  // The hint teaches the fix for the missing parameter.
  EXPECT_NE(r.jobs[2].diag->hint.find("optional"), std::string::npos);
}

TEST(Preflight, ScriptModeNeedsTheResultVariable) {
  gen::BatchEngine engine(tech::bicmos1u());
  gen::Job j;
  j.name = "noresult";
  j.script = "x = ContactRow(layer = \"poly\", W = 4)\n" + std::string(kLib);
  j.resultVar = "result";  // the script only assigns 'x'
  const gen::BatchReport r = engine.run({j});
  ASSERT_EQ(r.rejected, 1u);
  EXPECT_EQ(r.jobs[0].diag->code, "AMG-GEN-002");
  EXPECT_NE(r.jobs[0].diag->message.find("result"), std::string::npos);
}

TEST(Preflight, WerrorPolicyRejectsWarningJobs) {
  // An unused parameter is only a warning: accepted by default, rejected
  // under preflightWerror.
  gen::Job warn;
  warn.name = "warn";
  warn.script =
      "result = E(4)\nENT E(W, <spare>)\n  INBOX(\"poly\", W, W)\n";
  warn.entity = "";
  // Each engine runs the job twice: the second run reads the memoized
  // analysis and must decide exactly as the first.
  {
    gen::BatchEngine engine(tech::bicmos1u());
    for (int pass = 0; pass < 2; ++pass) {
      const gen::BatchReport r = engine.run({warn});
      EXPECT_EQ(r.rejected, 0u);
      EXPECT_EQ(r.succeeded, 1u);
    }
  }
  {
    gen::EngineConfig cfg;
    cfg.preflightWerror = true;
    gen::BatchEngine engine(tech::bicmos1u(), cfg);
    const gen::BatchReport first = engine.run({warn});
    ASSERT_EQ(first.rejected, 1u);
    EXPECT_EQ(first.jobs[0].diag->code, "AMG-L005");
    const gen::BatchReport again = engine.run({warn});
    ASSERT_EQ(again.rejected, 1u);
    EXPECT_EQ(again.jobs[0].diag->str(), first.jobs[0].diag->str());
    EXPECT_EQ(again.jobs[0].diag->hint, first.jobs[0].diag->hint);
  }
}

/// Deltas of the pre-flight memo's counters from construction on, with
/// statistics switched on for its lifetime.
class PreflightCounts {
 public:
  PreflightCounts() : wasOn_(obs::statsEnabled()) {
    obs::enableStats(true);
    analyses0_ = value("gen.preflight.analyses");
    evictions0_ = value("gen.preflight.evictions");
  }
  ~PreflightCounts() { obs::enableStats(wasOn_); }
  PreflightCounts(const PreflightCounts&) = delete;
  PreflightCounts& operator=(const PreflightCounts&) = delete;
  std::uint64_t analyses() const {
    return value("gen.preflight.analyses") - analyses0_;
  }
  std::uint64_t evictions() const {
    return value("gen.preflight.evictions") - evictions0_;
  }

 private:
  static std::uint64_t value(const char* name) {
    return obs::Stats::global().value(name);
  }
  bool wasOn_;
  std::uint64_t analyses0_, evictions0_;
};

TEST(PreflightMemo, OneAnalysisPerScriptPerEngine) {
  PreflightCounts counts;
  gen::BatchEngine engine(tech::bicmos1u());
  const gen::BatchReport a = engine.run({rowJob("a", "4")});
  const gen::BatchReport b = engine.run({rowJob("b", "6"), rowJob("c", "8")});
  EXPECT_EQ(a.succeeded + b.succeeded, 3u);
  EXPECT_EQ(counts.analyses(), 1u);

  // One comment byte differs: the same cache key, but a new analysis,
  // because findings carry line numbers of the raw text.
  gen::Job edited = rowJob("d", "4");
  const std::size_t at = edited.script.find("Fig. 2");
  ASSERT_NE(at, std::string::npos);
  edited.script[at + 5] = '3';
  EXPECT_EQ(engine.keyOf(edited), engine.keyOf(rowJob("d", "4")));
  EXPECT_EQ(engine.run({edited}).succeeded, 1u);
  EXPECT_EQ(counts.analyses(), 2u);
  EXPECT_EQ(counts.evictions(), 0u);
}

TEST(PreflightMemo, RejectionsNameEachJobsOwnFile) {
  PreflightCounts counts;
  gen::BatchEngine engine(tech::bicmos1u());
  gen::Job a = rowJob("a", "4");
  a.script = "ENT ContactRow(layer, <W>, <L>)\n  INBOX(\"polly\", W, L)\n";
  a.scriptPath = "a.amg";
  gen::Job b = a;
  b.name = "b";
  b.scriptPath = "b.amg";
  gen::Job anon = a;
  anon.name = "anon";
  anon.scriptPath.clear();
  for (int pass = 0; pass < 2; ++pass) {
    const gen::BatchReport r = engine.run({a, b, anon});
    ASSERT_EQ(r.rejected, 3u);
    for (const gen::JobResult& res : r.jobs) {
      EXPECT_EQ(res.diag->code, "AMG-L020");
      EXPECT_EQ(res.diag->loc.line, 2);
    }
    EXPECT_EQ(r.jobs[0].diag->loc.file, "a.amg");
    EXPECT_EQ(r.jobs[1].diag->loc.file, "b.amg");
    EXPECT_EQ(r.jobs[2].diag->loc.file, "<script>");
  }
  EXPECT_EQ(counts.analyses(), 1u);
}

TEST(PreflightMemo, LeastRecentlyUsedScriptIsEvicted) {
  PreflightCounts counts;
  gen::BatchEngine engine(tech::bicmos1u());
  const auto variant = [](std::size_t i) {
    gen::Job j = rowJob("v" + std::to_string(i), "4");
    j.script += "// variant " + std::to_string(i) + "\n";
    return j;
  };
  ASSERT_EQ(engine.run({variant(0)}).succeeded, 1u);
  // keyOf goes through the same memo without generating anything.
  for (std::size_t i = 1; i <= lang::kChunkCacheCapacity; ++i)
    engine.keyOf(variant(i));
  EXPECT_EQ(counts.analyses(), lang::kChunkCacheCapacity + 1);
  EXPECT_EQ(counts.evictions(), 1u);

  engine.keyOf(variant(lang::kChunkCacheCapacity));  // still held
  EXPECT_EQ(counts.analyses(), lang::kChunkCacheCapacity + 1);
  ASSERT_EQ(engine.run({variant(0)}).succeeded, 1u);  // evicted: again
  EXPECT_EQ(counts.analyses(), lang::kChunkCacheCapacity + 2);
}

TEST(PreflightMemo, ConcurrentKeyLookupsAgree) {
  gen::BatchEngine engine(tech::bicmos1u());
  std::vector<gen::Job> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(rowJob("j" + std::to_string(i), std::to_string(2 + i)));
    jobs.back().script += "// " + std::to_string(i % 3) + "\n";
  }
  std::vector<std::uint64_t> want;
  {
    gen::BatchEngine reference(tech::bicmos1u());
    for (const gen::Job& j : jobs) want.push_back(reference.keyOf(j));
  }
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (int round = 0; round < 25; ++round)
        for (std::size_t i = 0; i < jobs.size(); ++i)
          if (engine.keyOf(jobs[i]) != want[i]) ++mismatches;
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- manifests ------------------------------------------------------------

TEST(Manifest, SweepExpandsTheFullGrid) {
  const gen::Manifest m = gen::parseManifestString(
      "tech cmos2u\n"
      "sweep name=s script=" +
          std::string(AMG_REPO_DIR) +
          "/scripts/contact_row.amg entity=ContactRow layer=poly W=2:6:2 L=1:2:1\n",
      "<m>");
  EXPECT_EQ(m.techSpec, "cmos2u");
  ASSERT_EQ(m.jobs.size(), 6u);  // 3 W values x 2 L values
  EXPECT_EQ(m.jobs.front().name, "s_W2_L1");
  EXPECT_EQ(m.jobs.back().name, "s_W6_L2");
  EXPECT_EQ(m.jobs.front().entity, "ContactRow");
}

TEST(Manifest, ErrorsCarryManifestLineNumbers) {
  try {
    gen::parseManifestString("tech cmos2u\nfrobnicate x=1\n", "jobs.manifest");
    FAIL() << "expected a DiagError";
  } catch (const util::DiagError& e) {
    EXPECT_EQ(e.diag().code, "AMG-MAN-001");
    EXPECT_EQ(e.diag().loc.file, "jobs.manifest");
    EXPECT_EQ(e.diag().loc.line, 2);
  }
  EXPECT_THROW(gen::parseManifestString("job name=a\n"), util::DiagError);
  EXPECT_THROW(gen::parseManifestString("sweep name=a script=x entity=E W=5:1:1\n"),
               util::DiagError);
}

TEST(Manifest, DuplicateJobNamesAreRejected) {
  const std::string script = std::string(AMG_REPO_DIR) + "/scripts/contact_row.amg";
  try {
    gen::parseManifestString("job name=a script=" + script + " result=gatecon\n" +
                             "job name=a script=" + script + " result=gatecon\n");
    FAIL() << "expected a DiagError";
  } catch (const util::DiagError& e) {
    EXPECT_EQ(e.diag().code, "AMG-MAN-004");
  }
}

// --- the layout serializer ------------------------------------------------

TEST(LayoutFormat, RoundTripsModulesExactly) {
  const tech::Technology& t = tech::bicmos1u();
  lang::Interpreter in(t);
  // The calling sequence must precede the entity (a body runs to EOF).
  in.run("row = ContactRow(layer = \"poly\", W = 6)\n" + std::string(kLib));
  const db::Module& m = in.globalObject("row");

  const std::vector<std::uint8_t> bytes = io::serializeLayout(m);
  const db::Module back = io::deserializeLayout(bytes, t);
  EXPECT_EQ(back.shapeCount(), m.shapeCount());
  EXPECT_EQ(back.netCount(), m.netCount());
  EXPECT_EQ(back.arrayRecords().size(), m.arrayRecords().size());
  EXPECT_EQ(back.encloseRecords().size(), m.encloseRecords().size());
  EXPECT_EQ(back.bbox(), m.bbox());
  // Serialize-of-deserialize is byte-stable (what the cache relies on).
  EXPECT_EQ(io::serializeLayout(back), bytes);
}

TEST(LayoutFormat, RejectsForeignBytesWithCodes) {
  const tech::Technology& t = tech::bicmos1u();
  try {
    io::deserializeLayout({'n', 'o', 'p', 'e', 0, 0, 0, 0}, t);
    FAIL() << "expected a DiagError";
  } catch (const util::DiagError& e) {
    EXPECT_EQ(e.diag().code, "AMG-IO-001");
  }
  // Truncation inside the payload.
  lang::Interpreter in(t);
  in.run("row = ContactRow(layer = \"poly\", W = 6)\n" + std::string(kLib));
  std::vector<std::uint8_t> bytes = io::serializeLayout(in.globalObject("row"));
  bytes.resize(bytes.size() / 2);
  try {
    io::deserializeLayout(bytes, t);
    FAIL() << "expected a DiagError";
  } catch (const util::DiagError& e) {
    EXPECT_EQ(e.diag().code, "AMG-IO-003");
  }
}

TEST(LayoutFormat, UnknownLayerNamesAreRejected) {
  // Serialize under bicmos1u (has "pbase"), load under cmos2u (does not).
  const tech::Technology& bi = tech::bicmos1u();
  db::Module m(bi, "x");
  m.addShape(db::makeShape(Box{0, 0, 1000, 1000}, bi.layer("pbase")));
  const std::vector<std::uint8_t> bytes = io::serializeLayout(m);
  try {
    io::deserializeLayout(bytes, tech::cmos2u());
    FAIL() << "expected a DiagError";
  } catch (const util::DiagError& e) {
    EXPECT_EQ(e.diag().code, "AMG-IO-004");
  }
}

}  // namespace
}  // namespace amg
