// The compactor-prefix cache (compact/prefix.h): the session-state serializer
// round trip, the module identity stamp, and the tier's whole contract —
// prefix-restored compaction is byte-identical to cold execution, across
// shuffled job orders, eviction pressure, the disk tier, VARIANT
// backtracking, and the VM and the tree-walking oracle sharing one tier.
// Every BatchEngine test runs with the tier on and off.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "compact/prefix.h"
#include "db/module.h"
#include "gen/engine.h"
#include "io/layout.h"
#include "lang/interp.h"
#include "oracle/tree_interp.h"
#include "prefix_tier.h"
#include "tech/builtin.h"
#include "util/diag.h"

namespace amg {
namespace {

using tech::bicmos1u;
using testutil::forBothPrefixTiers;

// Every job shares a `rows`-step compaction prefix and diverges only in
// the tail cell — the warm-adjacent sweep shape the tier is built for.
const char* kSweepLib = R"(
ENT Cell(<W>, <L>)
  TWORECTS("poly", "pdiff", W, L)
  INBOX("metal1")

ENT Sweep(rows, <W>)
  INBOX("pdiff", 4, 4)
  FOR k = 1 TO rows DO
    c = Cell(W = 6, L = 2)
    compact(c, EAST, "poly")
  ENDFOR
  tail = Cell(W = W, L = 2)
  compact(tail, EAST, "poly")
)";

std::vector<gen::Job> sweepJobs(std::size_t count, int rows = 6) {
  std::vector<gen::Job> jobs;
  for (std::size_t i = 0; i < count; ++i) {
    gen::Job j;
    j.name = "s" + std::to_string(i);
    j.script = kSweepLib;
    j.scriptPath = "<test>";
    j.entity = "Sweep";
    j.params = {{"rows", std::to_string(rows)},
                {"W", std::to_string(5.0 + 0.5 * static_cast<double>(i))}};
    jobs.push_back(std::move(j));
  }
  return jobs;
}

/// Run `jobs` through a single-worker BatchEngine and return each job's
/// canonical layout bytes keyed by job name (asserts every job succeeded).
std::map<std::string, std::vector<std::uint8_t>> runBatch(
    const std::vector<gen::Job>& jobs, gen::EngineConfig cfg,
    gen::BatchReport* reportOut = nullptr) {
  cfg.threads = 1;
  cfg.useCache = false;  // isolate the prefix tier from the layout tier
  gen::BatchEngine engine(bicmos1u(), cfg);
  const gen::BatchReport rep = engine.run(jobs);
  std::map<std::string, std::vector<std::uint8_t>> bytes;
  for (const gen::JobResult& r : rep.jobs) {
    EXPECT_TRUE(r.ok) << r.name << ": " << r.error();
    if (r.ok) bytes[r.name] = io::serializeLayout(*r.layout);
  }
  if (reportOut) *reportOut = rep;
  return bytes;
}

gen::EngineConfig coldConfig() {
  gen::EngineConfig cfg;
  cfg.prefixCache = false;
  return cfg;
}

/// Instantiate one sweep job on `Interp` (lang::Interpreter or the oracle)
/// through `cache`; returns the layout bytes.
template <class Interp>
std::vector<std::uint8_t> runJobOn(const gen::Job& j, compact::PrefixCache& cache) {
  Interp in(bicmos1u());
  in.setPrefixCache(&cache);
  in.loadEntities(j.script, j.scriptPath);
  std::vector<std::pair<std::string, lang::Value>> args;
  for (const auto& [k, v] : j.params) args.emplace_back(k, lang::Value::number(std::stod(v)));
  return io::serializeLayout(in.instantiate(j.entity, args));
}

// --- session-state serializer ---------------------------------------------

db::Module midSessionModule() {
  const tech::Technology& t = bicmos1u();
  db::Module m(t, "mid");
  const db::NetId n = m.net("vdd");
  m.addShape(db::makeShape(Box{0, 0, um(4), um(2)}, t.layer("poly"), n));
  // A dead store entry: serializeLayout would drop and renumber it, the
  // session record must keep it so later ShapeIds stay stable on resume.
  const db::ShapeId dead =
      m.addShape(db::makeShape(Box{0, 0, um(1), um(1)}, t.layer("metal1")));
  m.addShape(db::makeShape(Box{um(5), 0, um(9), um(2)}, t.layer("pdiff")));
  m.removeShape(dead);
  m.addPort("out", Point{um(2), um(1)}, t.layer("metal1"), n);
  return m;
}

TEST(SessionState, RoundTripIsVerbatim) {
  const db::Module m = midSessionModule();
  const std::vector<std::uint8_t> bytes = io::serializeSessionState(m);
  const db::Module back = io::deserializeSessionState(bytes, bicmos1u());
  // Verbatim store: re-serializing the restored module reproduces the
  // exact bytes (dead entries, ids, order), and the canonical layout view
  // agrees too.
  EXPECT_EQ(io::serializeSessionState(back), bytes);
  EXPECT_EQ(io::serializeLayout(back), io::serializeLayout(m));
  EXPECT_EQ(back.shapeCount(), m.shapeCount());
}

TEST(SessionState, RejectsCorruptRecords) {
  try {
    io::deserializeSessionState({'n', 'o', 'p', 'e', 0, 0, 0, 0}, bicmos1u());
    FAIL() << "expected a DiagError";
  } catch (const util::DiagError& e) {
    EXPECT_EQ(e.diag().code, "AMG-IO-001");
  }
  std::vector<std::uint8_t> bytes =
      io::serializeSessionState(midSessionModule());
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(io::deserializeSessionState(bytes, bicmos1u()),
               util::DiagError);
}

// --- identity stamp -------------------------------------------------------

TEST(Stamp, ChangesOnMutationCopyAndMove) {
  db::Module m(bicmos1u(), "a");
  const std::uint64_t s0 = m.stamp();
  m.addShape(db::makeShape(Box{0, 0, um(2), um(2)}, bicmos1u().layer("poly")));
  const std::uint64_t s1 = m.stamp();
  EXPECT_NE(s0, s1);

  // Copies and moves get fresh stamps on both sides — a (module, stamp)
  // pair can never recur, even through reused storage.
  db::Module c = m;
  EXPECT_NE(c.stamp(), s1);
  EXPECT_EQ(m.stamp(), s1);
  db::Module v = std::move(m);
  EXPECT_NE(v.stamp(), s1);
  c = v;
  EXPECT_NE(c.stamp(), v.stamp());
}

// --- the tier's contract --------------------------------------------------

TEST(PrefixCache, RestoredStepsAreByteIdenticalToCold) {
  const std::vector<gen::Job> jobs = sweepJobs(6);
  const auto cold = runBatch(jobs, coldConfig());
  forBothPrefixTiers([&](const gen::EngineConfig& cfg) {
    gen::BatchReport rep;
    const auto warm = runBatch(jobs, cfg, &rep);
    EXPECT_EQ(warm, cold);
    // Jobs 1..5 each share at least the 6-step prefix with job 0.
    if (cfg.prefixCache)
      EXPECT_GE(rep.prefixRestoredSteps, 6u * 5u);
    else
      EXPECT_EQ(rep.prefixRestoredSteps, 0u);
  });
}

TEST(PrefixCache, ShuffledJobOrdersStayByteIdentical) {
  const std::vector<gen::Job> jobs = sweepJobs(8);
  const auto cold = runBatch(jobs, coldConfig());
  forBothPrefixTiers([&](const gen::EngineConfig& cfg) {
    for (unsigned seed : {1u, 7u, 23u}) {
      std::vector<gen::Job> shuffled = jobs;
      std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(seed));
      const auto warm = runBatch(shuffled, cfg);
      EXPECT_EQ(warm, cold) << "seed " << seed;
    }
  });
}

TEST(PrefixCache, BothEnginesShareTheTierAndAgree) {
  // The VM and the tree-walking oracle drive one PrefixCache, taking turns
  // on who runs a job first: steps either one stored, the other restores,
  // and every layout matches the cold batch run.
  const std::vector<gen::Job> jobs = sweepJobs(5);
  const auto cold = runBatch(jobs, coldConfig());
  compact::PrefixCache cache;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& want = cold.at(jobs[i].name);
    if (i % 2 == 0) {
      EXPECT_EQ(runJobOn<lang::Interpreter>(jobs[i], cache), want) << "vm, job " << i;
      EXPECT_EQ(runJobOn<oracle::TreeInterpreter>(jobs[i], cache), want)
          << "tree, job " << i;
    } else {
      EXPECT_EQ(runJobOn<oracle::TreeInterpreter>(jobs[i], cache), want)
          << "tree, job " << i;
      EXPECT_EQ(runJobOn<lang::Interpreter>(jobs[i], cache), want) << "vm, job " << i;
    }
  }
  EXPECT_GT(cache.events().restoredSteps, 0u);
}

TEST(PrefixCache, ParallelWorkersShareOneCacheSafely) {
  // Four workers race on one PrefixCache (sessions are per-thread, the
  // store is shared) — results must still match the serial cold run.
  const std::vector<gen::Job> jobs = sweepJobs(12);
  const auto cold = runBatch(jobs, coldConfig());
  forBothPrefixTiers([&](gen::EngineConfig cfg) {
    cfg.useCache = false;
    cfg.threads = 4;
    gen::BatchEngine engine(bicmos1u(), cfg);
    const gen::BatchReport rep = engine.run(jobs);
    std::map<std::string, std::vector<std::uint8_t>> warm;
    for (const gen::JobResult& r : rep.jobs) {
      ASSERT_TRUE(r.ok) << r.error();
      warm[r.name] = io::serializeLayout(*r.layout);
    }
    EXPECT_EQ(warm, cold);
  });
}

TEST(PrefixCache, EvictionPressureNeverCorruptsResults) {
  const std::vector<gen::Job> jobs = sweepJobs(6);
  const auto cold = runBatch(jobs, coldConfig());
  forBothPrefixTiers([&](const gen::EngineConfig& cfg) {
    // A one-byte budget: every snapshot is oversize, nothing is retained
    // in memory and every step misses — correctness must not depend on
    // hits.
    gen::EngineConfig tiny = cfg;
    tiny.prefix.maxBytes = 1;
    EXPECT_EQ(runBatch(jobs, tiny), cold);
    // A budget around one snapshot: constant eviction churn, some hits.
    gen::EngineConfig churn = cfg;
    churn.prefix.maxBytes = 2048;
    EXPECT_EQ(runBatch(jobs, churn), cold);
  });
}

TEST(PrefixCache, DiskTierServesEvictedEntries) {
  const std::vector<gen::Job> jobs = sweepJobs(6);
  const auto cold = runBatch(jobs, coldConfig());
  forBothPrefixTiers([&](gen::EngineConfig cfg) {
    cfg.prefix.maxBytes = 1;  // memory tier useless: every hit is a disk hit
    cfg.prefix.diskDir = ::testing::TempDir() + "amg_prefix_disk";
    std::filesystem::remove_all(cfg.prefix.diskDir);
    cfg.threads = 1;
    cfg.useCache = false;
    gen::BatchEngine engine(bicmos1u(), cfg);
    const gen::BatchReport rep = engine.run(jobs);
    std::map<std::string, std::vector<std::uint8_t>> warm;
    for (const gen::JobResult& r : rep.jobs) {
      ASSERT_TRUE(r.ok) << r.error();
      warm[r.name] = io::serializeLayout(*r.layout);
    }
    EXPECT_EQ(warm, cold);
    if (!cfg.prefixCache) {
      EXPECT_EQ(engine.prefixCache(), nullptr);
      EXPECT_EQ(rep.prefixRestoredSteps, 0u);
      EXPECT_FALSE(std::filesystem::exists(cfg.prefix.diskDir));
      return;
    }
    ASSERT_NE(engine.prefixCache(), nullptr);
    EXPECT_GT(engine.prefixCache()->store().stats().diskHits, 0u);
    EXPECT_GT(rep.prefixRestoredSteps, 0u);
  });
}

TEST(PrefixCache, DirectStepApiMatchesPlainCompact) {
  const tech::Technology& t = bicmos1u();
  auto cell = [&] {
    db::Module c(t, "cell");
    c.addShape(db::makeShape(Box{0, 0, um(3), um(2)}, t.layer("poly")));
    return c;
  };
  auto seedTarget = [&] {
    db::Module m(t, "tgt");
    m.addShape(db::makeShape(Box{0, 0, um(4), um(4)}, t.layer("pdiff")));
    return m;
  };
  const compact::Options opt;

  db::Module plain = seedTarget();
  for (int i = 0; i < 4; ++i) compact::compact(plain, cell(), Dir::East, opt);

  compact::PrefixCache cache;
  db::Module first = seedTarget();
  for (int i = 0; i < 4; ++i)
    compact::prefixStep(cache, first, cell(), Dir::East, opt);
  compact::prefixEnd(first);
  EXPECT_EQ(io::serializeLayout(first), io::serializeLayout(plain));

  db::Module replay = seedTarget();
  std::size_t restored = 0;
  for (int i = 0; i < 4; ++i)
    restored += compact::prefixStep(cache, replay, cell(), Dir::East, opt);
  compact::prefixEnd(replay);
  EXPECT_EQ(io::serializeLayout(replay), io::serializeLayout(plain));
  EXPECT_EQ(restored, 4u);
  EXPECT_EQ(cache.events().restoredSteps, 4u);
  EXPECT_GT(cache.events().materializations, 0u);
}

TEST(PrefixCache, OutOfBandMutationReseedsTheChain) {
  const tech::Technology& t = bicmos1u();
  db::Module cell(t, "cell");
  cell.addShape(db::makeShape(Box{0, 0, um(3), um(2)}, t.layer("poly")));
  const compact::Options opt;

  compact::PrefixCache cache;
  db::Module m(t, "tgt");
  m.addShape(db::makeShape(Box{0, 0, um(4), um(4)}, t.layer("pdiff")));
  compact::prefixStep(cache, m, cell, Dir::East, opt);
  // Mutate behind the session's back: the stamp changes, the next step
  // must reseed instead of trusting the stale chain.
  compact::prefixSync(m);
  m.addShape(db::makeShape(Box{um(20), 0, um(22), um(2)}, t.layer("metal1")));
  const std::uint64_t reseedsBefore = cache.events().reseeds;
  compact::prefixStep(cache, m, cell, Dir::East, opt);
  compact::prefixEnd(m);
  EXPECT_GT(cache.events().reseeds, reseedsBefore);
}

/// Instantiate V(W = 7) from `script` on `Interp` without a prefix cache,
/// then twice through one cache; every layout must be identical.
template <class Interp>
void expectCachedMatchesPlain(const char* script, const char* engine) {
  Interp plain(bicmos1u());
  plain.loadEntities(script, "<test>");
  const db::Module want = plain.instantiate("V", {{"W", lang::Value::number(7)}});

  compact::PrefixCache cache;
  for (int round = 0; round < 2; ++round) {
    Interp in(bicmos1u());
    in.setPrefixCache(&cache);
    in.loadEntities(script, "<test>");
    const db::Module got = in.instantiate("V", {{"W", lang::Value::number(7)}});
    EXPECT_EQ(io::serializeLayout(got), io::serializeLayout(want))
        << engine << " round " << round;
  }
}

TEST(PrefixCache, VariantBacktrackingStaysByteIdentical) {
  // VARIANT discards self mutations on the rejected branch; the tier must
  // follow the rollback (stamp mismatch -> reseed), not replay stale
  // state.  Differential: cached interpreter vs plain, on the VM and on the
  // tree-walking oracle.
  const char* script = R"(
ENT Cell(<W>, <L>)
  TWORECTS("poly", "pdiff", W, L)
  INBOX("metal1")

ENT V(<W>)
  INBOX("pdiff", 4, 4)
  c1 = Cell(W = 6, L = 2)
  compact(c1, EAST, "poly")
  VARIANT
    a = Cell(W = W, L = 2)
    compact(a, EAST, "poly")
    compact(a, EAST, "poly")
  OR
    b = Cell(W = W, L = 3)
    compact(b, NORTH, "poly")
  ENDVARIANT
)";
  expectCachedMatchesPlain<lang::Interpreter>(script, "vm");
  expectCachedMatchesPlain<oracle::TreeInterpreter>(script, "tree");
}

}  // namespace
}  // namespace amg
