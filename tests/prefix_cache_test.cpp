// The compactor-prefix cache (compact/prefix.h): the session-state serializer
// round trip, the module identity stamp, and the tier's whole contract —
// prefix-restored compaction is byte-identical to cold execution, across
// shuffled job orders, eviction pressure, the disk tier, VARIANT
// backtracking, and the VM and the tree-walking oracle sharing one tier.
// Every BatchEngine test runs with the tier on and off.  The entry format
// is checked step by step: the state rebuilt from a snapshot plus deltas
// matches the executed module after every step of chains that shrink
// variable edges, rebuild arrays and auto-connect, and a dropped, flipped
// or truncated entry only costs one executed step.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "bench/sweep.h"
#include "compact/prefix.h"
#include "db/module.h"
#include "obs/obs.h"
#include "gen/engine.h"
#include "io/layout.h"
#include "lang/interp.h"
#include "oracle/tree_interp.h"
#include "prefix_tier.h"
#include "tech/builtin.h"
#include "util/diag.h"
#include "util/hash.h"

namespace amg {
namespace {

using tech::bicmos1u;
using testutil::forBothPrefixTiers;

// Every job shares a `rows`-step compaction prefix and diverges only in
// the tail cell — the warm-adjacent sweep shape the tier is built for.
std::vector<gen::Job> sweepJobs(std::size_t count, int rows = 6) {
  std::vector<gen::Job> jobs;
  for (std::size_t i = 0; i < count; ++i)
    jobs.push_back(bench::sweepJob("s" + std::to_string(i), rows,
                                   std::to_string(5.0 + 0.5 * static_cast<double>(i))));
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

// --- delta entries ---------------------------------------------------------

// The DSL parts of three of the chains below; the chains themselves are
// replayed step by step in C++ (Chain), mirroring the Sweep entity,
// library.amg's Interdig (its rows widened and given variable metal edges)
// and Fig. 7's DiffPair.
const char* kChainParts = R"(
ENT Start()
  INBOX("pdiff", 4, 4)

ENT Cell(<W>, <L>)
  TWORECTS("poly", "pdiff", W, L)
  INBOX("metal1")

ENT ContactRow(layer, <W>, <L>)
  INBOX(layer, W, L)
  INBOX("metal1")
  ARRAY("contact")

ENT Trans(<W>, <L>)
  TWORECTS("poly", "pdiff", W, L, "g")
  polycon = ContactRow(layer = "poly", W = L)
  diffcon = ContactRow(layer = "pdiff", L = W)
  compact(polycon, SOUTH, "poly")
  compact(diffcon, EAST, "pdiff")

ENT Row(<W>, which)
  INBOX("pdiff", 6, W)
  setnet("pdiff", which)
  INBOX("metal1")
  setnet("metal1", which)
  varedge("metal1", "all")
  ARRAY("contact")
  setnet("contact", which)

ENT Gate(<W>, <L>)
  TWORECTS("poly", "pdiff", W, L, "g")
)";

struct ChainStep {
  db::Module obj;
  Dir dir;
  compact::Options opt;
};

struct Chain {
  db::Module start;
  std::vector<ChainStep> steps;
};

class Parts {
 public:
  Parts() : in_(bicmos1u()) { in_.loadEntities(kChainParts, "<test>"); }
  db::Module make(const std::string& entity,
                  std::vector<std::pair<std::string, lang::Value>> args = {}) {
    return in_.instantiate(entity, args);
  }
  compact::Options ignoring(const char* layer) {
    compact::Options o;
    o.ignoreLayers.push_back(bicmos1u().layer(layer));
    return o;
  }

 private:
  lang::Interpreter in_;
};

lang::Value num(double v) { return lang::Value::number(v); }

/// Sweep: a column of cells compacted EAST, then a wider tail.
Chain sweepChain(int rows) {
  Parts p;
  Chain c{p.make("Start"), {}};
  const db::Module cell = p.make("Cell", {{"W", num(6)}, {"L", num(2)}});
  for (int k = 0; k < rows; ++k) c.steps.push_back({cell, Dir::East, p.ignoring("poly")});
  c.steps.push_back({p.make("Cell", {{"W", num(7)}, {"L", num(2)}}), Dir::East,
                     p.ignoring("poly")});
  return c;
}

/// Interdig: alternating source/drain rows around gates, WEST, with wide
/// rows whose metal edges are variable; a second row lands straight on
/// each row.
Chain interdigChain(int fingers) {
  Parts p;
  Chain c{db::Module(bicmos1u(), "Interdig"), {}};
  auto row = [&](const char* which) {
    return p.make("Row", {{"W", num(12)}, {"which", lang::Value::string(which)}});
  };
  const db::Module gate = p.make("Gate", {{"W", num(12)}, {"L", num(2)}});
  c.steps.push_back({row("s"), Dir::West, p.ignoring("pdiff")});
  for (int i = 1; i <= fingers; ++i) {
    c.steps.push_back({gate, Dir::West, p.ignoring("pdiff")});
    c.steps.push_back({row(i % 2 ? "d" : "s"), Dir::West, p.ignoring("pdiff")});
    // A row straight onto a row: the metal spacing binds on variable
    // edges, which shrink, and both contact arrays are rebuilt.
    c.steps.push_back({row(i % 2 ? "s" : "d"), Dir::West, p.ignoring("pdiff")});
  }
  return c;
}

/// DiffPair: transistor, transistor, diffusion contact row, repeated.
Chain diffPairChain(int pairs) {
  Parts p;
  Chain c{db::Module(bicmos1u(), "DiffPair"), {}};
  const db::Module trans = p.make("Trans", {{"W", num(12)}, {"L", num(2)}});
  const db::Module diffcon =
      p.make("ContactRow", {{"layer", lang::Value::string("pdiff")}, {"L", num(12)}});
  for (int i = 0; i < pairs; ++i)
    for (const db::Module* obj : {&trans, &trans, &diffcon})
      c.steps.push_back({*obj, Dir::West, p.ignoring("pdiff")});
  return c;
}

/// Fig. 5 on shapes no array record holds: same-net metal columns and
/// straps stacked SOUTH, so each strap lands on the tall column and the
/// short one is extended to it (5a); then metal bars with a variable right
/// edge pushed WEST against each other, each shrinking the bar it lands on
/// (5b).
Chain fig5Chain(int rounds) {
  const tech::Technology& t = bicmos1u();
  const tech::LayerId metal1 = t.layer("metal1");
  auto shapes = [&](const char* net, std::initializer_list<Box> boxes,
                    db::EdgeFlags edges = {}) {
    db::Module m(t, "part");
    const db::NetId n = m.net(net);
    for (const Box& b : boxes) {
      db::Shape s = db::makeShape(b, metal1, n);
      s.varEdges = edges;
      m.addShape(s);
    }
    return m;
  };
  const db::Module columns =
      shapes("s", {Box{0, 0, um(1), um(3)}, Box{um(5), 0, um(6), um(1.5)}});
  const db::Module strap = shapes("s", {Box{0, um(10), um(6), um(11)}});
  Chain c{columns, {}};
  c.start.setName("Fig5");
  for (int i = 0; i < rounds; ++i) {
    c.steps.push_back({strap, Dir::South, {}});
    c.steps.push_back({columns, Dir::South, {}});
  }
  db::EdgeFlags right;  // only the side the next bar lands on moves
  right.setVariable(Side::Right, true);
  for (int i = 0; i < 2 * rounds; ++i)
    c.steps.push_back(
        {shapes(i % 2 ? "s" : "d", {Box{um(40), 0, um(46), um(2)}}, right), Dir::West, {}});
  return c;
}

/// The executed session state and alive-shape count after each step of
/// `c` (plain compact()), with the chain's edge moves, array rebuilds and
/// auto-connects.
struct Executed {
  std::vector<std::vector<std::uint8_t>> states;
  std::vector<std::size_t> shapeCounts;
  int edgeMoves = 0, autoConnects = 0;
};

Executed execute(const Chain& c) {
  Executed e;
  db::Module m = c.start;
  for (const ChainStep& s : c.steps) {
    const compact::Result r = compact::compact(m, s.obj, s.dir, s.opt);
    e.edgeMoves += r.edgeMoves;
    e.autoConnects += r.autoConnects;
    e.states.push_back(io::serializeSessionState(m));
    e.shapeCounts.push_back(m.shapeCount());
  }
  return e;
}

/// The first `steps` steps of `c` through `cache`; returns how many were
/// restored and leaves `m` synced.
std::size_t runChain(const Chain& c, compact::PrefixCache& cache, std::size_t steps,
                     db::Module& m) {
  m = c.start;
  std::size_t restored = 0;
  for (std::size_t k = 0; k < steps; ++k)
    restored += compact::prefixStep(cache, m, c.steps[k].obj, c.steps[k].dir,
                                    c.steps[k].opt);
  compact::prefixEnd(m);
  return restored;
}

/// After every step k, the state rebuilt from `c`'s cached entries (the
/// nearest pinned snapshot plus the deltas after it) is the executed one,
/// and so is its alive-shape count: a delta rewrites retired slots whole,
/// and the count must follow the alive bits it restores.
void expectEveryRebuiltStepMatches(const Chain& c, const Executed& want) {
  compact::PrefixCache cache;
  db::Module m(bicmos1u());
  EXPECT_EQ(runChain(c, cache, c.steps.size(), m), 0u);
  EXPECT_EQ(io::serializeSessionState(m), want.states.back());
  for (std::size_t k = 1; k <= c.steps.size(); ++k) {
    EXPECT_EQ(runChain(c, cache, k, m), k);
    EXPECT_EQ(io::serializeSessionState(m), want.states[k - 1]) << "step " << k;
    EXPECT_EQ(m.shapeCount(), want.shapeCounts[k - 1]) << "step " << k;
    EXPECT_EQ(m.shapeCount(), m.shapeIds().size()) << "step " << k;
  }
  EXPECT_EQ(cache.events().rejected, 0u);
}

TEST(PrefixDelta, SweepChainRebuildsEveryStep) {
  const Chain c = sweepChain(20);
  expectEveryRebuiltStepMatches(c, execute(c));
}

TEST(PrefixDelta, InterdigChainRebuildsEveryStep) {
  const Chain c = interdigChain(6);
  const Executed want = execute(c);
  EXPECT_GT(want.edgeMoves, 0);  // variable edges shrink, arrays rebuild
  expectEveryRebuiltStepMatches(c, want);
}

TEST(PrefixDelta, DiffPairChainRebuildsEveryStep) {
  const Chain c = diffPairChain(4);
  const Executed want = execute(c);
  EXPECT_GT(want.autoConnects, 0);  // extensions and merged nets
  expectEveryRebuiltStepMatches(c, want);
}

TEST(PrefixDelta, Fig5ChainRebuildsEveryStep) {
  const Chain c = fig5Chain(4);
  const Executed want = execute(c);
  EXPECT_GT(want.autoConnects, 0);  // extensions of plain shapes
  EXPECT_GT(want.edgeMoves, 0);     // shrinks of plain shapes
  expectEveryRebuiltStepMatches(c, want);
}

TEST(PrefixDelta, RestoredJobsCountTheShapesColdJobsDo) {
  // Rows with variable metal edges shrink when the next row lands on them,
  // so their contact arrays are rebuilt and old cuts retired.  A job
  // restored from delta entries must count the same alive shapes as the
  // cold run of it, not only serialize to the same layout.
  const std::string script = std::string(kChainParts) + R"(
ENT Interdig(fingers, <W>)
  r = Row(W = 12, which = "s")
  compact(r, WEST, "pdiff")
  FOR i = 1 TO fingers DO
    g = Gate(W = 12, L = 2)
    compact(g, WEST, "pdiff")
    d = Row(W = 12, which = "d")
    compact(d, WEST, "pdiff")
    s = Row(W = 12, which = "s")
    compact(s, WEST, "pdiff")
  ENDFOR
  tail = Gate(W = W, L = 2)
  compact(tail, WEST, "pdiff")
)";
  std::vector<gen::Job> jobs;
  for (int i = 0; i < 3; ++i) {
    gen::Job j;
    j.name = "i" + std::to_string(i);
    j.script = script;
    j.scriptPath = "<test>";
    j.entity = "Interdig";
    j.params = {{"fingers", "6"}, {"W", std::to_string(12 + i)}};
    jobs.push_back(std::move(j));
  }
  auto counts = [&](const gen::EngineConfig& cfg, gen::BatchReport& rep) {
    gen::EngineConfig c = cfg;
    c.threads = 1;
    c.useCache = false;
    rep = gen::BatchEngine(bicmos1u(), c).run(jobs);
    std::map<std::string, std::size_t> out;
    for (const gen::JobResult& r : rep.jobs) {
      EXPECT_TRUE(r.ok) << r.name << ": " << r.error();
      if (!r.ok) continue;
      EXPECT_EQ(r.layout->shapeCount(), r.layout->shapeIds().size()) << r.name;
      out[r.name] = r.layout->shapeCount();
    }
    return out;
  };
  gen::BatchReport coldRep;
  const auto cold = counts(coldConfig(), coldRep);
  forBothPrefixTiers([&](const gen::EngineConfig& cfg) {
    gen::BatchReport rep;
    EXPECT_EQ(counts(cfg, rep), cold);
    for (std::size_t i = 0; i < rep.jobs.size(); ++i)
      EXPECT_EQ(rep.jobs[i].layoutHash, coldRep.jobs[i].layoutHash) << rep.jobs[i].name;
    if (cfg.prefixCache) {
      EXPECT_GT(rep.prefixRestoredSteps, 0u);
    }
  });
}

TEST(PrefixDelta, ScheduleWritesSnapshotsAtPowersOfTwo) {
  const Chain c = sweepChain(20);  // 21 steps
  const bool stats = obs::statsEnabled();
  obs::enableStats(true);
  const obs::Stats& st = obs::Stats::global();
  const std::uint64_t snaps0 = st.value("gen.prefix.snapshot_puts");
  const std::uint64_t deltas0 = st.value("gen.prefix.delta_puts");
  const std::uint64_t replayed0 = st.value("gen.prefix.replayed_deltas");
  compact::PrefixCache cache;
  db::Module m(bicmos1u());
  runChain(c, cache, c.steps.size(), m);
  EXPECT_EQ(st.value("gen.prefix.snapshot_puts") - snaps0, 5u);  // 1 2 4 8 16
  EXPECT_EQ(st.value("gen.prefix.delta_puts") - deltas0, 16u);
  // A full restore decodes the step-16 snapshot and replays 17..21.
  EXPECT_EQ(runChain(c, cache, c.steps.size(), m), c.steps.size());
  EXPECT_EQ(st.value("gen.prefix.replayed_deltas") - replayed0, 5u);
  obs::enableStats(stats);
}

/// A disk-only cache holding every entry of `c`, and the entry file of
/// each step in chain order (found through the headers' parent keys).
std::vector<std::string> fillDiskChain(const Chain& c, const std::string& dir) {
  std::filesystem::remove_all(dir);
  util::BlobStoreConfig cfg;
  cfg.maxBytes = 1;  // memory tier useless: every read goes to disk
  cfg.diskDir = dir;
  compact::PrefixCache cache(cfg);
  db::Module m(bicmos1u());
  runChain(c, cache, c.steps.size(), m);

  std::map<std::uint64_t, std::uint64_t> childOf;  // parent -> key
  std::map<std::uint64_t, std::uint64_t> parentOf;
  for (const auto& f : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(f.path(), std::ios::binary);
    const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                          std::istreambuf_iterator<char>());
    const auto h = compact::readEntryHeader(bytes);
    if (!h) continue;
    childOf[h->parent] = h->key;
    parentOf[h->key] = h->parent;
  }
  std::uint64_t key = 0;
  for (const auto& [k, parent] : parentOf)
    if (!parentOf.count(parent)) key = k;  // the first step's entry
  std::vector<std::string> files;
  for (;;) {
    files.push_back(dir + "/" + util::keyHex(key) + ".amgp");
    const auto next = childOf.find(key);
    if (next == childOf.end()) break;
    key = next->second;
  }
  return files;
}

/// Re-run `c` on a fresh disk-only cache over `dir`: the final state must
/// be the executed one with exactly one step executed.
void expectOneStepExecutes(const Chain& c, const std::string& dir,
                           const Executed& want, std::uint64_t wantRejected) {
  util::BlobStoreConfig cfg;
  cfg.maxBytes = 1;
  cfg.diskDir = dir;
  compact::PrefixCache cache(cfg);
  db::Module m(bicmos1u());
  EXPECT_EQ(runChain(c, cache, c.steps.size(), m), c.steps.size() - 1);
  EXPECT_EQ(io::serializeSessionState(m), want.states.back());
  EXPECT_EQ(cache.events().rejected, wantRejected);
}

TEST(PrefixDelta, DroppedEntriesCostOneExecutedStep) {
  const Chain c = interdigChain(6);  // 13 steps
  const Executed want = execute(c);
  const std::string dir = ::testing::TempDir() + "amg_prefix_drop";
  // Step 6 is a delta, step 8 a snapshot.
  for (const std::size_t step : {6u, 8u}) {
    SCOPED_TRACE("dropped step " + std::to_string(step));
    const std::vector<std::string> files = fillDiskChain(c, dir);
    ASSERT_EQ(files.size(), c.steps.size());
    const auto h = [&] {
      std::ifstream in(files[step - 1], std::ios::binary);
      return compact::readEntryHeader(std::vector<std::uint8_t>(
          (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>()));
    }();
    ASSERT_TRUE(h);
    EXPECT_EQ(h->kind, step == 8 ? compact::PrefixEntryHeader::Kind::Snapshot
                                 : compact::PrefixEntryHeader::Kind::Delta);
    ASSERT_TRUE(std::filesystem::remove(files[step - 1]));
    expectOneStepExecutes(c, dir, want, 0);
  }
  std::filesystem::remove_all(dir);
}

TEST(PrefixDelta, FlippedOrTruncatedEntriesAreRejectedMisses) {
  const Chain c = interdigChain(6);
  const Executed want = execute(c);
  const std::string dir = ::testing::TempDir() + "amg_prefix_corrupt";
  const bool stats = obs::statsEnabled();
  obs::enableStats(true);
  for (const bool truncate : {false, true}) {
    SCOPED_TRACE(truncate ? "truncated" : "flipped");
    const std::vector<std::string> files = fillDiskChain(c, dir);
    ASSERT_EQ(files.size(), c.steps.size());
    const std::string& victim = files[6];  // step 7, a delta
    std::vector<std::uint8_t> bytes;
    {
      std::ifstream in(victim, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    if (truncate)
      bytes.resize(bytes.size() / 2);
    else
      bytes[bytes.size() - 3] ^= 0x10;
    std::ofstream(victim, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    const std::uint64_t before = obs::Stats::global().value("gen.prefix.rejected");
    expectOneStepExecutes(c, dir, want, 1);
    EXPECT_EQ(obs::Stats::global().value("gen.prefix.rejected") - before, 1u);
  }
  obs::enableStats(stats);
  std::filesystem::remove_all(dir);
}

TEST(PrefixDelta, CorruptEntriesKeepBatchLayoutsByteIdentical) {
  // The same through the engine's disk tier: a flipped byte in any entry
  // of a sweep job never changes the layout.
  const std::vector<gen::Job> jobs = sweepJobs(1, 12);
  const auto cold = runBatch(jobs, coldConfig());
  gen::EngineConfig cfg;
  cfg.prefix.maxBytes = 1;
  cfg.prefix.diskDir = ::testing::TempDir() + "amg_prefix_batch_corrupt";
  std::filesystem::remove_all(cfg.prefix.diskDir);
  EXPECT_EQ(runBatch(jobs, cfg), cold);
  std::size_t flipped = 0;
  for (const auto& f : std::filesystem::directory_iterator(cfg.prefix.diskDir)) {
    std::fstream io(f.path(), std::ios::binary | std::ios::in | std::ios::out);
    io.seekg(compact::PrefixEntryHeader::kBytes + 8);
    char b = 0;
    io.get(b);
    io.seekp(compact::PrefixEntryHeader::kBytes + 8);
    io.put(static_cast<char>(b ^ 0x40));
    ++flipped;
  }
  ASSERT_GT(flipped, 0u);
  gen::BatchReport rep;
  EXPECT_EQ(runBatch(jobs, cfg, &rep), cold);
  EXPECT_EQ(rep.prefixRestoredSteps, 0u);
  std::filesystem::remove_all(cfg.prefix.diskDir);
}

}  // namespace
}  // namespace amg
