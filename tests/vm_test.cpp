// The bytecode VM's equivalence proof against the tree-walking oracle
// (tests/oracle/tree_interp.h), plus units for the compiler internals
// (interning, slot resolution, the chunk cache) and disassembler goldens.
//
// The contract (docs/BYTECODE.md): for every script, the VM and the oracle
// produce byte-identical layouts (io::serializeLayout), the same print()
// output, the same stats, and — for every failing script — the same
// structured diagnostic, down to message, hint, line and column.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "io/layout.h"
#include "lang/bytecode.h"
#include "lang/compiler.h"
#include "lang/interp.h"
#include "modules/dsl_sources.h"
#include "oracle/tree_interp.h"
#include "tech/builtin.h"

#ifndef AMG_REPO_DIR
#define AMG_REPO_DIR "."
#endif

namespace amg {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw Error("cannot open " + path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// Everything observable from one run() of a script.
struct RunResult {
  std::map<std::string, std::vector<std::uint8_t>> objects;  ///< serialized
  std::map<std::string, std::string> scalars;  ///< non-object globals, display form
  std::vector<std::string> output;
  lang::InterpStats stats;
};

/// Runs `src` on `Interp`: lang::Interpreter (the VM) or the oracle.
template <class Interp>
RunResult runWith(const std::string& src) {
  Interp in(tech::bicmos1u());
  in.run(src, "t.amg");
  RunResult r;
  for (const auto& [name, v] : in.globals()) {
    if (v.kind() == lang::Value::Kind::Object)
      r.objects[name] = io::serializeLayout(v.asObject());
    else
      r.scalars[name] = v.str();
  }
  r.output = in.output();
  r.stats = in.stats();
  return r;
}

void expectSameRun(const std::string& src) {
  const RunResult tree = runWith<oracle::TreeInterpreter>(src);
  const RunResult vm = runWith<lang::Interpreter>(src);
  ASSERT_EQ(tree.objects.size(), vm.objects.size());
  for (const auto& [name, bytes] : tree.objects) {
    ASSERT_TRUE(vm.objects.count(name)) << "VM lost global '" << name << "'";
    EXPECT_EQ(bytes, vm.objects.at(name)) << "layout '" << name
                                          << "' differs between engines";
  }
  EXPECT_EQ(tree.scalars, vm.scalars);
  EXPECT_EQ(tree.output, vm.output);
  EXPECT_EQ(tree.stats.statementsExecuted, vm.stats.statementsExecuted);
  EXPECT_EQ(tree.stats.entityCalls, vm.stats.entityCalls);
  EXPECT_EQ(tree.stats.compactions, vm.stats.compactions);
  EXPECT_EQ(tree.stats.variantRollbacks, vm.stats.variantRollbacks);
}

/// A structured capture of whatever a failing run threw.
struct Caught {
  bool threw = false;
  bool structured = false;  ///< carried a util::Diag
  std::string code, message, hint, file, what;
  int line = 0, col = 0;
};

template <class Interp>
Caught runCatch(const std::string& src) {
  Interp in(tech::bicmos1u());
  Caught c;
  try {
    in.run(src, "t.amg");
  } catch (const util::DiagError& err) {
    c.threw = c.structured = true;
    const util::Diag& d = err.diag();
    c.code = d.code;
    c.message = d.message;
    c.hint = d.hint;
    c.file = d.loc.file;
    c.line = d.loc.line;
    c.col = d.loc.col;
  } catch (const Error& err) {
    c.threw = true;
    c.what = err.what();
  }
  return c;
}

void expectSameDiag(const std::string& src, const std::string& expectCode) {
  const Caught tree = runCatch<oracle::TreeInterpreter>(src);
  const Caught vm = runCatch<lang::Interpreter>(src);
  ASSERT_TRUE(tree.threw) << "tree oracle did not throw";
  ASSERT_TRUE(vm.threw) << "vm did not throw";
  EXPECT_EQ(tree.structured, vm.structured);
  EXPECT_EQ(tree.code, vm.code);
  EXPECT_EQ(tree.message, vm.message);
  EXPECT_EQ(tree.hint, vm.hint);
  EXPECT_EQ(tree.file, vm.file);
  EXPECT_EQ(tree.line, vm.line);
  EXPECT_EQ(tree.col, vm.col);
  EXPECT_EQ(tree.what, vm.what);
  if (!expectCode.empty()) EXPECT_EQ(tree.code, expectCode);
}

// --- differential: every shipped script -----------------------------------

class EngineParity : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineParity, ByteIdenticalLayoutsAndIdenticalStats) {
  expectSameRun(slurp(std::string(AMG_REPO_DIR) + "/scripts/" + GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllScripts, EngineParity,
                         ::testing::Values("contact_row.amg", "diffpair.amg",
                                           "variants.amg", "mirror.amg",
                                           "library.amg"),
                         [](const auto& info) {
                           std::string n = info.param;
                           return n.substr(0, n.find('.'));
                         });

TEST(EngineParity, BuiltinModuleLibraryInstantiatesIdentically) {
  const std::string lib = std::string(modules::dsl::kContactRow) +
                          modules::dsl::kTrans + modules::dsl::kDiffPair;
  const auto instantiate = [&](auto& in) {
    in.load(lib);
    return io::serializeLayout(in.instantiate(
        "DiffPair",
        {{"W", lang::Value::number(8)}, {"L", lang::Value::number(2)}}));
  };
  oracle::TreeInterpreter tree(tech::bicmos1u());
  lang::Interpreter vm(tech::bicmos1u());
  EXPECT_EQ(instantiate(tree), instantiate(vm));
}

TEST(EngineParity, RatedVariantPicksTheSameWinner) {
  // Both branches feasible; BEST must rate and keep the same one.
  expectSameRun(
      "p = Pick(n = 6)\n"
      "ENT Pick(n)\n"
      "  BEST VARIANT\n"
      "    INBOX(\"metal1\", n, 2)\n"
      "  OR\n"
      "    INBOX(\"metal1\", 2, n)\n"
      "  OR\n"
      "    INBOX(\"metal1\", n, n)\n"
      "  ENDVARIANT\n");
}

TEST(EngineParity, VariantRollbackRestoresBindings) {
  // The first branch binds x before failing; the winner must not see it.
  expectSameRun(
      "p = P()\n"
      "ENT P()\n"
      "  x = 1\n"
      "  VARIANT\n"
      "    x = 99\n"
      "    ERROR(\"nope\")\n"
      "  OR\n"
      "    INBOX(\"metal1\", x + 1, 2)\n"
      "  ENDVARIANT\n"
      "  print(x)\n");
}

TEST(EngineParity, DynamicScopingReadsAndWritesThrough) {
  // Entities see their caller's bindings (dynamic scoping), and an
  // assignment to an existing outer binding mutates it in place.
  expectSameRun(
      "r = Outer()\n"
      "ENT Inner()\n"
      "  INBOX(lay, n, 2)\n"
      "  n = n + 1\n"
      "ENT Outer()\n"
      "  lay = \"metal1\"\n"
      "  n = 2\n"
      "  a = Inner()\n"
      "  b = Inner()\n"
      "  print(n)\n"
      "  INBOX(\"metal1\", n, n)\n");
}

TEST(EngineParity, ForLoopsAndArithmetic) {
  expectSameRun(
      "s = Sum()\n"
      "ENT Sum()\n"
      "  acc = 0\n"
      "  FOR i = 1 TO 10 DO\n"
      "    acc = acc + i * i\n"
      "  ENDFOR\n"
      "  print(\"sum\", acc, min(acc, 100), max(acc, 100), floor(acc / 7))\n"
      "  INBOX(\"metal1\", 2 + acc - acc, 2)\n");
}

// --- differential: diagnostics ---------------------------------------------

TEST(DiagParity, UnknownVariable001) { expectSameDiag("x = y + 1\n", "AMG-INTERP-001"); }

TEST(DiagParity, UnknownEntity002) { expectSameDiag("x = Nope(1)\n", "AMG-INTERP-002"); }

TEST(DiagParity, UnknownBuiltinParameter003) {
  expectSameDiag("e = E()\nENT E()\n  INBOX(layr = \"poly\")\n", "AMG-INTERP-003");
}

TEST(DiagParity, UnknownEntityParameter003) {
  expectSameDiag("e = E(bad = 1)\nENT E(<a>)\n  INBOX(\"metal1\")\n",
                 "AMG-INTERP-003");
}

TEST(DiagParity, TooManyBuiltinArguments004) {
  expectSameDiag("x = floor(1, 2)\n", "AMG-INTERP-004");
}

TEST(DiagParity, TooManyEntityArguments004) {
  expectSameDiag("e = E(1, 2)\nENT E(a)\n  INBOX(\"metal1\")\n", "AMG-INTERP-004");
}

TEST(DiagParity, MissingBuiltinArgument005) {
  expectSameDiag("x = min(1)\n", "AMG-INTERP-005");
}

TEST(DiagParity, MissingEntityParameter005) {
  expectSameDiag("e = E()\nENT E(need)\n  INBOX(\"metal1\", need, 2)\n",
                 "AMG-INTERP-005");
}

TEST(DiagParity, RunawayRecursion006) {
  expectSameDiag("r = R()\nENT R()\n  x = R()\n", "AMG-INTERP-006");
}

TEST(DiagParity, GeometryOutsideEntity007) {
  expectSameDiag("INBOX(\"metal1\", 2, 2)\n", "AMG-INTERP-007");
}

TEST(DiagParity, DivisionByZero008) { expectSameDiag("x = 1 / 0\n", "AMG-INTERP-008"); }

TEST(DiagParity, NonNumericArithmetic009) {
  expectSameDiag("x = \"a\" * 2\n", "AMG-INTERP-009");
}

TEST(DiagParity, UnknownLayer010) {
  expectSameDiag("e = E()\nENT E()\n  INBOX(\"nolayer\")\n", "AMG-INTERP-010");
}

TEST(DiagParity, PolyTooFewVertices011) {
  expectSameDiag("e = E()\nENT E()\n  POLY(\"metal1\", 0, 0, 4, 0)\n",
                 "AMG-INTERP-011");
}

TEST(DiagParity, WrongValueKind012) {
  expectSameDiag("x = mirrorx(3)\n", "AMG-INTERP-012");
}

TEST(DiagParity, LoadRejectsTopLevel013) {
  const auto expectRejected = [](auto& in) {
    try {
      in.load("x = 1\n", "lib.amg");
      FAIL() << "load() accepted a calling sequence";
    } catch (const lang::LangError& err) {
      EXPECT_EQ(err.diag().code, "AMG-INTERP-013");
      EXPECT_EQ(err.diag().loc.file, "lib.amg");
      EXPECT_EQ(err.diag().loc.line, 1);
    }
  };
  oracle::TreeInterpreter tree(tech::bicmos1u());
  lang::Interpreter vm(tech::bicmos1u());
  expectRejected(tree);
  expectRejected(vm);
}

TEST(DiagParity, ErrorStatementEscapesIdentically) {
  expectSameDiag("e = E()\nENT E()\n  ERROR(\"boom\")\n", "");
}

TEST(DiagParity, AllVariantBranchesFailIdentically) {
  expectSameDiag(
      "e = E()\nENT E()\n  VARIANT\n    ERROR(\"a\")\n  OR\n"
      "    ERROR(\"b\")\n  ENDVARIANT\n",
      "");
}

// --- compiler units ---------------------------------------------------------

TEST(Compiler, ConstantPoolInternsRepeatedLiterals) {
  const auto prog = lang::compile(
      lang::parseSource("x = 1 + 1 + 1\ny = \"a\" + \"a\"\n"));
  // 1 and "a" stored once each; "x" and "y" are STORE_GLOBAL name constants.
  EXPECT_EQ(prog->top.constants.size(), 4u);
}

TEST(Compiler, SlotResolutionParamsFirstThenLocalsInOrder) {
  const auto prog = lang::compile(lang::parseSource(
      "ENT E(a, <b>)\n  c = a + b\n  FOR i = 1 TO 3 DO\n    c = c + i\n"
      "  ENDFOR\n"));
  ASSERT_EQ(prog->entities.size(), 1u);
  const lang::Chunk& ch = prog->entities[0]->chunk;
  EXPECT_EQ(ch.slotOf("a"), 0);
  EXPECT_EQ(ch.slotOf("b"), 1);
  EXPECT_EQ(ch.slotOf("c"), 2);
  EXPECT_EQ(ch.slotOf("i"), 3);
  EXPECT_EQ(ch.slotOf("nope"), -1);
  // ... plus two hidden loop temporaries (counter and bound).
  EXPECT_EQ(ch.slotCount, 6u);
  EXPECT_EQ(ch.slotNames.size(), 4u);
}

TEST(Compiler, EveryOpcodeHasMetadata) {
  for (std::size_t i = 0; i < lang::kOpCount; ++i) {
    const auto op = static_cast<lang::Op>(i);
    EXPECT_STRNE(lang::opName(op), "");
    EXPECT_GE(lang::opOperands(op), 0);
    EXPECT_LE(lang::opOperands(op), 2);
    EXPECT_STRNE(lang::opDoc(op), "");
  }
}

TEST(Compiler, ChunkCacheHitsOnIdenticalSource) {
  lang::clearChunkCache();
  const std::string src = "ENT E()\n  INBOX(\"metal1\", 2, 2)\n";
  const auto a = lang::compileCached(src);
  const auto b = lang::compileCached(src);
  EXPECT_EQ(a.get(), b.get());  // same shared chunk, not a recompile
  const lang::ChunkCacheStats cs = lang::chunkCacheStats();
  EXPECT_EQ(cs.misses, 1u);
  EXPECT_EQ(cs.hits, 1u);
  EXPECT_EQ(cs.entries, 1u);
  lang::clearChunkCache();
  EXPECT_EQ(lang::chunkCacheStats().entries, 0u);
}

TEST(Compiler, CacheKeysOnRawTextSoLineNumbersSurvive) {
  lang::clearChunkCache();
  // Same canonical meaning, different raw text → distinct cache entries
  // (diagnostic line numbers depend on the comment).
  lang::compileCached("x = 1\n");
  lang::compileCached("// leading comment\nx = 1\n");
  EXPECT_EQ(lang::chunkCacheStats().entries, 2u);
}

TEST(Compiler, CacheKeysOnTheWholeSourceText) {
  // The key is the text itself, not a digest of it: scripts one byte apart
  // get their own programs, and only an exact repeat hits.
  lang::clearChunkCache();
  const std::string a = "x = 1\n";
  const std::string b = "x = 2\n";
  const auto pa = lang::compileCached(a);
  const auto pb = lang::compileCached(b);
  EXPECT_NE(pa.get(), pb.get());
  EXPECT_EQ(lang::compileCached(a).get(), pa.get());
  const lang::ChunkCacheStats cs = lang::chunkCacheStats();
  EXPECT_EQ(cs.entries, 2u);
  EXPECT_EQ(cs.misses, 2u);
  EXPECT_EQ(cs.hits, 1u);
  lang::Interpreter in(tech::bicmos1u());
  in.run(b, "b.amg");
  EXPECT_EQ(in.global("x")->asNumber(), 2.0);
  lang::clearChunkCache();
}

TEST(Compiler, ChunkCacheEvictsLeastRecentlyUsedAtCapacity) {
  lang::clearChunkCache();
  auto script = [](std::size_t i) {
    return "ENT E" + std::to_string(i) + "()\n  INBOX(\"metal1\", 2, 2)\n";
  };
  // Script 0's entity is handed out before the cache overflows.
  lang::Interpreter in(tech::bicmos1u());
  in.loadEntities(script(0), "e0.amg");
  for (std::size_t i = 1; i <= lang::kChunkCacheCapacity; ++i) {
    (void)lang::compileCached(script(i));
    EXPECT_LE(lang::chunkCacheStats().entries, lang::kChunkCacheCapacity);
  }
  lang::ChunkCacheStats cs = lang::chunkCacheStats();
  EXPECT_EQ(cs.entries, lang::kChunkCacheCapacity);
  EXPECT_EQ(cs.evictions, 1u);
  EXPECT_EQ(cs.misses, lang::kChunkCacheCapacity + 1);

  // The evicted program still runs for its holder.
  EXPECT_EQ(in.instantiate("E0").shapeCount(), 1u);
  // Compiling the evicted text again is a miss; a survivor still hits.
  (void)lang::compileCached(script(0));
  (void)lang::compileCached(script(lang::kChunkCacheCapacity));
  cs = lang::chunkCacheStats();
  EXPECT_EQ(cs.misses, lang::kChunkCacheCapacity + 2);
  EXPECT_EQ(cs.hits, 1u);
  EXPECT_EQ(cs.entries, lang::kChunkCacheCapacity);
  EXPECT_EQ(cs.evictions, 2u);
  lang::clearChunkCache();
}

// --- disassembler goldens ---------------------------------------------------

TEST(Disassembler, GoldenListing) {
  const auto prog = lang::compile(lang::parseSource("x = 2 + 3\n"));
  EXPECT_EQ(lang::disassemble(prog->top, "top-level"),
            "== top-level (10 words, 3 constants, 0 slots) ==\n"
            "  0000  STMT               \n"
            "  0001  CONST             0  ; 2\n"
            "  0003  CONST             1  ; 3\n"
            "  0005  ADD                \n"
            "  0006  COPY               \n"
            "  0007  STORE_GLOBAL      2  ; \"x\"\n"
            "  0009  RET                \n");
}

TEST(Disassembler, InterleavesSourceLines) {
  const std::string src = "x = 1\ny = x + 1\n";
  const std::string listing = lang::disassemble(*lang::compile(lang::parseSource(src)), src);
  EXPECT_NE(listing.find("     1 | x = 1\n"), std::string::npos);
  EXPECT_NE(listing.find("     2 | y = x + 1\n"), std::string::npos);
  // Source lines precede the ops compiled from them.
  EXPECT_LT(listing.find("| x = 1"), listing.find("STORE_GLOBAL"));
}

TEST(Disassembler, AnnotatesCallsAndEntityHeaders) {
  const std::string src =
      "e = E(3)\nENT E(n, <opt>)\n  INBOX(\"metal1\", n, 2)\n";
  const std::string listing = lang::disassemble(*lang::compile(lang::parseSource(src)));
  EXPECT_NE(listing.find("E(1 args)"), std::string::npos);
  EXPECT_NE(listing.find("[builtin #0]"), std::string::npos);  // INBOX
  EXPECT_NE(listing.find("== ENT E(n, <opt>)"), std::string::npos);
}

}  // namespace
}  // namespace amg
