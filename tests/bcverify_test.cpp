// The bytecode verifier's rejection suite (analysis/bcverify.h).
//
// Three layers of evidence that the verified-dispatch contract holds:
//
//  1. Targeted corruptions: one hand-built chunk per AMG-B failure class,
//     asserting the *specific* stable code — the registry in docs/LINT.md
//     is load-bearing for tooling, so a B003 must never drift into a B004.
//  2. Truncation anywhere: every proper prefix of every compiled chunk of
//     a representative script is rejected (a cut stream can never look
//     verified).
//  3. Random single-word mutation: a seeded sweep flips one code word at a
//     time; each mutant is either rejected by the verifier or — stamped
//     verified, exactly as the compiler post-pass would — runs on the VM's
//     one dispatch path to completion or a clean diagnostic, never a crash
//     (the CI sanitize job runs this same binary under ASan/UBSan).
//
// Plus the runtime half of the contract: the VM entry check refuses an
// unverified chunk (AMG-B040), and compileCached stamps every chunk it
// admits.
#include <gtest/gtest.h>

#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/bcverify.h"
#include "lang/bytecode.h"
#include "lang/compiler.h"
#include "lang/interp.h"
#include "lang/vm.h"
#include "tech/builtin.h"
#include "util/diag.h"

#ifndef AMG_REPO_DIR
#define AMG_REPO_DIR "."
#endif

namespace amg {
namespace {

using analysis::ChunkContext;
using analysis::ChunkVerification;
using lang::Chunk;
using lang::Op;
using lang::Value;

constexpr std::uint32_t W(Op o) { return static_cast<std::uint32_t>(o); }

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw Error("cannot open " + path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

ChunkContext topCtx() { return {false, 0, "test"}; }

Chunk chunkOf(std::vector<std::uint32_t> code) {
  Chunk c;
  c.code = std::move(code);
  return c;
}

bool hasCode(const ChunkVerification& v, const std::string& code) {
  for (const util::Diag& d : v.diags)
    if (d.code == code) return true;
  return false;
}

std::string codeList(const ChunkVerification& v) {
  std::string s;
  for (const util::Diag& d : v.diags) s += d.code + " " + d.message + "\n";
  return s;
}

/// Every rejection must carry a stable registry code, never an ad-hoc one.
void expectAllAmgB(const ChunkVerification& v) {
  for (const util::Diag& d : v.diags)
    EXPECT_EQ(d.code.rfind("AMG-B", 0), 0u) << "unstable code: " << d.code;
}

/// A small script touching every control shape the verifier models: FOR
/// (hidden counter/bound temporaries), IF joins, VARIANT backtracking,
/// entity calls with required/optional/defaulted parameters (REQUIRE and
/// JSET prologues), builtins and globals.
const char* kTestScript = R"(total = 0
FOR i = 1 TO 4 DO
  total = total + i
ENDFOR
row = Row(n = 2)
pad = Pad(budget = 12)
print(total)

ENT Row(n, <W>)
  INBOX("metal1", n, 2)
  FOR k = 1 TO n DO
    INBOX("metal2")
  ENDFOR
  ARRAY("contact")

ENT Pad(budget, margin = 2)
  VARIANT
    IF budget < 8 THEN
      ERROR("too small")
    ENDIF
    INBOX("metal1", budget, margin)
    INBOX("metal2")
    ARRAY("via")
  OR
    INBOX("metal1", margin, 8)
    INBOX("metal2")
    ARRAY("via")
  ENDVARIANT
)";

// --- targeted structural corruptions --------------------------------------

TEST(BcVerifyStructural, MinimalRetChunkVerifies) {
  const Chunk c = chunkOf({W(Op::RET)});
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  EXPECT_TRUE(v.ok()) << codeList(v);
  ASSERT_EQ(v.depthIn.size(), 1u);
  EXPECT_EQ(v.depthIn[0], 0);
}

TEST(BcVerifyStructural, InvalidOpcodeIsB001) {
  const Chunk c = chunkOf({9999u});
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B001")) << codeList(v);
}

TEST(BcVerifyStructural, TruncatedOperandIsB002) {
  const Chunk c = chunkOf({W(Op::CONST)});  // CONST needs one operand word
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B002")) << codeList(v);
}

TEST(BcVerifyStructural, JumpOutOfBoundsIsB003) {
  const Chunk c = chunkOf({W(Op::JUMP), 9, W(Op::RET)});
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B003")) << codeList(v);
}

TEST(BcVerifyStructural, JumpOffBoundaryIsB004) {
  // Target 1 is JUMP's own operand word, not an instruction start.
  const Chunk c = chunkOf({W(Op::JUMP), 1, W(Op::RET)});
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B004")) << codeList(v);
}

TEST(BcVerifyStructural, ConstantOutOfBoundsIsB005) {
  const Chunk c = chunkOf({W(Op::CONST), 3, W(Op::POP), W(Op::RET)});
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B005")) << codeList(v);
}

TEST(BcVerifyStructural, NameOperandNotStringIsB006) {
  Chunk c = chunkOf({W(Op::LOAD_GLOBAL), 0, W(Op::POP), W(Op::RET)});
  c.constants.push_back(Value::number(1));
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B006")) << codeList(v);
}

TEST(BcVerifyStructural, CallSiteOutOfBoundsIsB007) {
  const Chunk c = chunkOf({W(Op::CALL), 0, W(Op::POP), W(Op::RET)});
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B007")) << codeList(v);
}

TEST(BcVerifyStructural, CallSiteArgNameMismatchIsB007) {
  Chunk c = chunkOf({W(Op::CALL), 0, W(Op::POP), W(Op::RET)});
  lang::CallSite cs;
  cs.name = "foo";
  cs.argc = 2;  // but no argument names recorded
  c.calls.push_back(cs);
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B007")) << codeList(v);
}

TEST(BcVerifyStructural, CallSiteBuiltinOrdinalOutOfTableIsB007) {
  Chunk c = chunkOf({W(Op::CALL), 0, W(Op::POP), W(Op::RET)});
  lang::CallSite cs;
  cs.name = "foo";
  cs.builtin = 10000;
  c.calls.push_back(cs);
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B007")) << codeList(v);
}

TEST(BcVerifyStructural, VariantIndexOutOfBoundsIsB008) {
  const Chunk c = chunkOf({W(Op::VARIANT), 0, W(Op::RET)});
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B008")) << codeList(v);
}

TEST(BcVerifyStructural, DiagIndexOutOfBoundsIsB009) {
  const Chunk c = chunkOf({W(Op::RAISE), 0, W(Op::RET)});
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B009")) << codeList(v);
}

TEST(BcVerifyStructural, SlotOutOfBoundsIsB010) {
  const Chunk c = chunkOf({W(Op::LOAD_SLOT), 2, W(Op::POP), W(Op::RET)});
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());  // slotCount 0
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B010")) << codeList(v);
}

TEST(BcVerifyStructural, NamedOpOnHiddenTemporaryIsB010) {
  // LOAD_LOCAL's unbound fallback resolves by name, so addressing a hidden
  // (unnamed) temporary slot is structurally invalid even though in range.
  Chunk c = chunkOf({W(Op::LOAD_LOCAL), 1, W(Op::POP), W(Op::RET)});
  c.slotCount = 2;
  c.slotNames = {"a"};
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B010")) << codeList(v);
}

TEST(BcVerifyStructural, VariantWithNoBranchesIsB011) {
  Chunk c = chunkOf({W(Op::VARIANT), 0, W(Op::RET)});
  lang::VariantSite vs;
  vs.end = 2;
  c.variants.push_back(vs);  // branches empty
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B011")) << codeList(v);
}

TEST(BcVerifyStructural, VariantBranchOutsideSiteIsB011) {
  Chunk c =
      chunkOf({W(Op::VARIANT), 0, W(Op::STMT), W(Op::STMT), W(Op::RET)});
  lang::VariantSite vs;
  vs.end = 4;
  vs.branches = {{2, 9}};  // end of branch past the site end
  c.variants.push_back(vs);
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B011")) << codeList(v);
}

TEST(BcVerifyStructural, EmptyChunkIsB012) {
  const Chunk c = chunkOf({});
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B012")) << codeList(v);
}

TEST(BcVerifyStructural, MissingRetIsB012) {
  const Chunk c = chunkOf({W(Op::STMT)});
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B012")) << codeList(v);
}

TEST(BcVerifyStructural, RequireOutsideEntityIsB013) {
  Chunk c = chunkOf({W(Op::REQUIRE), 0, W(Op::RET)});
  c.slotCount = 1;
  c.slotNames = {"p"};
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B013")) << codeList(v);
}

TEST(BcVerifyStructural, RequireOnNonParameterIsB013) {
  Chunk c = chunkOf({W(Op::REQUIRE), 1, W(Op::RET)});
  c.slotCount = 2;
  c.slotNames = {"p", "local"};
  const ChunkContext ctx{true, 1, "ENT X"};  // slot 1 is not a parameter
  const ChunkVerification v = analysis::verifyChunk(c, ctx);
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B013")) << codeList(v);
}

TEST(BcVerifyStructural, RequireOnParameterVerifies) {
  Chunk c = chunkOf({W(Op::REQUIRE), 0, W(Op::RET)});
  c.slotCount = 1;
  c.slotNames = {"p"};
  const ChunkContext ctx{true, 1, "ENT X"};
  const ChunkVerification v = analysis::verifyChunk(c, ctx);
  EXPECT_TRUE(v.ok()) << codeList(v);
}

TEST(BcVerifyStructural, InconsistentMetadataIsB014) {
  Chunk c = chunkOf({W(Op::RET)});
  c.slotCount = 1;
  c.slotNames = {"a", "b"};  // more names than slots
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B014")) << codeList(v);
}

TEST(BcVerifyStructural, EntityParamsPastNamedSlotsIsB014) {
  Chunk c = chunkOf({W(Op::RET)});
  const ChunkContext ctx{true, 2, "ENT X"};  // chunk has no named slots
  const ChunkVerification v = analysis::verifyChunk(c, ctx);
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B014")) << codeList(v);
}

// --- targeted dataflow corruptions -----------------------------------------

TEST(BcVerifyFlow, StackUnderflowIsB020) {
  const Chunk c = chunkOf({W(Op::POP), W(Op::RET)});
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B020")) << codeList(v);
}

TEST(BcVerifyFlow, JoinDepthMismatchIsB021) {
  // JF's taken edge reaches RET at depth 0, the fall-through pushes one
  // more value before the same join point.
  Chunk c = chunkOf({W(Op::CONST), 0, W(Op::JF), 6, W(Op::CONST), 0,
                     W(Op::RET)});
  c.constants.push_back(Value::number(1));
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B021")) << codeList(v);
}

TEST(BcVerifyFlow, NonZeroDepthAtRetIsB022) {
  Chunk c = chunkOf({W(Op::CONST), 0, W(Op::RET)});
  c.constants.push_back(Value::number(1));
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B022")) << codeList(v);
}

TEST(BcVerifyFlow, ReadBeforeInitIsB023) {
  Chunk c = chunkOf({W(Op::LOAD_SLOT), 0, W(Op::POP), W(Op::RET)});
  c.slotCount = 1;
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B023")) << codeList(v);
}

TEST(BcVerifyFlow, ForPairUnsetIsB023) {
  Chunk c = chunkOf({W(Op::FOR_TEST), 0, 3, W(Op::RET)});
  c.slotCount = 2;
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B023")) << codeList(v);
}

TEST(BcVerifyFlow, ForPairNotNumericIsB024) {
  // Both FOR slots are bound but provably strings — the VM would read
  // their num_ field raw, which is exactly what B024 forbids.
  Chunk c = chunkOf({W(Op::CONST), 0, W(Op::STORE_SLOT), 0, W(Op::CONST), 0,
                     W(Op::STORE_SLOT), 1, W(Op::FOR_TEST), 0, 11,
                     W(Op::RET)});
  c.slotCount = 2;
  c.constants.push_back(Value::string("x"));
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(hasCode(v, "AMG-B024")) << codeList(v);
}

TEST(BcVerifyFlow, DepthMapAnnotatesInstructionStartsOnly) {
  Chunk c = chunkOf({W(Op::CONST), 0, W(Op::POP), W(Op::RET)});
  c.constants.push_back(Value::number(1));
  const ChunkVerification v = analysis::verifyChunk(c, topCtx());
  ASSERT_TRUE(v.ok()) << codeList(v);
  ASSERT_EQ(v.depthIn.size(), 4u);
  EXPECT_EQ(v.depthIn[0], 0);   // CONST enters at depth 0
  EXPECT_EQ(v.depthIn[1], -1);  // operand word: not an instruction
  EXPECT_EQ(v.depthIn[2], 1);   // POP sees the pushed constant
  EXPECT_EQ(v.depthIn[3], 0);   // RET exits at depth 0
}

// --- whole-program verification --------------------------------------------

TEST(BcVerifyProgram, ShippedScriptsVerifyClean) {
  for (const char* name :
       {"contact_row.amg", "diffpair.amg", "variants.amg", "mirror.amg",
        "library.amg"}) {
    const auto prog = lang::compileCached(
        slurp(std::string(AMG_REPO_DIR) + "/scripts/" + name));
    const analysis::ProgramVerification v = analysis::verifyProgram(*prog);
    EXPECT_TRUE(v.ok()) << name << ":\n"
                        << [&] {
                             std::string s;
                             for (const auto& d : v.diags)
                               s += d.code + " " + d.message + "\n";
                             return s;
                           }();
  }
}

/// Each compiled chunk of the test script with the context verifyProgram
/// would hand it.
std::vector<std::pair<Chunk, ChunkContext>> testChunks() {
  const auto prog = lang::compileCached(kTestScript);
  std::vector<std::pair<Chunk, ChunkContext>> out;
  out.emplace_back(prog->top, ChunkContext{false, 0, "top-level"});
  for (const auto& e : prog->entities)
    out.emplace_back(e->chunk,
                     ChunkContext{true, e->params.size(), "ENT " + e->name});
  return out;
}

TEST(BcVerifyProgram, TruncationAnywhereIsRejected) {
  for (const auto& [chunk, ctx] : testChunks()) {
    ASSERT_GT(chunk.code.size(), 1u);
    for (std::size_t len = 0; len < chunk.code.size(); ++len) {
      Chunk cut = chunk;
      cut.code.resize(len);
      cut.verified = false;
      const ChunkVerification v = analysis::verifyChunk(cut, ctx);
      EXPECT_FALSE(v.ok()) << ctx.name << " truncated to " << len
                           << " words slipped through";
      expectAllAmgB(v);
    }
  }
}

// --- random single-word mutation sweep --------------------------------------

/// Deterministic xorshift so a failure reproduces (no std::random_device,
/// no seed-of-the-day flakiness).
struct Rng {
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  std::uint32_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return static_cast<std::uint32_t>(s >> 32);
  }
};

std::uint32_t mutateWord(Rng& rng, std::uint32_t orig) {
  switch (rng.next() % 4) {
    case 0: return rng.next() % 64;              // small: often a valid opcode
    case 1: return rng.next();                   // wild 32-bit garbage
    case 2: return orig ^ (1u << (rng.next() % 32));  // single bit flip
    default: return lang::kOpCount + rng.next() % 100;  // just past the enum
  }
}

/// Child exit codes of runMutantSafely.  They avoid 1, the status ASan and
/// UBSan (-fno-sanitize-recover) end the process with, so a sanitizer
/// report in a survivor can never pass as a clean ending.
constexpr int kMutantCompleted = 10;
constexpr int kMutantStdException = 11;
constexpr int kMutantOtherThrow = 12;

/// Run one verified mutant in a forked child under a 200 ms wall-clock
/// timer, which bounds mutated loops that never terminate (the verifier
/// proves safety, not termination).  Acceptable endings are completion, a
/// structured std::exception (AMG-INTERP-*, DRC, ...) or the timer's
/// SIGALRM.  Any other status — another signal, a non-standard throw, a
/// sanitizer's exit — is a crash: a verifier gap to fix in src/analysis/.
template <typename Exec>
void runMutantSafely(const std::string& what, Exec exec) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    itimerval t{};
    t.it_value.tv_usec = 200000;
    ::setitimer(ITIMER_REAL, &t, nullptr);
    int code = kMutantCompleted;
    try {
      exec();
    } catch (const std::exception&) {
      code = kMutantStdException;
    } catch (...) {
      code = kMutantOtherThrow;
    }
    ::_exit(code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  if (WIFEXITED(status)) {
    const int code = WEXITSTATUS(status);
    EXPECT_TRUE(code == kMutantCompleted || code == kMutantStdException)
        << what << " exited with status " << code
        << (code == kMutantOtherThrow ? " (non-standard exception)"
                                      : " (sanitizer report or crash)");
  } else {
    ASSERT_TRUE(WIFSIGNALED(status)) << what << " ended with raw status " << status;
    EXPECT_EQ(WTERMSIG(status), SIGALRM)
        << what << " died with signal " << WTERMSIG(status);
  }
}

TEST(BcVerifyMutation, SingleWordMutantsRejectedOrSafelyExecuted) {
  lang::Interpreter in(tech::bicmos1u());
  in.loadEntities(kTestScript, "mut.amg");  // CALLs resolve against these
  const auto prog = lang::compileCached(kTestScript);

  Rng rng;
  int rejected = 0, survived = 0;
  const auto sweep = [&](const Chunk& base, const ChunkContext& ctx,
                         const lang::CompiledEntity* ent, int trials) {
    for (int t = 0; t < trials; ++t) {
      Chunk mut = base;
      const std::size_t pos = rng.next() % mut.code.size();
      const std::uint32_t w = mutateWord(rng, mut.code[pos]);
      if (w == mut.code[pos]) continue;
      mut.code[pos] = w;
      const ChunkVerification v = analysis::verifyChunk(mut, ctx);
      if (!v.ok()) {
        expectAllAmgB(v);
        ++rejected;
        continue;
      }
      ++survived;
      mut.verified = true;  // what the compiler post-pass stamps on a pass
      lang::VM vm(in);
      if (!ent) {
        runMutantSafely(ctx.name, [&] { vm.execTop(mut); });
      } else {
        lang::CompiledEntity ce = *ent;
        ce.chunk = mut;
        std::vector<std::pair<std::string, Value>> args;
        for (const auto& p : ce.params)
          args.emplace_back(p.name, Value::number(3));
        runMutantSafely(ctx.name,
                        [&] { (void)vm.instantiate(ce, args, ce.line); });
      }
    }
  };

  sweep(prog->top, {false, 0, "top-level"}, nullptr, 200);
  for (const auto& e : prog->entities)
    sweep(e->chunk, {true, e->params.size(), "ENT " + e->name}, e.get(), 150);

  // The sweep only proves something if both outcomes occur: most mutants
  // must be caught statically, and the survivors exercise the dispatch
  // path with nothing but the verifier's proof standing guard.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(survived, 0);
  EXPECT_GT(rejected, survived) << "verifier caught suspiciously few mutants";
}

// --- the runtime half: admission ------------------------------------------

TEST(VmEntry, UnverifiedChunkIsRefusedB040) {
  lang::Interpreter in(tech::bicmos1u());
  lang::VM vm(in);
  // A corrupt top-level chunk (CONST into an empty pool) without the
  // verified bit is refused before its first instruction dispatches.
  Chunk c = chunkOf({W(Op::CONST), 5, W(Op::RET)});
  try {
    vm.execTop(c);
    FAIL() << "the VM ran an unverified chunk";
  } catch (const util::DiagError& e) {
    EXPECT_EQ(e.diag().code, "AMG-B040") << e.diag().message;
  }
  // So is a sound entity chunk whose bit was never stamped.
  const auto prog = lang::compileCached(kTestScript);
  lang::CompiledEntity ce = *prog->entities.front();
  ASSERT_TRUE(analysis::verifyChunk(ce.chunk, {true, ce.params.size(), "ENT"}).ok());
  ce.chunk.verified = false;
  try {
    (void)vm.instantiate(ce, {}, ce.line);
    FAIL() << "the VM instantiated an unverified entity";
  } catch (const util::DiagError& e) {
    EXPECT_EQ(e.diag().code, "AMG-B040") << e.diag().message;
  }
}

TEST(BcVerifyProgram, CompileCachedStampsEveryChunkVerified) {
  lang::clearChunkCache();
  const auto prog = lang::compileCached(kTestScript);
  EXPECT_TRUE(prog->top.verified);
  for (const auto& e : prog->entities)
    EXPECT_TRUE(e->chunk.verified) << e->name;
}

}  // namespace
}  // namespace amg
