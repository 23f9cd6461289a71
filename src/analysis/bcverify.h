// Bytecode verifier + abstract interpreter: the static-analysis gate every
// chunk passes before the VM will run it.
//
// Two passes over a compiled chunk (lang/bytecode.h):
//
//  1. Structural (bcverify.cpp): every opcode word is a valid opcode, the
//     operand counts from the AMG_OPCODE_LIST X-macro fit inside the code
//     stream, jump targets land on instruction boundaries in-bounds, every
//     side-table index (constant pool, call sites, variant sites, prebuilt
//     diagnostics, slots) is in range, VARIANT branch ranges are ordered,
//     contiguous-with-their-site and properly nested, and the chunk ends
//     with RET.
//
//  2. Abstract interpretation (absint.cpp): a worklist dataflow over the
//     chunk CFG computing, per program point, the abstract operand stack
//     (depth + number-ness of each entry) and per-slot state
//     (unset / set / numeric).  Stack depth must be consistent at join
//     points and match the X-macro stack effects; slots must be
//     initialized before raw reads; FOR counter/bound pairs must be
//     numeric where FOR_TEST/FOR_INC read them as raw doubles.
//
// Failures are util::Diags with stable AMG-B0xx codes (registry:
// docs/LINT.md, prose: docs/BYTECODE.md).  A chunk that passes gets its
// `verified` bit set by the compiler post-pass (lang/compiler.cpp); the VM
// refuses any chunk without it (lang/vm.cpp), and its one dispatch path
// indexes operands, slots and side tables without bounds checks.
//
// Layering note: these sources live in src/analysis/ beside the AST
// analyzer but are compiled into amg_lang — the compiler post-pass runs
// below the analyzer layer, and amg_analysis
// links amg_lang, so the reverse edge would be a cycle.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "lang/bytecode.h"
#include "util/diag.h"

namespace amg::analysis {

/// What the verifier must know about the frame a chunk executes in.
struct ChunkContext {
  bool isEntity = false;     ///< entity body (REQUIRE is only legal here)
  std::size_t paramCount = 0;  ///< slots 0..paramCount-1 start bound
  std::string name;          ///< "top-level" or "ENT Foo" (diag prefix)
};

/// Verdict for one chunk.  `depthIn[offset]` is the abstract stack depth
/// on entry to the instruction starting at `offset` (-1: unreachable or
/// not an instruction start); it is what `amg_lint --dump-bc` renders.
struct ChunkVerification {
  std::vector<util::Diag> diags;
  std::vector<int> depthIn;
  bool ok() const { return diags.empty(); }
};

/// Verify one chunk.  Pure, thread-safe, never throws; at most a handful
/// of diags are reported per chunk (the first failure per offset).
ChunkVerification verifyChunk(const lang::Chunk& c, const ChunkContext& ctx);

/// Verdict for a whole compiled program: the union of every chunk's diags
/// (messages prefixed with the chunk name) plus the per-chunk depth maps.
struct ProgramVerification {
  std::vector<util::Diag> diags;
  std::unordered_map<const lang::Chunk*, std::vector<int>> depths;
  bool ok() const { return diags.empty(); }
};
ProgramVerification verifyProgram(const lang::CompiledProgram& p);

namespace detail {

/// Structural pass output consumed by the abstract interpreter: which
/// offsets start an instruction (index code.size() is the virtual "end"
/// boundary, always legal as a jump/branch target).
struct Boundaries {
  std::vector<std::uint8_t> isStart;  ///< size code.size()+1
};

/// The worklist dataflow (absint.cpp).  Assumes the structural pass ran
/// clean; appends AMG-B02x diags and fills `out.depthIn`.
void analyzeFlow(const lang::Chunk& c, const ChunkContext& ctx,
                 const Boundaries& b, ChunkVerification& out);

}  // namespace detail

}  // namespace amg::analysis
