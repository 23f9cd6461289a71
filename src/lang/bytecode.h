// Bytecode representation of a compiled layout script.
//
// One X-macro table (AMG_OPCODE_LIST) drives everything that must agree on
// the opcode set: the Op enum, the disassembler mnemonics, the per-opcode
// operand counts, the VM's dispatch switch (vm.cpp), and the registry
// table in docs/BYTECODE.md (cross-checked bidirectionally by
// scripts/check_docs.py).  Adding an opcode here and forgetting any of the
// others is a compile error, a test failure, or a docs-CI failure — never
// silent drift.
//
// Layout of a chunk: `code` is a flat stream of 32-bit words, one word for
// the opcode and one per operand.  Constants live in a per-chunk pool with
// value interning (repeated literals share a slot).  Structured operands —
// call sites, VARIANT descriptors, prebuilt diagnostics — live in side
// tables indexed by the operand word, so the code stream itself stays
// uniform and trivially walkable.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lang/interp.h"
#include "util/diag.h"

namespace amg::lang {

// clang-format off
//           name          operands  stack   summary (docs/BYTECODE.md)
#define AMG_OPCODE_LIST(X)                                                    \
  X(CONST,        1, "+1", "push constants[k]")                               \
  X(POP,          0, "-1", "discard the top of the stack")                    \
  X(COPY,         0, "0",  "deep-copy the top (assignment copies objects)")   \
  X(STMT,         0, "0",  "count one executed statement (stats parity)")     \
  X(TONUM,        0, "0",  "assert the top is a number (FOR bounds)")         \
  X(LOAD_SLOT,    1, "+1", "push raw slot s (hidden loop temporaries)")       \
  X(STORE_SLOT,   1, "-1", "pop into slot s, binding it")                     \
  X(LOAD_LOCAL,   1, "+1", "push slot s; unbound: dynamic-scope walk")        \
  X(STORE_LOCAL,  1, "-1", "pop into slot s with dynamic-scope semantics")    \
  X(LOAD_DYN,     1, "+1", "push the variable named constants[k] from an "    \
                           "enclosing frame or the globals")                  \
  X(LOAD_GLOBAL,  1, "+1", "push the global named constants[k]")             \
  X(STORE_GLOBAL, 1, "-1", "pop into the global named constants[k]")          \
  X(ADD,          0, "-1", "a + b (number addition or string concatenation)") \
  X(SUB,          0, "-1", "a - b")                                           \
  X(MUL,          0, "-1", "a * b")                                           \
  X(DIV,          0, "-1", "a / b (AMG-INTERP-008 on zero divisor)")          \
  X(LT,           0, "-1", "a < b as 1/0")                                    \
  X(GT,           0, "-1", "a > b as 1/0")                                    \
  X(LE,           0, "-1", "a <= b as 1/0")                                   \
  X(GE,           0, "-1", "a >= b as 1/0")                                   \
  X(EQ,           0, "-1", "a == b as 1/0")                                   \
  X(NE,           0, "-1", "a != b as 1/0")                                   \
  X(JUMP,         1, "0",  "jump to offset t")                                \
  X(JF,           1, "-1", "pop; jump to offset t when zero (IF/FOR)")        \
  X(JSET,         2, "0",  "jump to offset t when slot s is set "             \
                           "(skip a parameter's default)")                    \
  X(FOR_TEST,     2, "0",  "jump to offset t when FOR counter slot s "        \
                           "exceeds bound slot s+1 (plus epsilon)")           \
  X(FOR_INC,      2, "0",  "add 1 to FOR counter slot s, jump to offset t "   \
                           "(the loop test)")                                 \
  X(REQUIRE,      1, "0",  "raise AMG-INTERP-005 when slot s is unset")       \
  X(CALL,         1, "-?", "entity/builtin call described by calls[c]")       \
  X(VARIANT,      1, "0",  "backtracking alternatives per variants[v]")       \
  X(ERROR,        0, "-1", "pop a message; throw DesignRuleError")            \
  X(RAISE,        1, "0",  "throw the prebuilt diagnostic diags[d]")          \
  X(RET,          0, "0",  "end of chunk")
// clang-format on

/// The compact opcode enum — one byte would suffice; the code stream still
/// stores one 32-bit word per opcode so operands need no packing.
enum class Op : std::uint8_t {
#define X(name, operands, stack, doc) name,
  AMG_OPCODE_LIST(X)
#undef X
};

constexpr std::size_t kOpCount = 0
#define X(name, operands, stack, doc) +1
    AMG_OPCODE_LIST(X)
#undef X
    ;

/// Disassembler mnemonic, e.g. "LOAD_LOCAL".
const char* opName(Op op);
/// How many operand words follow the opcode word.
int opOperands(Op op);
/// Net stack effect as written in the registry table ("+1", "-1", "0", "-?").
const char* opStackEffect(Op op);
/// One-line summary (the docs registry's description column).
const char* opDoc(Op op);

/// One call site: `name(args...)`.  Resolution happens at execution time —
/// entities shadow builtins and may be declared after use, so the compiler
/// only records what the call looks like, plus the builtin ordinal as a
/// dispatch hint for the common case.
struct CallSite {
  std::string name;                   ///< callee as written
  int builtin = -1;                   ///< index into builtinSignatures(), -1 if none
  std::uint16_t argc = 0;             ///< evaluated arguments on the stack
  std::vector<std::string> argNames;  ///< per argument; "" = positional
  int line = 0, col = 0;              ///< call expression location
};

/// One VARIANT statement: branch code ranges inside the enclosing chunk.
struct VariantSite {
  bool rated = false;  ///< BEST VARIANT: rate all feasible branches
  int line = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> branches;  ///< [start,end)
  std::uint32_t end = 0;  ///< first offset after the last branch
};

/// Source positions for the code stream: one entry whenever the location
/// changes; error paths binary-search by offset.
struct LineInfo {
  std::uint32_t offset = 0;
  int line = 0, col = 0;
};

/// One compiled body (the top-level calling sequence or an entity body,
/// including its parameter-default prologue).
struct Chunk {
  std::vector<std::uint32_t> code;
  std::vector<Value> constants;    ///< interned literal pool
  std::vector<CallSite> calls;
  std::vector<VariantSite> variants;
  std::vector<util::Diag> diags;   ///< prebuilt diagnostics for RAISE
  std::vector<LineInfo> lines;
  std::vector<std::string> slotNames;  ///< named slots (params + locals)
  std::uint16_t slotCount = 0;         ///< total slots incl. hidden temporaries

  /// Set by the compiler post-pass when the chunk passed the bytecode
  /// verifier (analysis/bcverify.h) — the VM's license to run it.  The VM
  /// refuses a chunk without it at entry (AMG-B040).
  bool verified = false;

  /// Source position of the word at `offset` (best effort; 0/0 if unknown).
  LineInfo lineAt(std::uint32_t offset) const;
  /// Slot index for `name`, or -1 (named slots only).
  int slotOf(std::string_view name) const;
};

/// A compiled entity: enough metadata to bind a call without the AST.
struct CompiledEntity {
  struct Param {
    std::string name;
    bool optional = false;    ///< <name>
    bool hasDefault = false;  ///< name = expr (compiled into the prologue)
  };
  std::string name;
  std::vector<Param> params;  ///< declaration order; param i lives in slot i
  int line = 0;               ///< declaration line
  Chunk chunk;
};

/// A whole compiled script.  Self-contained: registering its entities and
/// executing `top` needs no AST, which is what lets the chunk cache skip
/// lex+parse+compile entirely on warm batch jobs.
struct CompiledProgram {
  Chunk top;
  // Non-const elements so the compiler post-pass can stamp the verified
  // bit before the program is published as shared_ptr<const ...>;
  // consumers (Interpreter::VmEntity) hold them as const.
  std::vector<std::shared_ptr<CompiledEntity>> entities;  ///< source order
  bool hasTop = false;  ///< the calling sequence is non-empty
  int topLine = 0, topCol = 0;  ///< first top-level statement (load() rejection)
};

/// Human-readable listings (amg_lint --dump-bc, golden tests).
std::string disassemble(const Chunk& c, std::string_view title = "");
std::string disassemble(const CompiledProgram& p);
/// Same, with the source line each group of ops came from interleaved
/// caret-style above its code.
std::string disassemble(const CompiledProgram& p, std::string_view source);

/// Per-instruction annotation hook for listings: return a short column
/// (amg_lint renders the verifier's abstract stack depth) for the
/// instruction starting at `offset` of chunk `c`.
using DisasmAnnotator =
    std::function<std::string(const Chunk& c, std::uint32_t offset)>;
std::string disassemble(const CompiledProgram& p, std::string_view source,
                        const DisasmAnnotator& annotate);

}  // namespace amg::lang
