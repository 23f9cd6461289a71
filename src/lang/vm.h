// The bytecode stack VM — the layout DSL's execution engine.
//
// One VM object lives for the duration of one run()/instantiate() call:
// frames, the value stack and the recursion depth reset per execution,
// while globals/stats/output live on the host Interpreter.
//
// Semantics contract (docs/BYTECODE.md, enforced by tests/vm_test.cpp
// against the tree-walking oracle in tests/oracle/): identical layouts
// byte-for-byte, identical diagnostics, identical stats and obs counters.
// Dynamic scoping is preserved via slot fast paths with a by-name fallback
// walk: a bound slot is a direct index; an unbound one resolves through
// enclosing frames and globals, innermost first.
//
// Only verified chunks run (Chunk::verified, set by compileCached after
// analysis::verifyProgram passes); the entry points refuse anything else
// with AMG-B040 before the first dispatch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lang/bytecode.h"
#include "lang/exec.h"
#include "lang/interp.h"

namespace amg::lang {

class VM {
 public:
  explicit VM(Interpreter& host);
  ~VM();  // flushes the vm.dispatch counter

  /// Execute a compiled top-level calling sequence against the host's
  /// globals.
  void execTop(const Chunk& top);

  /// Instantiate a compiled entity with named arguments; `line` is the
  /// call-site line stamped onto binding diagnostics.
  db::Module instantiate(
      const CompiledEntity& ent,
      const std::vector<std::pair<std::string, Value>>& namedArgs, int line);

 private:
  struct Frame {
    const Chunk* chunk = nullptr;
    const CompiledEntity* ent = nullptr;  ///< nullptr = top-level frame
    db::Module* self = nullptr;           ///< entity under construction
    std::vector<Value> slots;
    std::vector<std::uint8_t> bound;  ///< slot holds a binding (may be None)
    int callLine = 0;                 ///< for AMG-INTERP-005/006 locations
  };

  /// Dispatch [ip, end) of a verified chunk.  Handlers index operands,
  /// slots and side tables without bounds checks: the verifier proved
  /// every one of those accesses in range (docs/BYTECODE.md).
  void runRange(const Chunk& ch, Frame& f, std::uint32_t ip, std::uint32_t end);
  /// The VM entry check's failure: execTop()/instantiate() refuse a chunk
  /// whose verified bit is clear (AMG-B040) before any instruction runs.
  [[noreturn]] static void refuseUnverified(const std::string& what);
  void execVariant(const Chunk& ch, Frame& f, const VariantSite& vs);
  void binary(const Chunk& ch, std::uint32_t opOffset, Op o);
  void call(const Chunk& ch, Frame& f, const CallSite& cs);

  /// Innermost-out dynamic-scope lookup over all live frames, then the
  /// host's globals.
  Value* findDyn(const std::string& name);

  Interpreter& host_;
  const tech::Technology& tech_;
  std::vector<Frame*> frames_;
  std::vector<Value> stack_;
  std::vector<exec::RawArg> rawScratch_;  ///< reused builtin-call buffer
  int depth_ = 0;
  std::uint64_t dispatched_ = 0;
};

}  // namespace amg::lang
