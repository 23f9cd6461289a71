// Shared execution core for builtin calls.
//
// The bytecode VM (vm.cpp) and the tree-walking test oracle
// (tests/oracle/) both funnel every builtin call through callBuiltin()
// below: one binding algorithm, one implementation per builtin, one
// error-wrapping policy.  They therefore cannot disagree about what INBOX
// or compact does — the differential suite (tests/vm_test.cpp) checks the
// layouts are byte-identical, and this layer is why they are.
//
// Contract (documented in docs/BYTECODE.md): argument expressions evaluate
// left-to-right; call resolution and argument binding happen after all
// arguments are evaluated.  The static analyzer flags binding mistakes
// ahead of time, so for lint-clean scripts the distinction is unobservable.
#pragma once

#include <string>
#include <vector>

#include "lang/builtins.h"
#include "lang/interp.h"

namespace amg::compact {
class PrefixCache;  // compact/prefix.h
}

namespace amg::lang::exec {

/// One evaluated call argument in source order, with the written named-ness
/// preserved (`name` is nullptr for positional arguments).
struct RawArg {
  const std::string* name;
  Value value;
};

/// What a builtin needs from its host engine.
struct ExecContext {
  const tech::Technology* tech = nullptr;
  db::Module* self = nullptr;  ///< entity under construction, or nullptr
  InterpStats* stats = nullptr;
  std::vector<std::string>* output = nullptr;  ///< print() sink
  /// The compactor-prefix cache compact() steps go through (compact/prefix.h);
  /// nullptr executes every step.  When set, self may carry a *deferred*
  /// restore between compact statements — every builtin that reads or
  /// mutates self goes through requireSelf(), which flushes it first, and
  /// the engines flush at VARIANT boundaries and frame end.
  compact::PrefixCache* prefix = nullptr;
};

/// Throw a LangError with a structured diagnostic at (line, col).
[[noreturn]] void fail(std::string code, std::string msg, int line, int col,
                       std::string hint);

/// Execute builtin `ordinal` (an index into builtinSignatures()) on the
/// evaluated arguments.  Binds positional/named arguments against the
/// signature (AMG-INTERP-003/004/005), requires an entity body for geometry
/// builtins (AMG-INTERP-007), and wraps escaping errors with the call
/// context (AMG-INTERP-010/012) exactly as the interpreter always has.
Value callBuiltin(ExecContext& ctx, std::size_t ordinal,
                  std::vector<RawArg>& args, int line, int col);

}  // namespace amg::lang::exec
