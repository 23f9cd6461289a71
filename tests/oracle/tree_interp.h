// Test-only oracle: the original tree-walking evaluator of the layout DSL.
//
// Production runs every script on the bytecode VM (lang/vm.h).  This
// class walks the AST directly instead, with the same public surface as
// lang::Interpreter, so the differential suites (tests/vm_test.cpp,
// tests/prefix_cache_test.cpp) and bench_vm can hold the VM to the
// contract of docs/BYTECODE.md: byte-identical layouts, identical print()
// output, identical InterpStats, and identical diagnostics down to
// message, hint, line and column.  Builtins go through the same
// lang::exec::callBuiltin layer the VM uses.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "lang/ast.h"
#include "lang/interp.h"

namespace amg::oracle {

class TreeInterpreter {
 public:
  explicit TreeInterpreter(const tech::Technology& tech);

  /// Parse and register a script, then run its top-level statements.
  void run(const std::string& source, const std::string& sourceName = "<script>");
  /// Register entities only; top-level statements are AMG-INTERP-013.
  void load(const std::string& source, const std::string& sourceName = "<script>");
  /// Register entities and ignore any top-level calling sequence.
  void loadEntities(const std::string& source,
                    const std::string& sourceName = "<script>");
  /// Instantiate an entity with named arguments.
  db::Module instantiate(
      const std::string& entity,
      const std::vector<std::pair<std::string, lang::Value>>& args = {});

  const lang::Value* global(const std::string& name) const;
  const std::map<std::string, lang::Value>& globals() const { return globals_; }
  const db::Module& globalObject(const std::string& name) const;
  const lang::InterpStats& stats() const { return stats_; }
  const std::vector<std::string>& output() const { return output_; }

  /// Route compact() statements through a compactor-prefix cache.
  void setPrefixCache(compact::PrefixCache* cache) { prefix_ = cache; }

 private:
  class Impl;

  void registerEntities(lang::Program& prog, const std::string& sourceName);

  const tech::Technology* tech_;
  compact::PrefixCache* prefix_ = nullptr;
  std::vector<lang::EntityDecl> entities_;
  std::map<std::string, lang::Value> globals_;
  lang::InterpStats stats_;
  std::vector<std::string> output_;
};

}  // namespace amg::oracle
