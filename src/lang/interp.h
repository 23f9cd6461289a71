// Interpreter of the layout description language.
//
// "The implemented language interpreter evaluates and fulfills the design
// rules automatically" (§2.1): every builtin maps onto the primitive shape
// functions and the successive compactor, so scripts never see a
// coordinate or a rule value.  The paper's workflow translates module
// source into C++; here the interpreter and the C++ module library share
// the same underlying functions, so both paths are first-class.
//
// Scripts are compiled to bytecode (lang/compiler.h), verified
// (analysis/bcverify.h) and run on the stack VM (lang/vm.h).  The original
// tree-walking evaluator survives only as the differential-testing oracle
// under tests/oracle/.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/module.h"
#include "lang/ast.h"

namespace amg::compact {
class PrefixCache;  // compact/prefix.h
}

namespace amg::lang {

struct CompiledEntity;  // lang/bytecode.h
struct CompiledProgram;

/// A runtime value: nothing (an omitted optional parameter), a number in
/// micrometres, a string, a compass direction, or a layout object.
class Value {
 public:
  enum class Kind { None, Number, String, Dir, Object };

  Value() = default;
  static Value number(double v);
  static Value string(std::string s);
  static Value direction(Dir d);
  static Value object(db::Module m);

  Kind kind() const { return kind_; }
  bool isNone() const { return kind_ == Kind::None; }

  /// Checked accessors; throw LangError via the interpreter's helpers.
  double asNumber() const;
  const std::string& asString() const;
  Dir asDir() const;
  const db::Module& asObject() const;

  /// Deep copy for assignment semantics ("trans2 = trans1 // copy").
  Value deepCopy() const;

  /// Display form for print() and diagnostics.
  std::string str() const;

 private:
  Kind kind_ = Kind::None;
  double num_ = 0;
  std::string str_;
  Dir dir_ = Dir::West;
  std::shared_ptr<const db::Module> obj_;

  /// The VM's dispatch loop reads/writes num_ directly on values it has
  /// already kind-checked (the numeric fast path and the FOR counter ops).
  friend class VM;
};

/// Interpreter statistics (reported by the benches: the paper quotes
/// "about 180 lines" and "five seconds" for the big module).
struct InterpStats {
  std::size_t statementsExecuted = 0;
  std::size_t entityCalls = 0;
  std::size_t compactions = 0;
  std::size_t variantRollbacks = 0;
  /// Of `compactions`, how many were served from the compactor-prefix
  /// cache instead of executed (docs/CACHING.md).
  std::size_t prefixRestored = 0;
};

class Interpreter {
 public:
  explicit Interpreter(const tech::Technology& tech);

  /// Parse and register a script: entities are added to the registry, the
  /// top-level statements (the "calling sequence") run immediately.
  /// `sourceName` is stamped onto every diagnostic the script raises
  /// (LangError carries file:line:col, see util/diag.h).
  void run(const std::string& source, const std::string& sourceName = "<script>");

  /// Register entities only; a script with top-level statements is an
  /// error (AMG-INTERP-013).
  void load(const std::string& source, const std::string& sourceName = "<script>");

  /// Register entities and silently ignore any top-level calling
  /// sequence — how the batch engine (gen/) reuses a runnable script as an
  /// entity library.
  void loadEntities(const std::string& source,
                    const std::string& sourceName = "<script>");

  /// Instantiate an entity with named arguments.
  db::Module instantiate(const std::string& entity,
                         const std::vector<std::pair<std::string, Value>>& args = {});

  /// Look up a global produced by the calling sequence (nullptr if absent).
  const Value* global(const std::string& name) const;
  /// All globals the calling sequence bound, by name.
  const std::map<std::string, Value>& globals() const { return globals_; }
  /// Convenience for the common case: a global layout object.
  const db::Module& globalObject(const std::string& name) const;

  const InterpStats& stats() const { return stats_; }

  /// Lines printed by the script's print() builtin.
  const std::vector<std::string>& output() const { return output_; }

  /// Route compact() statements through a compactor-prefix cache
  /// (compact/prefix.h); nullptr (the default) executes every step.  Step
  /// fingerprints are computed in the shared exec layer.  The caller keeps
  /// ownership; the cache must outlive the interpreter.
  void setPrefixCache(compact::PrefixCache* cache) { prefix_ = cache; }
  compact::PrefixCache* prefixCache() const { return prefix_; }

 private:
  /// One registered compiled entity; `file` is stamped onto diagnostics
  /// raised while it runs.
  struct VmEntity {
    std::shared_ptr<const CompiledEntity> ce;
    std::string file;
  };

  void registerCompiled(const CompiledProgram& prog,
                        const std::string& sourceName);
  const VmEntity* findVmEntity(const std::string& name) const;

  const tech::Technology* tech_;
  compact::PrefixCache* prefix_ = nullptr;
  std::vector<VmEntity> vmEntities_;
  std::map<std::string, Value> globals_;
  InterpStats stats_;
  std::vector<std::string> output_;

  friend class VM;
};

/// One-shot helper: run `source` and return the object bound to
/// `resultVar` by the calling sequence.
db::Module runScript(const tech::Technology& tech, const std::string& source,
                     const std::string& resultVar);

}  // namespace amg::lang
