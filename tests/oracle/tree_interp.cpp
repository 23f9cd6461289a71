#include "oracle/tree_interp.h"

#include <algorithm>
#include <optional>

#include "compact/prefix.h"
#include "lang/builtins.h"
#include "lang/exec.h"
#include "obs/obs.h"
#include "opt/rating.h"

namespace amg::oracle {

using lang::Arg;
using lang::Body;
using lang::BuiltinSig;
using lang::builtinSignatures;
using lang::EntityDecl;
using lang::Expr;
using lang::findBuiltin;
using lang::LangError;
using lang::Stmt;
using lang::Tok;
using lang::Value;
namespace exec = lang::exec;

class TreeInterpreter::Impl {
 public:
  Impl(TreeInterpreter& host) : host_(host), tech_(*host.tech_) {}

  void execTop(const Body& body) {
    // Scope 0 aliases the host's globals.
    execBody(body);
  }

  db::Module instantiate(const EntityDecl& ent,
                         const std::vector<std::pair<std::string, Value>>& namedArgs,
                         int line) {
    if (++depth_ > 64)
      fail("AMG-INTERP-006", "entity recursion too deep", line, 0,
           "entities may nest at most 64 deep; check for unbounded recursion");
    ++host_.stats_.entityCalls;
    OBS_COUNT("lang.entity.calls");
    obs::Span span("lang.entity");
    span.arg("entity", ent.name).arg("line", line).arg("depth", depth_);

    scopes_.emplace_back();
    for (const auto& p : ent.params) scopes_.back()[p.name] = Value{};
    for (const auto& [name, v] : namedArgs) {
      const bool known = std::any_of(ent.params.begin(), ent.params.end(),
                                     [&](const auto& p) { return p.name == name; });
      if (!known)
        fail("AMG-INTERP-003",
             "entity '" + ent.name + "' has no parameter '" + name + "'", line, 0,
             "the declaration is 'ENT " + ent.name + "(...)' on line " +
                 std::to_string(ent.line));
      scopes_.back()[name] = v;
    }
    for (const auto& p : ent.params) {
      if (!scopes_.back()[p.name].isNone()) continue;
      if (p.defaultValue) {
        // Explicit default, evaluated with earlier parameters in scope.
        scopes_.back()[p.name] = eval(*p.defaultValue);
      } else if (!p.optional) {
        fail("AMG-INTERP-005",
             "entity '" + ent.name + "': required parameter '" + p.name +
                 "' missing",
             line, 0,
             "pass " + p.name + "=... at the call, or declare it optional as <" +
                 p.name + ">");
      }
    }

    db::Module self(tech_, ent.name);
    selfStack_.push_back(&self);
    try {
      execBody(ent.body);
    } catch (...) {
      compact::prefixAbandon(self);
      selfStack_.pop_back();
      scopes_.pop_back();
      --depth_;
      throw;
    }
    // Frame end: flush any deferred prefix-cache restore and retire the
    // session before self's bytes escape via the return copy.
    compact::prefixEnd(self);
    selfStack_.pop_back();
    scopes_.pop_back();
    --depth_;
    return self;
  }

 private:
  // --- environment -------------------------------------------------------

  Value* findVar(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto v = it->find(name);
      if (v != it->end()) return &v->second;
    }
    auto g = host_.globals_.find(name);
    return g == host_.globals_.end() ? nullptr : &g->second;
  }

  void setVar(const std::string& name, Value v) {
    if (Value* existing = findVar(name)) {
      *existing = std::move(v);
      return;
    }
    if (scopes_.empty())
      host_.globals_[name] = std::move(v);
    else
      scopes_.back()[name] = std::move(v);
  }

  [[noreturn]] static void fail(std::string code, std::string msg, int line,
                                int col, std::string hint) {
    throw LangError(util::Diag{std::move(code), std::move(msg),
                               {"", line, col}, std::move(hint)});
  }

  db::Module& self(int line) {
    if (selfStack_.empty())
      fail("AMG-INTERP-007", "geometry statement outside an entity body", line, 0,
           "primitive calls build the entity under construction; move this "
           "statement into an ENT body");
    return *selfStack_.back();
  }


  void execBody(const Body& body) {
    for (const Stmt& s : body) execStmt(s);
  }

  void execStmt(const Stmt& s) {
    ++host_.stats_.statementsExecuted;
    switch (s.kind) {
      case Stmt::Kind::Assign: {
        // Assignment copies objects ("trans2 = trans1 // copy of trans1").
        setVar(s.name, eval(*s.expr).deepCopy());
        return;
      }
      case Stmt::Kind::ExprStmt:
        (void)eval(*s.expr);
        return;
      case Stmt::Kind::If: {
        const Value c = eval(*s.expr);
        if (c.asNumber() != 0.0)
          execBody(s.body);
        else
          execBody(s.elseBody);
        return;
      }
      case Stmt::Kind::For: {
        const double lo = eval(*s.expr).asNumber();
        const double hi = eval(*s.expr2).asNumber();
        for (double i = lo; i <= hi + 1e-9; i += 1.0) {
          setVar(s.name, Value::number(i));
          execBody(s.body);
        }
        return;
      }
      case Stmt::Kind::Variant:
        execVariant(s);
        return;
      case Stmt::Kind::Error:
        throw DesignRuleError(eval(*s.expr).asString());
    }
  }

  /// Backtracking (§2.1): try branches against a snapshot of the module
  /// under construction; a DesignRuleError rolls back and tries the next.
  /// BEST VARIANT rates every feasible branch and keeps the winner (§2.4).
  void execVariant(const Stmt& s) {
    db::Module& me = self(s.line);
    // The snapshot copy below must see self's real bytes, not a parked
    // prefix-cache restore (compact/prefix.h).
    compact::prefixSync(me);
    const db::Module snapshotSelf = me;
    const auto snapshotScopes = scopes_;

    obs::Span span("lang.variant");
    span.arg("line", s.line)
        .arg("branches", static_cast<std::uint64_t>(s.branches.size()))
        .arg("rated", s.rated);

    std::optional<db::Module> bestSelf;
    std::optional<std::vector<std::map<std::string, Value>>> bestScopes;
    double bestScore = 0;
    int bestBranch = -1;
    std::string firstError;

    int branchIdx = -1;
    for (const Body& branch : s.branches) {
      ++branchIdx;
      me = snapshotSelf;
      scopes_ = snapshotScopes;
      OBS_COUNT("lang.variant.branches_tried");
      try {
        execBody(branch);
      } catch (const DesignRuleError& e) {
        ++host_.stats_.variantRollbacks;
        OBS_COUNT("lang.variant.rejected");
        OBS_LOG(Debug, "lang.variant",
                "line " + std::to_string(s.line) + " branch " +
                    std::to_string(branchIdx) + " rejected: " + e.what());
        if (firstError.empty()) firstError = e.what();
        continue;
      }
      if (!s.rated) {  // first feasible branch wins
        OBS_COUNT("lang.variant.accepted");
        span.arg("winner", branchIdx);
        return;
      }
      compact::prefixSync(me);  // rating and bestSelf read me directly
      double score;
      {
        obs::Span rateSpan("opt.rate");
        OBS_COUNT("opt.variant.rated");
        score = opt::rate(me);
        rateSpan.arg("branch", branchIdx).arg("score", score);
      }
      OBS_LOG(Trace, "lang.variant",
              "line " + std::to_string(s.line) + " branch " +
                  std::to_string(branchIdx) + " scored " + std::to_string(score));
      if (!bestSelf || score < bestScore) {
        bestScore = score;
        bestSelf = me;
        bestScopes = scopes_;
        bestBranch = branchIdx;
      }
    }

    if (bestSelf) {
      OBS_COUNT("lang.variant.accepted");
      span.arg("winner", bestBranch).arg("best_score", bestScore);
      me = std::move(*bestSelf);
      scopes_ = std::move(*bestScopes);
      return;
    }
    me = snapshotSelf;
    scopes_ = snapshotScopes;
    OBS_LOG(Info, "lang.variant",
            "line " + std::to_string(s.line) + ": all branches failed");
    throw DesignRuleError("all VARIANT branches failed" +
                          (firstError.empty() ? "" : ("; first error: " + firstError)));
  }

  // --- expressions ----------------------------------------------------------

  Value eval(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::Number: return Value::number(e.number);
      case Expr::Kind::String: return Value::string(e.text);
      case Expr::Kind::Dir: return Value::direction(e.dir);
      case Expr::Kind::Var: {
        const Value* v = findVar(e.text);
        if (!v)
          fail("AMG-INTERP-001", "unknown variable '" + e.text + "'", e.line, e.col,
               "assign it first, or declare it as an entity parameter");
        return *v;
      }
      case Expr::Kind::Binary: return evalBinary(e);
      case Expr::Kind::Call: return evalCall(e);
    }
    fail("AMG-INTERP-011", "bad expression", e.line, e.col, "");
  }

  Value evalBinary(const Expr& e) {
    const Value a = eval(*e.lhs);
    const Value b = eval(*e.rhs);
    if (e.op == Tok::Plus && a.kind() == Value::Kind::String)
      return Value::string(a.asString() + b.asString());
    double x, y;
    try {
      x = a.asNumber();
      y = b.asNumber();
    } catch (const Error& err) {
      fail("AMG-INTERP-009", err.what(), e.line, e.col,
           "arithmetic operands must be numbers (strings only support +)");
    }
    switch (e.op) {
      case Tok::Plus: return Value::number(x + y);
      case Tok::Minus: return Value::number(x - y);
      case Tok::Star: return Value::number(x * y);
      case Tok::Slash:
        if (y == 0)
          fail("AMG-INTERP-008", "division by zero", e.line, e.col,
               "guard the divisor with IF, or use max(divisor, epsilon)");
        return Value::number(x / y);
      case Tok::Lt: return Value::number(x < y);
      case Tok::Gt: return Value::number(x > y);
      case Tok::Le: return Value::number(x <= y);
      case Tok::Ge: return Value::number(x >= y);
      case Tok::EqEq: return Value::number(x == y);
      case Tok::Ne: return Value::number(x != y);
      default: fail("AMG-INTERP-011", "bad operator", e.line, e.col, "");
    }
  }

  // --- calls ---------------------------------------------------------------

  Value evalCall(const Expr& e) {
    // Arguments evaluate left-to-right; resolution and binding happen only
    // afterwards — the call contract both engines share (docs/BYTECODE.md).
    std::vector<exec::RawArg> raw;
    raw.reserve(e.args.size());
    for (const Arg& a : e.args)
      raw.push_back({a.name ? &*a.name : nullptr, eval(*a.value)});
    // Entities shadow builtins, so user code can override library modules.
    for (const EntityDecl& ent : host_.entities_) {
      if (ent.name == e.text) {
        std::vector<std::pair<std::string, Value>> named;
        named.reserve(raw.size());
        std::size_t positional = 0;
        for (exec::RawArg& a : raw) {
          if (a.name) {
            named.emplace_back(*a.name, std::move(a.value));
          } else {
            if (positional >= ent.params.size())
              fail("AMG-INTERP-004",
                   "too many arguments for entity '" + ent.name + "' (takes " +
                       std::to_string(ent.params.size()) + ")",
                   e.line, e.col, "drop the extra arguments or name them");
            named.emplace_back(ent.params[positional++].name, std::move(a.value));
          }
        }
        return Value::object(instantiate(ent, named, e.line));
      }
    }
    const BuiltinSig* sig = findBuiltin(e.text);
    if (!sig)
      fail("AMG-INTERP-002", "unknown entity or function '" + e.text + "'",
           e.line, e.col,
           "entities must be declared with ENT before or after use; builtins "
           "are listed in docs/LANGUAGE.md");
    exec::ExecContext ctx{&tech_,
                          selfStack_.empty() ? nullptr : selfStack_.back(),
                          &host_.stats_, &host_.output_, host_.prefix_};
    return exec::callBuiltin(
        ctx, static_cast<std::size_t>(sig - builtinSignatures().data()), raw,
        e.line, e.col);
  }

  TreeInterpreter& host_;
  const tech::Technology& tech_;
  std::vector<std::map<std::string, Value>> scopes_;
  std::vector<db::Module*> selfStack_;
  int depth_ = 0;
};

TreeInterpreter::TreeInterpreter(const tech::Technology& tech) : tech_(&tech) {}

namespace {

/// Stamp the script's file name onto a LangError that escaped the
/// lexer/parser/walker (their internals only know line/col).
[[noreturn]] void rethrowWithFile(const LangError& e, const std::string& file) {
  util::Diag d = e.diag();
  if (d.loc.file.empty()) d.loc.file = file;
  throw LangError(std::move(d));
}

}  // namespace

void TreeInterpreter::registerEntities(lang::Program& prog,
                                       const std::string& sourceName) {
  for (EntityDecl& e : prog.entities) {
    e.file = sourceName;
    // Later declarations shadow earlier ones (remove the old).
    entities_.erase(
        std::remove_if(entities_.begin(), entities_.end(),
                       [&](const EntityDecl& x) { return x.name == e.name; }),
        entities_.end());
    entities_.push_back(std::move(e));
  }
}

void TreeInterpreter::load(const std::string& source, const std::string& sourceName) {
  try {
    lang::Program prog = lang::parseSource(source);
    registerEntities(prog, sourceName);
    if (!prog.top.empty())
      throw LangError(util::Diag{
          "AMG-INTERP-013", "load(): script has top-level statements; use run()",
          {"", prog.top.front().line, prog.top.front().col},
          "load() registers entities only; move the calling sequence to run()"});
  } catch (const LangError& e) {
    rethrowWithFile(e, sourceName);
  }
}

void TreeInterpreter::loadEntities(const std::string& source,
                                   const std::string& sourceName) {
  try {
    lang::Program prog = lang::parseSource(source);
    registerEntities(prog, sourceName);
  } catch (const LangError& e) {
    rethrowWithFile(e, sourceName);
  }
}

void TreeInterpreter::run(const std::string& source, const std::string& sourceName) {
  try {
    lang::Program prog = lang::parseSource(source);
    registerEntities(prog, sourceName);
    Impl impl(*this);
    impl.execTop(prog.top);
  } catch (const LangError& e) {
    rethrowWithFile(e, sourceName);
  }
}

db::Module TreeInterpreter::instantiate(
    const std::string& entity, const std::vector<std::pair<std::string, Value>>& args) {
  const auto it = std::find_if(entities_.begin(), entities_.end(),
                               [&](const EntityDecl& e) { return e.name == entity; });
  if (it == entities_.end()) {
    util::Diag d;
    d.code = "AMG-INTERP-002";
    d.message = "unknown entity '" + entity + "'";
    d.hint = "load a script declaring it first";
    throw LangError(std::move(d));
  }
  Impl impl(*this);
  try {
    return impl.instantiate(*it, args, it->line);
  } catch (const LangError& e) {
    rethrowWithFile(e, it->file);
  }
}

const Value* TreeInterpreter::global(const std::string& name) const {
  const auto it = globals_.find(name);
  return it == globals_.end() ? nullptr : &it->second;
}

const db::Module& TreeInterpreter::globalObject(const std::string& name) const {
  const Value* v = global(name);
  if (!v) throw Error("script did not define '" + name + "'");
  return v->asObject();
}

}  // namespace amg::oracle
