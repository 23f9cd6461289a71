#include "lang/vm.h"

#include <algorithm>
#include <optional>

#include "compact/prefix.h"
#include "lang/builtins.h"
#include "lang/compiler.h"
#include "lang/exec.h"
#include "lang/token.h"
#include "obs/obs.h"
#include "opt/rating.h"

namespace amg::lang {

namespace {

using exec::fail;

}  // namespace

VM::VM(Interpreter& host) : host_(host), tech_(*host.tech_) {
  stack_.reserve(64);  // deeper expressions grow it; typical scripts never do
}

VM::~VM() {
  if (dispatched_) OBS_COUNT_N("vm.dispatch", dispatched_);
}

Value* VM::findDyn(const std::string& name) {
  for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
    Frame* fr = *it;
    const int s = fr->chunk->slotOf(name);
    if (s >= 0 && fr->bound[static_cast<std::size_t>(s)])
      return &fr->slots[static_cast<std::size_t>(s)];
  }
  const auto g = host_.globals_.find(name);
  return g == host_.globals_.end() ? nullptr : &g->second;
}

void VM::binary(const Chunk& ch, std::uint32_t opOffset, Op o) {
  Value b = std::move(stack_.back());
  stack_.pop_back();
  Value a = std::move(stack_.back());
  stack_.pop_back();
  if (o == Op::ADD && a.kind() == Value::Kind::String) {
    stack_.push_back(Value::string(a.asString() + b.asString()));
    return;
  }
  double x, y;
  try {
    x = a.asNumber();
    y = b.asNumber();
  } catch (const Error& err) {
    const LineInfo li = ch.lineAt(opOffset);
    fail("AMG-INTERP-009", err.what(), li.line, li.col,
         "arithmetic operands must be numbers (strings only support +)");
  }
  double r = 0;
  switch (o) {
    case Op::ADD: r = x + y; break;
    case Op::SUB: r = x - y; break;
    case Op::MUL: r = x * y; break;
    case Op::DIV: {
      if (y == 0) {
        const LineInfo li = ch.lineAt(opOffset);
        fail("AMG-INTERP-008", "division by zero", li.line, li.col,
             "guard the divisor with IF, or use max(divisor, epsilon)");
      }
      r = x / y;
      break;
    }
    case Op::LT: r = x < y; break;
    case Op::GT: r = x > y; break;
    case Op::LE: r = x <= y; break;
    case Op::GE: r = x >= y; break;
    case Op::EQ: r = x == y; break;
    case Op::NE: r = x != y; break;
    default: break;  // unreachable: binary() is only called for these ops
  }
  stack_.push_back(Value::number(r));
}

void VM::call(const Chunk& ch, Frame& f, const CallSite& cs) {
  (void)ch;
  // The evaluated arguments are the stack tail, in order — consume them
  // there instead of copying into a temporary vector.
  const std::size_t base = stack_.size() - cs.argc;
  Value* vals = stack_.data() + base;
  // Entities shadow builtins, so user code can override library modules;
  // resolution is per-call because entities may be declared after use.
  if (const Interpreter::VmEntity* ve = host_.findVmEntity(cs.name)) {
    const auto& params = ve->ce->params;
    std::vector<std::pair<std::string, Value>> named;
    named.reserve(cs.argc);
    std::size_t positional = 0;
    for (std::size_t i = 0; i < cs.argc; ++i) {
      if (!cs.argNames[i].empty()) {
        named.emplace_back(cs.argNames[i], std::move(vals[i]));
      } else {
        if (positional >= params.size())
          fail("AMG-INTERP-004",
               "too many arguments for entity '" + ve->ce->name + "' (takes " +
                   std::to_string(params.size()) + ")",
               cs.line, cs.col, "drop the extra arguments or name them");
        named.emplace_back(params[positional++].name, std::move(vals[i]));
      }
    }
    stack_.resize(base);
    stack_.push_back(Value::object(instantiate(*ve->ce, named, cs.line)));
    return;
  }
  if (cs.builtin >= 0) {
    // rawScratch_ is safe to reuse: builtins never re-enter the VM, and
    // the only other caller of this function consumed it above.
    rawScratch_.clear();
    rawScratch_.reserve(cs.argc);
    for (std::size_t i = 0; i < cs.argc; ++i)
      rawScratch_.push_back({cs.argNames[i].empty() ? nullptr : &cs.argNames[i],
                             std::move(vals[i])});
    stack_.resize(base);
    exec::ExecContext ctx{&tech_, f.self, &host_.stats_, &host_.output_,
                          host_.prefix_};
    stack_.push_back(exec::callBuiltin(
        ctx, static_cast<std::size_t>(cs.builtin), rawScratch_, cs.line, cs.col));
    return;
  }
  fail("AMG-INTERP-002", "unknown entity or function '" + cs.name + "'",
       cs.line, cs.col,
       "entities must be declared with ENT before or after use; builtins "
       "are listed in docs/LANGUAGE.md");
}

/// Backtracking (§2.1): try branches against a snapshot of the module
/// under construction and every live frame's bindings; a DesignRuleError
/// rolls back and tries the next.  BEST VARIANT rates every feasible
/// branch and keeps the winner (§2.4).  Re-executes the compiled branch
/// ranges — no AST is walked.
void VM::execVariant(const Chunk& ch, Frame& f, const VariantSite& vs) {
  if (!f.self)
    fail("AMG-INTERP-007", "geometry statement outside an entity body",
         vs.line, 0,
         "primitive calls build the entity under construction; move this "
         "statement into an ENT body");
  db::Module& me = *f.self;
  // The snapshot copy below must see self's real bytes, not a parked
  // prefix-cache restore (compact/prefix.h).
  compact::prefixSync(me);
  const db::Module snapshotSelf = me;
  struct FrameSnap {
    std::vector<Value> slots;
    std::vector<std::uint8_t> bound;
  };
  const auto snapAll = [&] {
    std::vector<FrameSnap> s;
    s.reserve(frames_.size());
    for (const Frame* fr : frames_) s.push_back({fr->slots, fr->bound});
    return s;
  };
  const auto restore = [&](const std::vector<FrameSnap>& s) {
    for (std::size_t i = 0; i < frames_.size(); ++i) {
      frames_[i]->slots = s[i].slots;
      frames_[i]->bound = s[i].bound;
    }
  };
  const std::vector<FrameSnap> snapshot = snapAll();
  const std::size_t stackDepth = stack_.size();

  obs::Span span("lang.variant");
  span.arg("line", vs.line)
      .arg("branches", static_cast<std::uint64_t>(vs.branches.size()))
      .arg("rated", vs.rated);

  std::optional<db::Module> bestSelf;
  std::optional<std::vector<FrameSnap>> bestFrames;
  double bestScore = 0;
  int bestBranch = -1;
  std::string firstError;

  int branchIdx = -1;
  for (const auto& [start, end] : vs.branches) {
    ++branchIdx;
    me = snapshotSelf;
    restore(snapshot);
    OBS_COUNT("lang.variant.branches_tried");
    try {
      runRange(ch, f, start, end);
    } catch (const DesignRuleError& e) {
      stack_.resize(stackDepth);  // drop any half-built expression values
      ++host_.stats_.variantRollbacks;
      OBS_COUNT("lang.variant.rejected");
      OBS_LOG(Debug, "lang.variant",
              "line " + std::to_string(vs.line) + " branch " +
                  std::to_string(branchIdx) + " rejected: " + e.what());
      if (firstError.empty()) firstError = e.what();
      continue;
    }
    if (!vs.rated) {  // first feasible branch wins
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
            "line " + std::to_string(vs.line) + " branch " +
                std::to_string(branchIdx) + " scored " + std::to_string(score));
    if (!bestSelf || score < bestScore) {
      bestScore = score;
      bestSelf = me;
      bestFrames = snapAll();
      bestBranch = branchIdx;
    }
  }

  if (bestSelf) {
    OBS_COUNT("lang.variant.accepted");
    span.arg("winner", bestBranch).arg("best_score", bestScore);
    me = std::move(*bestSelf);
    restore(*bestFrames);
    return;
  }
  me = snapshotSelf;
  restore(snapshot);
  OBS_LOG(Info, "lang.variant",
          "line " + std::to_string(vs.line) + ": all branches failed");
  throw DesignRuleError("all VARIANT branches failed" +
                        (firstError.empty() ? "" : ("; first error: " + firstError)));
}

// Dispatch comes in two flavours, both generated from AMG_OPCODE_LIST:
// computed goto on GCC/Clang (one indirect jump per handler keeps the
// branch predictor trained per-opcode) and a portable switch fallback.
// Handlers are written once; AMG_CASE/AMG_NEXT expand to the right glue.
#if defined(__GNUC__) || defined(__clang__)
#define AMG_VM_COMPUTED_GOTO 1
#else
#define AMG_VM_COMPUTED_GOTO 0
#endif

// One binary-operator handler: number⊕number in place with no Value
// construction; everything else (string +, type errors, division by zero)
// takes the out-of-line binary() path, which owns the diagnostics.
#define AMG_BINOP(name, cond, expr_)                                       \
  AMG_CASE(name) : {                                                       \
    Value& a = stack_[stack_.size() - 2];                                  \
    const Value& b = stack_.back();                                        \
    if (a.kind_ == Value::Kind::Number && b.kind_ == Value::Kind::Number) {\
      const double x = a.num_, y = b.num_;                                 \
      if (cond) {                                                          \
        a.num_ = (expr_);                                                  \
        stack_.pop_back();                                                 \
        ip += 1;                                                           \
        AMG_NEXT();                                                        \
      }                                                                    \
    }                                                                      \
    binary(ch, ip, Op::name);                                              \
    ip += 1;                                                               \
  }                                                                        \
  AMG_NEXT()

void VM::runRange(const Chunk& ch, Frame& f, std::uint32_t ip,
                  std::uint32_t end) {
  const std::uint32_t* code = ch.code.data();
#if AMG_VM_COMPUTED_GOTO
  static const void* const kLabels[] = {
#define X(name, operands, stack, doc) &&lbl_##name,
      AMG_OPCODE_LIST(X)
#undef X
  };
#define AMG_CASE(name) lbl_##name
#define AMG_NEXT()           \
  do {                       \
    if (ip >= end) return;   \
    ++dispatched_;           \
    goto* kLabels[code[ip]]; \
  } while (0)
  AMG_NEXT();
#else
#define AMG_CASE(name) case Op::name
#define AMG_NEXT() break
  while (ip < end) {
    ++dispatched_;
    switch (static_cast<Op>(code[ip])) {
#endif

  AMG_CASE(CONST) : {
    stack_.push_back(ch.constants[code[ip + 1]]);
    ip += 2;
  }
  AMG_NEXT();
  AMG_CASE(POP) : {
    stack_.pop_back();
    ip += 1;
  }
  AMG_NEXT();
  AMG_CASE(COPY) : {
    // deepCopy() only differs from a plain copy for objects; skipping
    // the self-assignment for scalars keeps assignments cheap.
    if (stack_.back().kind() == Value::Kind::Object)
      stack_.back() = stack_.back().deepCopy();
    ip += 1;
  }
  AMG_NEXT();
  AMG_CASE(STMT) : {
    ++host_.stats_.statementsExecuted;
    ip += 1;
  }
  AMG_NEXT();
  AMG_CASE(TONUM) : {
    if (stack_.back().kind() != Value::Kind::Number)
      stack_.back() = Value::number(stack_.back().asNumber());
    ip += 1;
  }
  AMG_NEXT();
  AMG_CASE(LOAD_SLOT) : {
    stack_.push_back(f.slots[code[ip + 1]]);
    ip += 2;
  }
  AMG_NEXT();
  AMG_CASE(STORE_SLOT) : {
    const std::uint32_t s = code[ip + 1];
    f.slots[s] = std::move(stack_.back());
    stack_.pop_back();
    f.bound[s] = 1;
    ip += 2;
  }
  AMG_NEXT();
  AMG_CASE(LOAD_LOCAL) : {
    const std::uint32_t s = code[ip + 1];
    if (f.bound[s]) {
      stack_.push_back(f.slots[s]);
    } else {
      // Not bound here (yet): dynamic-scope read through the callers.
      const std::string& name = ch.slotNames[s];
      const Value* v = findDyn(name);
      if (!v) {
        const LineInfo li = ch.lineAt(ip);
        fail("AMG-INTERP-001", "unknown variable '" + name + "'", li.line,
             li.col, "assign it first, or declare it as an entity parameter");
      }
      stack_.push_back(*v);
    }
    ip += 2;
  }
  AMG_NEXT();
  AMG_CASE(STORE_LOCAL) : {
    const std::uint32_t s = code[ip + 1];
    Value v = std::move(stack_.back());
    stack_.pop_back();
    if (f.bound[s]) {
      f.slots[s] = std::move(v);
    } else if (Value* existing = findDyn(ch.slotNames[s])) {
      // Mutate the nearest existing binding...
      *existing = std::move(v);
    } else {
      // ...or create one in the current scope.
      f.slots[s] = std::move(v);
      f.bound[s] = 1;
    }
    ip += 2;
  }
  AMG_NEXT();
  AMG_CASE(LOAD_DYN) : {
    const std::string& name = ch.constants[code[ip + 1]].asString();
    const Value* v = findDyn(name);
    if (!v) {
      const LineInfo li = ch.lineAt(ip);
      fail("AMG-INTERP-001", "unknown variable '" + name + "'", li.line,
           li.col, "assign it first, or declare it as an entity parameter");
    }
    stack_.push_back(*v);
    ip += 2;
  }
  AMG_NEXT();
  AMG_CASE(LOAD_GLOBAL) : {
    const std::string& name = ch.constants[code[ip + 1]].asString();
    const auto g = host_.globals_.find(name);
    if (g == host_.globals_.end()) {
      const LineInfo li = ch.lineAt(ip);
      fail("AMG-INTERP-001", "unknown variable '" + name + "'", li.line,
           li.col, "assign it first, or declare it as an entity parameter");
    }
    stack_.push_back(g->second);
    ip += 2;
  }
  AMG_NEXT();
  AMG_CASE(STORE_GLOBAL) : {
    const std::string& name = ch.constants[code[ip + 1]].asString();
    host_.globals_[name] = std::move(stack_.back());
    stack_.pop_back();
    ip += 2;
  }
  AMG_NEXT();
  AMG_BINOP(ADD, true, x + y);
  AMG_BINOP(SUB, true, x - y);
  AMG_BINOP(MUL, true, x * y);
  AMG_BINOP(DIV, y != 0, x / y);
  AMG_BINOP(LT, true, x < y);
  AMG_BINOP(GT, true, x > y);
  AMG_BINOP(LE, true, x <= y);
  AMG_BINOP(GE, true, x >= y);
  AMG_BINOP(EQ, true, x == y);
  AMG_BINOP(NE, true, x != y);
  AMG_CASE(JUMP) : { ip = code[ip + 1]; }
  AMG_NEXT();
  AMG_CASE(JF) : {
    Value c = std::move(stack_.back());
    stack_.pop_back();
    ip = (c.asNumber() != 0.0) ? ip + 2 : code[ip + 1];
  }
  AMG_NEXT();
  AMG_CASE(JSET) : {
    const std::uint32_t s = code[ip + 1];
    ip = f.slots[s].isNone() ? ip + 3 : code[ip + 2];
  }
  AMG_NEXT();
  AMG_CASE(FOR_TEST) : {
    // The counter/bound pair always holds numbers: the loop header's
    // TONUM ops guarantee it before the first test.
    const std::uint32_t s = code[ip + 1];
    ip = (f.slots[s].num_ > f.slots[s + 1].num_ + 1e-9) ? code[ip + 2]
                                                        : ip + 3;
  }
  AMG_NEXT();
  AMG_CASE(FOR_INC) : {
    f.slots[code[ip + 1]].num_ += 1.0;
    ip = code[ip + 2];
  }
  AMG_NEXT();
  AMG_CASE(REQUIRE) : {
    const std::uint32_t s = code[ip + 1];
    if (f.slots[s].isNone()) {
      const std::string& p = f.ent->params[s].name;
      fail("AMG-INTERP-005",
           "entity '" + f.ent->name + "': required parameter '" + p +
               "' missing",
           f.callLine, 0,
           "pass " + p + "=... at the call, or declare it optional as <" + p +
               ">");
    }
    ip += 2;
  }
  AMG_NEXT();
  AMG_CASE(CALL) : {
    call(ch, f, ch.calls[code[ip + 1]]);
    ip += 2;
  }
  AMG_NEXT();
  AMG_CASE(VARIANT) : {
    const VariantSite& vs = ch.variants[code[ip + 1]];
    execVariant(ch, f, vs);
    ip = vs.end;
  }
  AMG_NEXT();
  AMG_CASE(ERROR) : {
    Value v = std::move(stack_.back());
    stack_.pop_back();
    throw DesignRuleError(v.asString());
  }
  AMG_CASE(RAISE) : { throw LangError(ch.diags[code[ip + 1]]); }
  AMG_CASE(RET) : { return; }

#if !AMG_VM_COMPUTED_GOTO
    }
  }
#endif
}

#undef AMG_BINOP
#undef AMG_CASE
#undef AMG_NEXT

void VM::refuseUnverified(const std::string& what) {
  fail("AMG-B040", what + ": unverified chunk refused at VM entry", 0, 0,
       "the VM runs only bytecode that passed analysis::verifyProgram; "
       "obtain programs through compileCached(), which verifies them");
}

void VM::execTop(const Chunk& top) {
  if (!top.verified) refuseUnverified("top-level");
  Frame f;
  f.chunk = &top;
  f.slots.resize(top.slotCount);
  f.bound.assign(top.slotCount, 0);
  frames_.push_back(&f);
  try {
    runRange(top, f, 0, static_cast<std::uint32_t>(top.code.size()));
  } catch (...) {
    frames_.pop_back();
    throw;
  }
  frames_.pop_back();
}

db::Module VM::instantiate(
    const CompiledEntity& ent,
    const std::vector<std::pair<std::string, Value>>& namedArgs, int line) {
  if (!ent.chunk.verified) refuseUnverified("ENT " + ent.name);
  if (++depth_ > 64)
    fail("AMG-INTERP-006", "entity recursion too deep", line, 0,
         "entities may nest at most 64 deep; check for unbounded recursion");
  ++host_.stats_.entityCalls;
  OBS_COUNT("lang.entity.calls");
  obs::Span span("lang.entity");
  span.arg("entity", ent.name).arg("line", line).arg("depth", depth_);

  Frame f;
  f.chunk = &ent.chunk;
  f.ent = &ent;
  f.callLine = line;
  f.slots.resize(ent.chunk.slotCount);
  f.bound.assign(ent.chunk.slotCount, 0);
  // Parameters occupy the first slots (the verifier proves it, AMG-B014).
  for (std::size_t i = 0; i < ent.params.size(); ++i) f.bound[i] = 1;
  for (const auto& [name, v] : namedArgs) {
    int idx = -1;
    for (std::size_t i = 0; i < ent.params.size(); ++i)
      if (ent.params[i].name == name) {
        idx = static_cast<int>(i);
        break;
      }
    if (idx < 0)
      fail("AMG-INTERP-003",
           "entity '" + ent.name + "' has no parameter '" + name + "'", line, 0,
           "the declaration is 'ENT " + ent.name + "(...)' on line " +
               std::to_string(ent.line));
    f.slots[static_cast<std::size_t>(idx)] = v;
  }

  db::Module self(tech_, ent.name);
  f.self = &self;
  frames_.push_back(&f);
  const std::size_t stackBase = stack_.size();
  try {
    runRange(ent.chunk, f, 0, static_cast<std::uint32_t>(ent.chunk.code.size()));
  } catch (...) {
    compact::prefixAbandon(self);
    stack_.resize(stackBase);
    frames_.pop_back();
    --depth_;
    throw;
  }
  // Frame end: flush any deferred prefix-cache restore and retire the
  // session before self's bytes escape via the return copy.
  compact::prefixEnd(self);
  frames_.pop_back();
  --depth_;
  return self;
}

}  // namespace amg::lang
