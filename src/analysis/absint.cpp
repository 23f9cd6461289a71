// Dataflow half of the bytecode verifier (see bcverify.h): a worklist
// abstract interpretation over the chunk CFG.
//
// Abstract domain, chosen as the cheapest thing that proves what the VM's
// dispatch path assumes:
//   * operand stack: a vector of {Any, Num} — its length is the abstract
//     stack depth, which must agree at every join point and match the
//     X-macro stack effects;
//   * slots: {Unset, Set, Num} — Set means definitely bound in this frame,
//     Num additionally means definitely holding a number, which is what
//     FOR_TEST/FOR_INC require before reading the counter/bound pair as
//     raw doubles.
//
// The CFG needs no explicit edge list: jump operands are edges, everything
// else falls through, and a VARIANT instruction adds one extra edge to its
// site's end (branch bodies are laid out contiguously after the operand,
// so fall-through covers branch entry and branch-to-branch joins).
#include <cassert>
#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/bcverify.h"

namespace amg::analysis::detail {

namespace {

using lang::Chunk;
using lang::Op;

enum class AV : std::uint8_t { Any, Num };
enum class SS : std::uint8_t { Unset, Set, Num };

struct State {
  std::vector<AV> stack;
  std::vector<SS> slots;
};

AV meet(AV a, AV b) { return a == b ? a : AV::Any; }

SS meet(SS a, SS b) {
  if (a == b) return a;
  if (a == SS::Unset || b == SS::Unset) return SS::Unset;
  return SS::Set;  // Set ∧ Num
}

constexpr std::size_t kMaxDiags = 16;

class Flow {
 public:
  Flow(const Chunk& c, const ChunkContext& ctx, const Boundaries& b,
       ChunkVerification& out)
      : c_(c), ctx_(ctx), b_(b), out_(out), n_(c.code.size()) {}

  void run() {
    // States are stored only at basic-block *leaders* (the entry point and
    // every jump target); straight-line runs walk a single reused scratch
    // state in place.  Per-instruction storage would double the cold
    // compile time — this keeps the whole verifier inside bench_vm's 2%
    // overhead budget.
    leader_.assign(n_ + 1, 0);
    leader_[0] = 1;
    for (std::uint32_t at = 0; at < n_;) {
      const Op o = static_cast<Op>(c_.code[at]);
      const std::uint32_t* a = c_.code.data() + at + 1;
      switch (o) {
        case Op::JUMP:
        case Op::JF:
          leader_[a[0]] = 1;
          break;
        case Op::JSET:
        case Op::FOR_TEST:
        case Op::FOR_INC:
          leader_[a[1]] = 1;
          break;
        case Op::VARIANT:
          leader_[c_.variants[a[0]].end] = 1;
          break;
        default:
          break;
      }
      at += 1 + static_cast<std::uint32_t>(lang::opOperands(o));
    }

    in_.assign(n_ + 1, std::nullopt);
    joinErr_.assign(n_ + 1, 0);
    queued_.assign(n_ + 1, 0);
    out_.depthIn.assign(n_, -1);

    State entry;
    entry.slots.assign(c_.slotCount, SS::Unset);
    for (std::size_t i = 0; i < ctx_.paramCount && i < c_.slotCount; ++i)
      entry.slots[i] = SS::Set;  // bound by instantiate(); value may be None
    propagate(0, 0, entry);

    while (!work_.empty()) {
      const std::uint32_t at = work_.front();
      work_.pop_front();
      queued_[at] = 0;
      runBlock(at);
    }
  }

 private:
  void diag(std::uint32_t offset, const char* code, std::string msg) {
    // The worklist revisits an offset whenever its in-state changes; one
    // finding per (offset, code) is all the signal there is.
    if (!seen_.insert({offset, code}).second) return;
    if (out_.diags.size() >= kMaxDiags) return;
    const lang::LineInfo li = c_.lineAt(offset);
    out_.diags.push_back(util::Diag{
        code,
        "bytecode verify: " + ctx_.name + "+" + std::to_string(offset) + ": " +
            std::move(msg),
        {"", li.line, li.col},
        ""});
  }

  /// Join `s` into the in-state at leader `to`; enqueue on change.  Depth
  /// disagreement is the B021 rejection — the old state is kept so the
  /// fixpoint still terminates.
  void propagate(std::uint32_t from, std::uint32_t to, const State& s) {
    if (to > n_ || !b_.isStart[to]) return;  // structural pass guarantees this
    leader_[to] = 1;  // explicit targets are pre-marked; entry lands here too
    std::optional<State>& dst = in_[to];
    bool changed = false;
    if (!dst) {
      dst = s;
      changed = true;
    } else if (dst->stack.size() != s.stack.size()) {
      if (!joinErr_[to]) {
        joinErr_[to] = 1;
        diag(from, "AMG-B021",
             "stack depth " + std::to_string(s.stack.size()) +
                 " disagrees with depth " + std::to_string(dst->stack.size()) +
                 " at join point " + std::to_string(to));
      }
      return;
    } else {
      for (std::size_t i = 0; i < dst->stack.size(); ++i) {
        const AV m = meet(dst->stack[i], s.stack[i]);
        changed |= m != dst->stack[i];
        dst->stack[i] = m;
      }
      for (std::size_t i = 0; i < dst->slots.size(); ++i) {
        const SS m = meet(dst->slots[i], s.slots[i]);
        changed |= m != dst->slots[i];
        dst->slots[i] = m;
      }
    }
    if (changed && to < n_ && !queued_[to]) {
      queued_[to] = 1;
      work_.push_back(to);
    }
  }

  /// Check the FOR counter/bound pair (slots s, s+1) is numeric where the
  /// VM reads it as raw doubles; heal the state after diagnosing so one
  /// corruption reports once instead of cascading.
  void forPair(std::uint32_t at, State& s, std::uint32_t slot) {
    for (std::uint32_t i = slot; i <= slot + 1; ++i) {
      if (s.slots[i] == SS::Unset)
        diag(at, "AMG-B023",
             "FOR counter/bound slot " + std::to_string(i) +
                 " read before initialization");
      else if (s.slots[i] != SS::Num)
        diag(at, "AMG-B024",
             "FOR counter/bound slot " + std::to_string(i) +
                 " is not provably numeric (missing TONUM discipline)");
      s.slots[i] = SS::Num;
    }
  }

  /// Interpret the straight-line run starting at leader `at` over one
  /// reused scratch state, propagating into leader states at its edges.
  void runBlock(std::uint32_t leaderAt) {
    scratch_ = *in_[leaderAt];  // capacity reuse: no allocation after warmup
    State& s = scratch_;
    std::uint32_t at = leaderAt;
    for (;;) {
      out_.depthIn[at] = static_cast<int>(s.stack.size());
      const std::uint32_t next =
          at + 1 +
          static_cast<std::uint32_t>(lang::opOperands(static_cast<Op>(c_.code[at])));
      if (!transfer(at, s)) return;
      // The structural pass guarantees the chunk ends with a terminator
      // (RET), so a falling-through instruction always has a successor.
      if (leader_[next]) {
        propagate(at, next, s);
        return;
      }
      at = next;
    }
  }

  /// One instruction's transfer function over `s` in place; returns false
  /// when control does not fall through (terminator, taken-only jump, or
  /// an underflow that makes the successor state underivable).
  bool transfer(std::uint32_t at, State& s) {
    const Op o = static_cast<Op>(c_.code[at]);
    const std::uint32_t* a = c_.code.data() + at + 1;
#ifndef NDEBUG
    const std::size_t depthBefore = s.stack.size();
#endif

    // Underflow aborts the instruction: no successor state is derivable.
    const auto need = [&](std::size_t k) {
      if (s.stack.size() >= k) return true;
      diag(at, "AMG-B020",
           std::string(lang::opName(o)) + " needs " + std::to_string(k) +
               " stack value(s), abstract depth is " +
               std::to_string(s.stack.size()));
      return false;
    };
    const auto pop = [&] {
      const AV v = s.stack.back();
      s.stack.pop_back();
      return v;
    };

    switch (o) {
      case Op::CONST:
        s.stack.push_back(c_.constants[a[0]].kind() == lang::Value::Kind::Number
                              ? AV::Num
                              : AV::Any);
        break;
      case Op::POP:
        if (!need(1)) return false;
        pop();
        break;
      case Op::COPY:
      case Op::STMT:
        if (o == Op::COPY && !need(1)) return false;
        break;
      case Op::TONUM:
        if (!need(1)) return false;
        s.stack.back() = AV::Num;
        break;
      case Op::LOAD_SLOT:
        if (s.slots[a[0]] == SS::Unset)
          diag(at, "AMG-B023",
               "slot " + std::to_string(a[0]) + " read before initialization");
        s.stack.push_back(s.slots[a[0]] == SS::Num ? AV::Num : AV::Any);
        break;
      case Op::STORE_SLOT:
        if (!need(1)) return false;
        s.slots[a[0]] = pop() == AV::Num ? SS::Num : SS::Set;
        break;
      case Op::LOAD_LOCAL:
        // An unbound slot falls back to a dynamic-scope walk with its own
        // clean diagnostic, so no init-before-read obligation here.
        s.stack.push_back(s.slots[a[0]] == SS::Num ? AV::Num : AV::Any);
        break;
      case Op::STORE_LOCAL: {
        if (!need(1)) return false;
        const AV v = pop();
        // Dynamic-scope store: may mutate an enclosing binding instead of
        // binding here, so an Unset slot stays Unset.
        if (s.slots[a[0]] != SS::Unset)
          s.slots[a[0]] = v == AV::Num ? SS::Num : SS::Set;
        break;
      }
      case Op::LOAD_DYN:
      case Op::LOAD_GLOBAL:
        s.stack.push_back(AV::Any);
        break;
      case Op::STORE_GLOBAL:
        if (!need(1)) return false;
        pop();
        break;
      case Op::ADD: {
        if (!need(2)) return false;
        const AV rhs = pop();
        const AV lhs = pop();
        // number+number or string concatenation; anything else raises a
        // clean AMG-INTERP-009.
        s.stack.push_back(lhs == AV::Num && rhs == AV::Num ? AV::Num : AV::Any);
        break;
      }
      case Op::SUB:
      case Op::MUL:
      case Op::DIV:
      case Op::LT:
      case Op::GT:
      case Op::LE:
      case Op::GE:
      case Op::EQ:
      case Op::NE:
        if (!need(2)) return false;
        pop();
        pop();
        s.stack.push_back(AV::Num);
        break;
      case Op::JUMP:
        propagate(at, a[0], s);
        return false;
      case Op::JF:
        if (!need(1)) return false;
        pop();
        propagate(at, a[0], s);
        break;
      case Op::JSET:
        propagate(at, a[1], s);
        break;
      case Op::FOR_TEST:
        forPair(at, s, a[0]);
        propagate(at, a[1], s);
        break;
      case Op::FOR_INC:
        forPair(at, s, a[0]);
        propagate(at, a[1], s);
        return false;
      case Op::REQUIRE:
        break;
      case Op::CALL: {
        const std::size_t argc = c_.calls[a[0]].argc;
        if (!need(argc)) return false;
        s.stack.resize(s.stack.size() - argc);
        s.stack.push_back(AV::Any);
        break;
      }
      case Op::VARIANT:
        // Fall-through enters the first branch; the extra edge models the
        // VM resuming at the site's end after the winning branch.
        propagate(at, c_.variants[a[0]].end, s);
        break;
      case Op::ERROR:
        if (!need(1)) return false;
        pop();
        return false;  // throws DesignRuleError
      case Op::RAISE:
        return false;  // throws the prebuilt diagnostic
      case Op::RET:
        if (!s.stack.empty())
          diag(at, "AMG-B022",
               "stack depth " + std::to_string(s.stack.size()) +
                   " at RET (compiled chunks exit at depth 0)");
        return false;
    }

#ifndef NDEBUG
    // The transfer functions above must agree with the X-macro stack
    // effects ("-?" = CALL, variable).
    if (o != Op::CALL) {
      const char* eff = lang::opStackEffect(o);
      const int expect = eff[0] == '+' ? 1 : eff[0] == '-' ? -1 : 0;
      assert(static_cast<int>(s.stack.size()) ==
             static_cast<int>(depthBefore) + expect);
    }
#endif
    return true;
  }

  const Chunk& c_;
  const ChunkContext& ctx_;
  const Boundaries& b_;
  ChunkVerification& out_;
  const std::size_t n_;
  std::vector<std::optional<State>> in_;  ///< populated at leaders only
  std::vector<std::uint8_t> leader_;      ///< entry + every jump target
  State scratch_;                         ///< runBlock's reused walk state
  std::set<std::pair<std::uint32_t, const char*>> seen_;
  std::vector<std::uint8_t> joinErr_;
  std::vector<std::uint8_t> queued_;
  std::deque<std::uint32_t> work_;
};

}  // namespace

void analyzeFlow(const Chunk& c, const ChunkContext& ctx, const Boundaries& b,
                 ChunkVerification& out) {
  Flow(c, ctx, b, out).run();
}

}  // namespace amg::analysis::detail
