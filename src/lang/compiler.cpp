#include "lang/compiler.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "analysis/bcverify.h"
#include "lang/builtins.h"
#include "lang/token.h"
#include "obs/obs.h"
#include "util/text_memo.h"

namespace amg::lang {

// --------------------------------------------------------------------------
// Opcode metadata (all generated from the one X-macro table)
// --------------------------------------------------------------------------

const char* opName(Op op) {
  static const char* const names[] = {
#define X(name, operands, stack, doc) #name,
      AMG_OPCODE_LIST(X)
#undef X
  };
  const auto i = static_cast<std::size_t>(op);
  return i < kOpCount ? names[i] : "?";
}

int opOperands(Op op) {
  static const int counts[] = {
#define X(name, operands, stack, doc) operands,
      AMG_OPCODE_LIST(X)
#undef X
  };
  const auto i = static_cast<std::size_t>(op);
  return i < kOpCount ? counts[i] : 0;
}

const char* opStackEffect(Op op) {
  static const char* const effects[] = {
#define X(name, operands, stack, doc) stack,
      AMG_OPCODE_LIST(X)
#undef X
  };
  const auto i = static_cast<std::size_t>(op);
  return i < kOpCount ? effects[i] : "?";
}

const char* opDoc(Op op) {
  static const char* const docs[] = {
#define X(name, operands, stack, doc) doc,
      AMG_OPCODE_LIST(X)
#undef X
  };
  const auto i = static_cast<std::size_t>(op);
  return i < kOpCount ? docs[i] : "?";
}

// --------------------------------------------------------------------------
// Chunk helpers
// --------------------------------------------------------------------------

LineInfo Chunk::lineAt(std::uint32_t offset) const {
  LineInfo best;
  for (const LineInfo& li : lines) {
    if (li.offset > offset) break;  // entries are in offset order
    best = li;
  }
  return best;
}

int Chunk::slotOf(std::string_view name) const {
  for (std::size_t i = 0; i < slotNames.size(); ++i)
    if (slotNames[i] == name) return static_cast<int>(i);
  return -1;
}

// --------------------------------------------------------------------------
// Compiler
// --------------------------------------------------------------------------

namespace {

/// Symbol scopes the compiler resolves names into:
///  - LOCAL:   entity parameters and assigned names → slot indices in the
///             enclosing entity's frame (params occupy slots 0..n-1);
///  - GLOBAL:  any name in the top-level calling sequence (it has no frame,
///             exactly like the tree-walking oracle's empty scope stack);
///  - BUILTIN: call targets matched against builtinSignatures() ordinals —
///             recorded as a dispatch hint only, because entities shadow
///             builtins and may be declared after the call site.
/// Names read inside an entity that are not local compile to LOAD_DYN: the
/// language is dynamically scoped, so they resolve through the caller's
/// frames at execution time (docs/LANGUAGE.md).
class BodyCompiler {
 public:
  explicit BodyCompiler(bool topLevel) : top_(topLevel) {}

  Chunk finish(const std::vector<EntityDecl::Param>* params, const Body& body) {
    if (!top_) {
      for (const auto& p : *params) addName(p.name);
      collect(body);
      ch_.slotNames.assign(names_.begin(), names_.end());
      ch_.slotCount = static_cast<std::uint16_t>(names_.size());
      prologue(*params);
    }
    compileBody(body);
    op(Op::RET, 0, 0);
    return std::move(ch_);
  }

 private:
  // --- emission -----------------------------------------------------------

  std::uint32_t here() const { return static_cast<std::uint32_t>(ch_.code.size()); }

  void op(Op o, int line, int col) {
    if (line > 0 && (line != curLine_ || col != curCol_)) {
      ch_.lines.push_back({here(), line, col});
      curLine_ = line;
      curCol_ = col;
    }
    ch_.code.push_back(static_cast<std::uint32_t>(o));
  }

  void word(std::uint32_t w) { ch_.code.push_back(w); }

  std::uint32_t jump(Op o, int line, int col) {
    op(o, line, col);
    word(0);
    return here() - 1;  // operand to patch
  }

  void patch(std::uint32_t at) { ch_.code[at] = here(); }

  // --- constant interning -------------------------------------------------

  std::uint32_t constNumber(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    const auto it = numConst_.find(bits);
    if (it != numConst_.end()) return it->second;
    const auto idx = static_cast<std::uint32_t>(ch_.constants.size());
    ch_.constants.push_back(Value::number(v));
    numConst_.emplace(bits, idx);
    return idx;
  }

  std::uint32_t constString(const std::string& s) {
    const auto it = strConst_.find(s);
    if (it != strConst_.end()) return it->second;
    const auto idx = static_cast<std::uint32_t>(ch_.constants.size());
    ch_.constants.push_back(Value::string(s));
    strConst_.emplace(s, idx);
    return idx;
  }

  std::uint32_t constDir(Dir d) {
    const auto i = static_cast<std::size_t>(d);
    if (dirConst_[i] >= 0) return static_cast<std::uint32_t>(dirConst_[i]);
    const auto idx = static_cast<std::uint32_t>(ch_.constants.size());
    ch_.constants.push_back(Value::direction(d));
    dirConst_[i] = static_cast<int>(idx);
    return idx;
  }

  // --- symbol table -------------------------------------------------------

  void addName(const std::string& n) {
    if (std::find(names_.begin(), names_.end(), n) == names_.end())
      names_.push_back(n);
  }

  /// Assignment targets and FOR variables, in first-occurrence order.
  void collect(const Body& b) {
    for (const Stmt& s : b) {
      switch (s.kind) {
        case Stmt::Kind::Assign: addName(s.name); break;
        case Stmt::Kind::For:
          addName(s.name);
          collect(s.body);
          break;
        case Stmt::Kind::If:
          collect(s.body);
          collect(s.elseBody);
          break;
        case Stmt::Kind::Variant:
          for (const Body& br : s.branches) collect(br);
          break;
        default: break;
      }
    }
  }

  int slotOf(const std::string& n) const {
    for (std::size_t i = 0; i < names_.size(); ++i)
      if (names_[i] == n) return static_cast<int>(i);
    return -1;
  }

  std::uint32_t tempSlot() { return ch_.slotCount++; }

  // --- entity prologue ----------------------------------------------------

  /// Parameter defaults, in declaration order with earlier parameters in
  /// scope; missing required parameters raise AMG-INTERP-005 at the call
  /// site — same order and same diagnostics as the tree-walking oracle.
  void prologue(const std::vector<EntityDecl::Param>& params) {
    for (std::size_t i = 0; i < params.size(); ++i) {
      const auto& p = params[i];
      if (p.defaultValue) {
        op(Op::JSET, p.line, p.col);
        word(static_cast<std::uint32_t>(i));
        word(0);
        const std::uint32_t at = here() - 1;
        expr(*p.defaultValue);
        op(Op::STORE_SLOT, p.line, p.col);
        word(static_cast<std::uint32_t>(i));
        patch(at);
      } else if (!p.optional) {
        op(Op::REQUIRE, p.line, p.col);
        word(static_cast<std::uint32_t>(i));
      }
    }
  }

  // --- statements ---------------------------------------------------------

  void compileBody(const Body& b) {
    for (const Stmt& s : b) stmt(s);
  }

  void store(const std::string& name, int line, int col) {
    if (top_) {
      op(Op::STORE_GLOBAL, line, col);
      word(constString(name));
    } else {
      op(Op::STORE_LOCAL, line, col);
      word(static_cast<std::uint32_t>(slotOf(name)));
    }
  }

  void stmt(const Stmt& s) {
    op(Op::STMT, s.line, s.col);
    switch (s.kind) {
      case Stmt::Kind::Assign:
        expr(*s.expr);
        op(Op::COPY, s.line, s.col);
        store(s.name, s.line, s.col);
        return;
      case Stmt::Kind::ExprStmt:
        expr(*s.expr);
        op(Op::POP, s.line, s.col);
        return;
      case Stmt::Kind::If: {
        expr(*s.expr);
        const std::uint32_t toElse = jump(Op::JF, s.line, s.col);
        compileBody(s.body);
        const std::uint32_t toEnd = jump(Op::JUMP, s.line, s.col);
        patch(toElse);
        compileBody(s.elseBody);
        patch(toEnd);
        return;
      }
      case Stmt::Kind::For: {
        // FOR_TEST/FOR_INC operate on the hidden counter/bound pair with
        // native doubles — a tree-walker's loop control is a C++ for
        // statement, and generic stack traffic here loses to it badly.
        // The pair is allocated adjacently: FOR_TEST addresses the bound
        // as counter+1.
        const std::uint32_t ti = tempSlot();  // counter
        const std::uint32_t th = tempSlot();  // upper bound == ti + 1
        (void)th;
        expr(*s.expr);
        op(Op::TONUM, s.line, s.col);
        op(Op::STORE_SLOT, s.line, s.col);
        word(ti);
        expr(*s.expr2);
        op(Op::TONUM, s.line, s.col);
        op(Op::STORE_SLOT, s.line, s.col);
        word(ti + 1);
        const std::uint32_t test = here();
        op(Op::FOR_TEST, s.line, s.col);
        word(ti);
        const std::uint32_t toEnd = here();
        word(0);
        // The loop variable is (re)assigned each iteration with ordinary
        // variable semantics; the hidden counter is untouchable from the
        // script, exactly like the tree-walking oracle's C++ loop counter.
        op(Op::LOAD_SLOT, s.line, s.col);
        word(ti);
        store(s.name, s.line, s.col);
        compileBody(s.body);
        op(Op::FOR_INC, s.line, s.col);
        word(ti);
        word(test);
        patch(toEnd);
        return;
      }
      case Stmt::Kind::Variant: {
        const auto vIdx = static_cast<std::uint32_t>(ch_.variants.size());
        ch_.variants.push_back({s.rated, s.line, {}, 0});
        op(Op::VARIANT, s.line, s.col);
        word(vIdx);
        std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
        for (const Body& br : s.branches) {
          const std::uint32_t start = here();
          compileBody(br);
          ranges.emplace_back(start, here());
        }
        ch_.variants[vIdx].branches = std::move(ranges);
        ch_.variants[vIdx].end = here();
        return;
      }
      case Stmt::Kind::Error:
        expr(*s.expr);
        op(Op::ERROR, s.line, s.col);
        return;
    }
  }

  // --- expressions --------------------------------------------------------

  void raise(const char* code, std::string msg, int line, int col,
             std::string hint) {
    const auto d = static_cast<std::uint32_t>(ch_.diags.size());
    ch_.diags.push_back(
        util::Diag{code, std::move(msg), {"", line, col}, std::move(hint)});
    op(Op::RAISE, line, col);
    word(d);
  }

  void expr(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::Number:
        op(Op::CONST, e.line, e.col);
        word(constNumber(e.number));
        return;
      case Expr::Kind::String:
        op(Op::CONST, e.line, e.col);
        word(constString(e.text));
        return;
      case Expr::Kind::Dir:
        op(Op::CONST, e.line, e.col);
        word(constDir(e.dir));
        return;
      case Expr::Kind::Var: {
        if (!top_) {
          const int s = slotOf(e.text);
          if (s >= 0) {
            op(Op::LOAD_LOCAL, e.line, e.col);
            word(static_cast<std::uint32_t>(s));
            return;
          }
          op(Op::LOAD_DYN, e.line, e.col);
          word(constString(e.text));
          return;
        }
        op(Op::LOAD_GLOBAL, e.line, e.col);
        word(constString(e.text));
        return;
      }
      case Expr::Kind::Binary: {
        expr(*e.lhs);
        expr(*e.rhs);
        switch (e.op) {
          case Tok::Plus: op(Op::ADD, e.line, e.col); return;
          case Tok::Minus: op(Op::SUB, e.line, e.col); return;
          case Tok::Star: op(Op::MUL, e.line, e.col); return;
          case Tok::Slash: op(Op::DIV, e.line, e.col); return;
          case Tok::Lt: op(Op::LT, e.line, e.col); return;
          case Tok::Gt: op(Op::GT, e.line, e.col); return;
          case Tok::Le: op(Op::LE, e.line, e.col); return;
          case Tok::Ge: op(Op::GE, e.line, e.col); return;
          case Tok::EqEq: op(Op::EQ, e.line, e.col); return;
          case Tok::Ne: op(Op::NE, e.line, e.col); return;
          default:
            // Unreachable from the parser; keep the compiler total.
            raise("AMG-INTERP-011", "bad operator", e.line, e.col, "");
            return;
        }
      }
      case Expr::Kind::Call: {
        for (const Arg& a : e.args) expr(*a.value);
        CallSite cs;
        cs.name = e.text;
        if (const BuiltinSig* sig = findBuiltin(e.text))
          cs.builtin = static_cast<int>(sig - builtinSignatures().data());
        cs.argc = static_cast<std::uint16_t>(e.args.size());
        cs.argNames.reserve(e.args.size());
        for (const Arg& a : e.args) cs.argNames.push_back(a.name ? *a.name : "");
        cs.line = e.line;
        cs.col = e.col;
        const auto c = static_cast<std::uint32_t>(ch_.calls.size());
        ch_.calls.push_back(std::move(cs));
        op(Op::CALL, e.line, e.col);
        word(c);
        return;
      }
    }
    raise("AMG-INTERP-011", "bad expression", e.line, e.col, "");
  }

  Chunk ch_;
  bool top_;
  std::vector<std::string> names_;  ///< named slots, params first
  std::unordered_map<std::uint64_t, std::uint32_t> numConst_;
  std::unordered_map<std::string, std::uint32_t> strConst_;
  int dirConst_[4] = {-1, -1, -1, -1};
  int curLine_ = -1, curCol_ = -1;
};

}  // namespace

std::shared_ptr<CompiledProgram> compile(const Program& prog) {
  auto out = std::make_shared<CompiledProgram>();
  out->top = BodyCompiler(true).finish(nullptr, prog.top);
  out->hasTop = !prog.top.empty();
  if (out->hasTop) {
    out->topLine = prog.top.front().line;
    out->topCol = prog.top.front().col;
  }
  for (const EntityDecl& e : prog.entities) {
    auto ce = std::make_shared<CompiledEntity>();
    ce->name = e.name;
    ce->line = e.line;
    ce->params.reserve(e.params.size());
    for (const auto& p : e.params)
      ce->params.push_back({p.name, p.optional, p.defaultValue != nullptr});
    ce->chunk = BodyCompiler(false).finish(&e.params, e.body);
    out->entities.push_back(std::move(ce));
  }
  return out;
}

// --------------------------------------------------------------------------
// Chunk cache
// --------------------------------------------------------------------------

namespace {

/// At most kChunkCacheCapacity programs (util/text_memo.h has the keying
/// and eviction rules).
util::TextMemo<CompiledProgram>& chunkCache() {
  static util::TextMemo<CompiledProgram> c(kChunkCacheCapacity);
  return c;
}

/// Run the bytecode verifier over every chunk of a freshly compiled
/// program and throw the first finding as a LangError.  A failure here is
/// a compiler bug (assert in debug builds): the compiler must only emit
/// bytecode the verifier accepts, because the VM runs nothing else.
void verifyOrThrow(const CompiledProgram& prog) {
  const analysis::ProgramVerification v = analysis::verifyProgram(prog);
  OBS_COUNT_N("vm.verify.chunks", 1 + prog.entities.size());
  if (v.ok()) return;
  OBS_COUNT("vm.verify.failures");
  assert(false && "freshly compiled chunk failed bytecode verification");
  throw LangError(v.diags.front());
}

}  // namespace

std::shared_ptr<const CompiledProgram> compileCached(const std::string& source) {
  // Keyed on the *raw* text: diagnostics and the line table depend on
  // comments/whitespace, so canonicalized sharing would corrupt locations.
  if (auto prog = chunkCache().find(source)) {
    OBS_COUNT("vm.chunk_cache.hits");
    return prog;
  }
  OBS_COUNT("vm.chunk_cache.misses");
  std::shared_ptr<CompiledProgram> prog;
  {
    obs::Span span("vm.compile");
    span.arg("bytes", static_cast<std::uint64_t>(source.size()));
    prog = compile(parseSource(source));
    span.arg("entities", static_cast<std::uint64_t>(prog->entities.size()));
    OBS_COUNT("vm.compile.programs");
  }
  // Compiler post-pass: verify before publication, then stamp the bits
  // the VM's entry check requires.  The program is still thread-private
  // here, so the writes need no synchronization.
  verifyOrThrow(*prog);
  prog->top.verified = true;
  for (auto& ce : prog->entities) ce->chunk.verified = true;
  bool evicted = false;
  auto held = chunkCache().insert(source, std::move(prog), evicted);
  if (evicted) OBS_COUNT("vm.chunk_cache.evictions");
  return held;
}

ChunkCacheStats chunkCacheStats() {
  const auto s = chunkCache().stats();
  return {s.hits, s.misses, s.evictions, s.entries};
}

void clearChunkCache() { chunkCache().clear(); }

// --------------------------------------------------------------------------
// Disassembler
// --------------------------------------------------------------------------

namespace {

void disasmOp(std::ostringstream& os, const Chunk& c, std::uint32_t& at,
              const DisasmAnnotator* annotate) {
  const Op o = static_cast<Op>(c.code[at]);
  os << "  " << std::setw(4) << std::setfill('0') << at << std::setfill(' ');
  if (annotate) os << " [" << std::setw(2) << (*annotate)(c, at) << "]";
  os << "  " << std::left << std::setw(13) << opName(o) << std::right;
  const int n = opOperands(o);
  std::uint32_t operands[2] = {0, 0};
  for (int i = 0; i < n; ++i) {
    operands[i] = c.code[at + 1 + static_cast<std::uint32_t>(i)];
    os << ' ' << std::setw(i ? 0 : 5) << operands[i];
  }
  if (n == 0) os << "      ";

  const auto slotName = [&](std::uint32_t s) -> std::string {
    if (s < c.slotNames.size()) return c.slotNames[s];
    return "t" + std::to_string(s);  // hidden loop temporary
  };
  switch (o) {
    case Op::CONST:
    case Op::LOAD_DYN:
    case Op::LOAD_GLOBAL:
    case Op::STORE_GLOBAL:
      os << "  ; " << c.constants[operands[0]].str();
      break;
    case Op::LOAD_SLOT:
    case Op::STORE_SLOT:
    case Op::LOAD_LOCAL:
    case Op::STORE_LOCAL:
    case Op::REQUIRE:
      os << "  ; " << slotName(operands[0]);
      break;
    case Op::JSET:
      os << "  ; " << slotName(operands[0]) << " set -> " << operands[1];
      break;
    case Op::FOR_TEST:
      os << "  ; " << slotName(operands[0]) << " > " << slotName(operands[0] + 1)
         << " -> " << operands[1];
      break;
    case Op::FOR_INC:
      os << "  ; " << slotName(operands[0]) << " -> " << operands[1];
      break;
    case Op::JUMP:
    case Op::JF:
      os << "  ; -> " << operands[0];
      break;
    case Op::CALL: {
      const CallSite& cs = c.calls[operands[0]];
      os << "  ; " << cs.name << "(" << cs.argc << " args)";
      if (cs.builtin >= 0) os << " [builtin #" << cs.builtin << "]";
      break;
    }
    case Op::VARIANT: {
      const VariantSite& vs = c.variants[operands[0]];
      os << "  ; " << vs.branches.size() << " branches"
         << (vs.rated ? ", rated" : "") << ", end " << vs.end;
      break;
    }
    case Op::RAISE:
      os << "  ; " << c.diags[operands[0]].code;
      break;
    default: break;
  }
  os << '\n';
  at += 1 + static_cast<std::uint32_t>(n);
}

void disasmChunk(std::ostringstream& os, const Chunk& c, std::string_view title,
                 const std::vector<std::string_view>* sourceLines,
                 const DisasmAnnotator* annotate = nullptr) {
  os << "== " << (title.empty() ? "chunk" : title) << " ("
     << c.code.size() << " words, " << c.constants.size() << " constants, "
     << c.slotCount << " slots) ==\n";
  int lastLine = 0;
  for (std::uint32_t at = 0; at < c.code.size();) {
    if (sourceLines) {
      const LineInfo li = c.lineAt(at);
      if (li.line > 0 && li.line != lastLine) {
        lastLine = li.line;
        os << std::setw(6) << li.line << " | ";
        if (static_cast<std::size_t>(li.line) <= sourceLines->size())
          os << (*sourceLines)[static_cast<std::size_t>(li.line) - 1];
        os << '\n';
      }
    }
    disasmOp(os, c, at, annotate);
  }
}

std::vector<std::string_view> splitLines(std::string_view source) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start <= source.size()) {
    const std::size_t nl = source.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.push_back(source.substr(start));
      break;
    }
    lines.push_back(source.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

std::string entityTitle(const CompiledEntity& e) {
  std::string t = "ENT " + e.name + "(";
  for (std::size_t i = 0; i < e.params.size(); ++i) {
    if (i) t += ", ";
    if (e.params[i].optional) t += "<" + e.params[i].name + ">";
    else t += e.params[i].name;
  }
  return t + ")";
}

std::string disasmProgram(const CompiledProgram& p,
                          const std::vector<std::string_view>* sourceLines,
                          const DisasmAnnotator* annotate = nullptr) {
  std::ostringstream os;
  if (p.hasTop) disasmChunk(os, p.top, "top-level", sourceLines, annotate);
  for (const auto& e : p.entities) {
    if (os.tellp() > 0) os << '\n';
    disasmChunk(os, e->chunk, entityTitle(*e), sourceLines, annotate);
  }
  return os.str();
}

}  // namespace

std::string disassemble(const Chunk& c, std::string_view title) {
  std::ostringstream os;
  disasmChunk(os, c, title, nullptr);
  return os.str();
}

std::string disassemble(const CompiledProgram& p) {
  return disasmProgram(p, nullptr);
}

std::string disassemble(const CompiledProgram& p, std::string_view source) {
  const auto lines = splitLines(source);
  return disasmProgram(p, &lines);
}

std::string disassemble(const CompiledProgram& p, std::string_view source,
                        const DisasmAnnotator& annotate) {
  const auto lines = splitLines(source);
  return disasmProgram(p, &lines, annotate ? &annotate : nullptr);
}

}  // namespace amg::lang
