#include "lang/interp.h"

#include <algorithm>
#include <sstream>

#include "lang/compiler.h"
#include "lang/vm.h"

namespace amg::lang {

// --------------------------------------------------------------------------
// Value
// --------------------------------------------------------------------------

Value Value::number(double v) {
  Value x;
  x.kind_ = Kind::Number;
  x.num_ = v;
  return x;
}

Value Value::string(std::string s) {
  Value x;
  x.kind_ = Kind::String;
  x.str_ = std::move(s);
  return x;
}

Value Value::direction(Dir d) {
  Value x;
  x.kind_ = Kind::Dir;
  x.dir_ = d;
  return x;
}

Value Value::object(db::Module m) {
  Value x;
  x.kind_ = Kind::Object;
  x.obj_ = std::make_shared<const db::Module>(std::move(m));
  return x;
}

double Value::asNumber() const {
  if (kind_ != Kind::Number) throw Error("value is not a number: " + str());
  return num_;
}

const std::string& Value::asString() const {
  if (kind_ != Kind::String) throw Error("value is not a string: " + str());
  return str_;
}

Dir Value::asDir() const {
  if (kind_ != Kind::Dir) throw Error("value is not a direction: " + str());
  return dir_;
}

const db::Module& Value::asObject() const {
  if (kind_ != Kind::Object) throw Error("value is not a layout object: " + str());
  return *obj_;
}

Value Value::deepCopy() const {
  if (kind_ != Kind::Object) return *this;
  return object(db::Module(*obj_));
}

std::string Value::str() const {
  switch (kind_) {
    case Kind::None: return "<unset>";
    case Kind::Number: {
      std::ostringstream os;
      os << num_;
      return os.str();
    }
    case Kind::String: return "\"" + str_ + "\"";
    case Kind::Dir: return dirName(dir_);
    case Kind::Object:
      return "<object " + obj_->name() + ", " + std::to_string(obj_->shapeCount()) +
             " rects>";
  }
  return "?";
}

// --------------------------------------------------------------------------
// Interpreter facade
// --------------------------------------------------------------------------

Interpreter::Interpreter(const tech::Technology& tech) : tech_(&tech) {}

namespace {

/// Stamp the script's file name onto a LangError that escaped the
/// lexer/parser/VM (their internals only know line/col).
[[noreturn]] void rethrowWithFile(const LangError& e, const std::string& file) {
  util::Diag d = e.diag();
  if (d.loc.file.empty()) d.loc.file = file;
  throw LangError(std::move(d));
}

}  // namespace

void Interpreter::registerCompiled(const CompiledProgram& prog,
                                   const std::string& sourceName) {
  vmEntities_.reserve(vmEntities_.size() + prog.entities.size());
  for (const auto& ce : prog.entities) {
    // Later declarations shadow earlier ones (remove the old).
    if (!vmEntities_.empty())
      vmEntities_.erase(
          std::remove_if(
              vmEntities_.begin(), vmEntities_.end(),
              [&](const VmEntity& x) { return x.ce->name == ce->name; }),
          vmEntities_.end());
    vmEntities_.push_back({ce, sourceName});
  }
}

const Interpreter::VmEntity* Interpreter::findVmEntity(
    const std::string& name) const {
  for (const VmEntity& e : vmEntities_)
    if (e.ce->name == name) return &e;
  return nullptr;
}

void Interpreter::run(const std::string& source, const std::string& sourceName) {
  try {
    const auto prog = compileCached(source);
    registerCompiled(*prog, sourceName);
    VM vm(*this);
    vm.execTop(prog->top);
  } catch (const LangError& e) {
    rethrowWithFile(e, sourceName);
  }
}

void Interpreter::load(const std::string& source, const std::string& sourceName) {
  try {
    const auto prog = compileCached(source);
    if (prog->hasTop)
      throw LangError(util::Diag{
          "AMG-INTERP-013", "load(): script has top-level statements; use run()",
          {"", prog->topLine, prog->topCol},
          "load() registers entities only; move the calling sequence to run()"});
    registerCompiled(*prog, sourceName);
  } catch (const LangError& e) {
    rethrowWithFile(e, sourceName);
  }
}

void Interpreter::loadEntities(const std::string& source,
                               const std::string& sourceName) {
  try {
    const auto prog = compileCached(source);
    registerCompiled(*prog, sourceName);
  } catch (const LangError& e) {
    rethrowWithFile(e, sourceName);
  }
}

db::Module Interpreter::instantiate(
    const std::string& entity, const std::vector<std::pair<std::string, Value>>& args) {
  const VmEntity* ve = findVmEntity(entity);
  if (!ve) {
    util::Diag d;
    d.code = "AMG-INTERP-002";
    d.message = "unknown entity '" + entity + "'";
    d.hint = "load a script declaring it first";
    throw LangError(std::move(d));
  }
  VM vm(*this);
  try {
    return vm.instantiate(*ve->ce, args, ve->ce->line);
  } catch (const LangError& e) {
    rethrowWithFile(e, ve->file);
  }
}

const Value* Interpreter::global(const std::string& name) const {
  const auto it = globals_.find(name);
  return it == globals_.end() ? nullptr : &it->second;
}

const db::Module& Interpreter::globalObject(const std::string& name) const {
  const Value* v = global(name);
  if (!v) throw Error("script did not define '" + name + "'");
  return v->asObject();
}

db::Module runScript(const tech::Technology& tech, const std::string& source,
                     const std::string& resultVar) {
  Interpreter in(tech);
  in.run(source);
  return in.globalObject(resultVar);
}

}  // namespace amg::lang
