#include "tech/techfile.h"

#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "tech/builtin.h"
#include "util/diag.h"

namespace amg::tech {
namespace {

/// Structured parse failure: every techfile diagnostic carries the file
/// name, the 1-based line, a stable AMG-TECH-* code, and a hint.
[[noreturn]] void fail(std::string code, std::string msg, const std::string& file,
                       int line, std::string hint) {
  throw util::DiagError(util::Diag{std::move(code), std::move(msg),
                                   {file, line, 0}, std::move(hint)});
}

LayerKind kindFromName(const std::string& s, const std::string& file, int line) {
  static const std::map<std::string, LayerKind> kKinds = {
      {"well", LayerKind::Well},         {"diffusion", LayerKind::Diffusion},
      {"poly", LayerKind::Poly},         {"metal", LayerKind::Metal},
      {"cut", LayerKind::Cut},           {"implant", LayerKind::Implant},
      {"marker", LayerKind::Marker},
  };
  auto it = kKinds.find(s);
  if (it == kKinds.end())
    fail("AMG-TECH-004", "unknown layer kind '" + s + "'", file, line,
         "kinds are: well diffusion poly metal cut implant marker");
  return it->second;
}

const char* kindName(LayerKind k) {
  switch (k) {
    case LayerKind::Well: return "well";
    case LayerKind::Diffusion: return "diffusion";
    case LayerKind::Poly: return "poly";
    case LayerKind::Metal: return "metal";
    case LayerKind::Cut: return "cut";
    case LayerKind::Implant: return "implant";
    case LayerKind::Marker: return "marker";
  }
  return "marker";
}

// Splits a line into whitespace-separated tokens.  A '#' starts a comment
// only at the beginning of a token, so colour values like "color=#4f6fcf"
// survive.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    if (tok.front() == '#') break;
    out.push_back(tok);
  }
  return out;
}

Coord parseValue(const std::string& s, const std::string& file, int line) {
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return static_cast<Coord>(v);
  } catch (const std::exception&) {
    fail("AMG-TECH-005", "expected an integer rule value, got '" + s + "'", file,
         line, "rule values are whole nanometres (unit nm)");
  }
}

// Parses "key=value" attributes of a layer directive.
std::optional<std::string> attr(const std::vector<std::string>& toks,
                                const std::string& key) {
  const std::string prefix = key + "=";
  for (const auto& t : toks)
    if (t.rfind(prefix, 0) == 0) return t.substr(prefix.size());
  return std::nullopt;
}

}  // namespace

Technology parseTechFile(std::istream& in, const std::string& sourceName) {
  std::optional<Technology> tech;
  std::string line;
  int lineNo = 0;

  auto need = [&](const std::vector<std::string>& toks, std::size_t n) {
    if (toks.size() < n)
      fail("AMG-TECH-002",
           "directive '" + toks[0] + "' needs " + std::to_string(n - 1) +
               " arguments",
           sourceName, lineNo, "see docs/TECHFILE.md for every directive's form");
  };
  auto techRef = [&]() -> Technology& {
    if (!tech)
      fail("AMG-TECH-003", "'tech <name>' must be the first directive", sourceName,
           lineNo, "start the file with a line like 'tech mytech'");
    return *tech;
  };
  // Resolve a layer name, turning the unknown-layer DesignRuleError into a
  // located diagnostic.
  auto layerRef = [&](const std::string& name) -> LayerId {
    try {
      return techRef().layer(name);
    } catch (const DesignRuleError&) {
      fail("AMG-TECH-006", "unknown layer '" + name + "'", sourceName, lineNo,
           "declare it with a 'layer " + name + " <kind> ...' directive first");
    }
  };

  while (std::getline(in, line)) {
    ++lineNo;
    const auto toks = tokenize(line);
    if (toks.empty()) continue;
    const std::string& cmd = toks[0];

    if (cmd == "tech") {
      need(toks, 2);
      if (tech)
        fail("AMG-TECH-003", "duplicate 'tech' directive", sourceName, lineNo,
             "a deck declares its name exactly once");
      tech.emplace(toks[1]);
    } else if (cmd == "unit") {
      need(toks, 2);
      if (toks[1] != "nm")
        fail("AMG-TECH-003", "only 'unit nm' is supported", sourceName, lineNo,
             "express rule values in nanometres and declare 'unit nm'");
    } else if (cmd == "layer") {
      need(toks, 3);
      LayerInfo li;
      li.name = toks[1];
      li.kind = kindFromName(toks[2], sourceName, lineNo);
      if (auto v = attr(toks, "cif"))
        li.cifId = static_cast<int>(parseValue(*v, sourceName, lineNo));
      li.color = attr(toks, "color").value_or("#888888");
      li.pattern = attr(toks, "pattern").value_or("solid");
      for (const auto& t : toks)
        if (t == "conducting") li.conducting = true;
      techRef().addLayer(std::move(li));
    } else if (cmd == "width") {
      need(toks, 3);
      techRef().setMinWidth(layerRef(toks[1]), parseValue(toks[2], sourceName, lineNo));
    } else if (cmd == "space") {
      need(toks, 4);
      techRef().setMinSpacing(layerRef(toks[1]), layerRef(toks[2]),
                              parseValue(toks[3], sourceName, lineNo));
    } else if (cmd == "enclose") {
      need(toks, 4);
      techRef().setEnclosure(layerRef(toks[1]), layerRef(toks[2]),
                             parseValue(toks[3], sourceName, lineNo));
    } else if (cmd == "extend") {
      need(toks, 4);
      techRef().setExtension(layerRef(toks[1]), layerRef(toks[2]),
                             parseValue(toks[3], sourceName, lineNo));
    } else if (cmd == "cutsize") {
      need(toks, 4);
      techRef().setCutSize(layerRef(toks[1]), parseValue(toks[2], sourceName, lineNo),
                           parseValue(toks[3], sourceName, lineNo));
    } else if (cmd == "connect") {
      need(toks, 4);
      techRef().addCutConnection(layerRef(toks[1]), layerRef(toks[2]),
                                 layerRef(toks[3]));
    } else if (cmd == "latchup") {
      need(toks, 2);
      techRef().setLatchUpRadius(parseValue(toks[1], sourceName, lineNo));
    } else if (cmd == "guard") {
      need(toks, 2);
      techRef().setGuardLayer(layerRef(toks[1]));
    } else if (cmd == "tie") {
      need(toks, 2);
      techRef().setSubstrateTieLayer(layerRef(toks[1]));
    } else {
      fail("AMG-TECH-001", "unknown directive '" + cmd + "'", sourceName, lineNo,
           "directives: tech unit layer width space enclose extend cutsize "
           "connect latchup guard tie (docs/TECHFILE.md)");
    }
  }

  if (!tech)
    fail("AMG-TECH-003", "empty technology file", sourceName, 0,
         "a deck needs at least a 'tech <name>' directive");
  return std::move(*tech);
}

Technology parseTechString(const std::string& text, const std::string& sourceName) {
  std::istringstream is(text);
  return parseTechFile(is, sourceName);
}

Technology loadTechFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    util::Diag d;
    d.code = "AMG-TECH-007";
    d.message = "cannot open technology file '" + path + "'";
    d.loc.file = path;
    d.hint = "check the path; shipped decks live in tech/";
    throw util::DiagError(std::move(d));
  }
  return parseTechFile(f, path);
}

std::shared_ptr<const Technology> resolveTech(const std::string& spec) {
  if (spec.empty() || spec == "bicmos1u")
    return std::shared_ptr<const Technology>(std::shared_ptr<void>(), &bicmos1u());
  if (spec == "cmos2u")
    return std::shared_ptr<const Technology>(std::shared_ptr<void>(), &cmos2u());
  return std::make_shared<const Technology>(loadTechFile(spec));
}

std::string saveTechFile(const Technology& t) {
  std::ostringstream os;
  os << "tech " << t.name() << "\n";
  os << "unit nm\n";
  const auto n = static_cast<LayerId>(t.layerCount());
  for (LayerId l = 0; l < n; ++l) {
    const LayerInfo& li = t.info(l);
    os << "layer " << li.name << ' ' << kindName(li.kind) << " cif=" << li.cifId
       << " color=" << li.color << " pattern=" << li.pattern
       << (li.conducting ? " conducting" : "") << "\n";
  }
  for (LayerId l = 0; l < n; ++l) {
    const LayerInfo& li = t.info(l);
    if (li.kind == LayerKind::Cut) {
      const auto [w, h] = t.cutSize(l);
      os << "cutsize " << li.name << ' ' << w << ' ' << h << "\n";
    } else if (auto w = t.findMinWidth(l)) {
      os << "width " << li.name << ' ' << *w << "\n";
    }
  }
  for (LayerId a = 0; a < n; ++a)
    for (LayerId b = a; b < n; ++b)
      if (auto s = t.minSpacing(a, b))
        os << "space " << t.info(a).name << ' ' << t.info(b).name << ' ' << *s << "\n";
  for (LayerId a = 0; a < n; ++a)
    for (LayerId b = 0; b < n; ++b) {
      if (auto e = t.enclosure(a, b))
        os << "enclose " << t.info(a).name << ' ' << t.info(b).name << ' ' << *e << "\n";
      if (auto e = t.extension(a, b))
        os << "extend " << t.info(a).name << ' ' << t.info(b).name << ' ' << *e << "\n";
    }
  for (LayerId l = 0; l < n; ++l)
    for (const auto& [a, b] : t.cutConnections(l))
      os << "connect " << t.info(l).name << ' ' << t.info(a).name << ' '
         << t.info(b).name << "\n";
  if (t.latchUpRadius() > 0) os << "latchup " << t.latchUpRadius() << "\n";
  if (t.guardLayer() != kNoLayer) os << "guard " << t.info(t.guardLayer()).name << "\n";
  if (t.substrateTieLayer() != kNoLayer)
    os << "tie " << t.info(t.substrateTieLayer()).name << "\n";
  return os.str();
}

}  // namespace amg::tech
