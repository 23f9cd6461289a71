#include "gen/manifest.h"

#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace amg::gen {
namespace {

[[noreturn]] void fail(const char* code, std::string msg, std::string hint,
                       const std::string& file, int line) {
  util::Diag d;
  d.code = code;
  d.message = std::move(msg);
  d.loc.file = file;
  d.loc.line = line;
  d.hint = std::move(hint);
  throw util::DiagError(std::move(d));
}

std::vector<std::string> splitWords(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream ss(line);
  std::string w;
  while (ss >> w) {
    if (w[0] == '#') break;
    words.push_back(w);
  }
  return words;
}

/// A numeric sweep range lo:hi:step (inclusive of hi within tolerance).
struct Range {
  double lo = 0, hi = 0, step = 0;
};

/// Render a double the way the manifest grammar writes one (no trailing
/// zeros), for sweep-point job names and parameter values.
std::string numText(double v) {
  std::ostringstream ss;
  ss << v;
  return ss.str();
}

std::string joinPath(const std::string& baseDir, const std::string& path) {
  if (baseDir.empty() || path.empty() || path[0] == '/') return path;
  return baseDir + "/" + path;
}

class Parser {
 public:
  Parser(std::istream& in, std::string sourceName, std::string baseDir)
      : in_(in), name_(std::move(sourceName)), baseDir_(std::move(baseDir)) {}

  Manifest parse() {
    Manifest m;
    std::string line;
    int lineNo = 0;
    while (std::getline(in_, line)) {
      ++lineNo;
      const std::vector<std::string> words = splitWords(line);
      if (words.empty()) continue;
      const std::string& directive = words[0];
      if (directive == "tech") {
        if (words.size() != 2)
          fail("AMG-MAN-002", "tech takes exactly one value", "tech cmos2u",
               name_, lineNo);
        if (!m.techSpec.empty())
          fail("AMG-MAN-002", "duplicate tech directive",
               "a manifest names one technology", name_, lineNo);
        m.techSpec = words[1];
      } else if (directive == "job") {
        parseJob(words, lineNo, /*sweep=*/false, m.jobs);
      } else if (directive == "sweep") {
        parseJob(words, lineNo, /*sweep=*/true, m.jobs);
      } else {
        fail("AMG-MAN-001", "unknown directive '" + directive + "'",
             "expected tech, job or sweep", name_, lineNo);
      }
    }
    return m;
  }

 private:
  void parseJob(const std::vector<std::string>& words, int lineNo, bool sweep,
                std::vector<Job>& out) {
    Job base;
    std::vector<std::pair<std::string, Range>> ranges;
    for (std::size_t i = 1; i < words.size(); ++i) {
      const std::string& w = words[i];
      const std::size_t eq = w.find('=');
      if (eq == std::string::npos || eq == 0)
        fail("AMG-MAN-002", "expected key=value, got '" + w + "'",
             "job name=n1 script=scripts/diffpair.amg entity=DiffPair W=10",
             name_, lineNo);
      const std::string key = w.substr(0, eq);
      const std::string val = w.substr(eq + 1);
      if (key == "name") {
        base.name = val;
      } else if (key == "script") {
        base.scriptPath = joinPath(baseDir_, val);
      } else if (key == "entity") {
        base.entity = val;
      } else if (key == "result") {
        base.resultVar = val;
      } else if (sweep && val.find(':') != std::string::npos) {
        Range r;
        if (!parseRange(val, r))
          fail("AMG-MAN-003", "bad range '" + val + "' for parameter '" + key + "'",
               "ranges are lo:hi:step with step > 0, e.g. W=2:10:2", name_, lineNo);
        ranges.emplace_back(key, r);
      } else {
        base.params.emplace_back(key, val);
      }
    }
    if (base.name.empty())
      fail("AMG-MAN-002", "job is missing name=", "every job needs a unique name",
           name_, lineNo);
    if (base.scriptPath.empty())
      fail("AMG-MAN-002", "job '" + base.name + "' is missing script=",
           "point script= at a .amg file", name_, lineNo);
    if (base.entity.empty() && !base.params.empty())
      fail("AMG-MAN-002",
           "job '" + base.name + "' passes parameters without entity=",
           "script-mode jobs take no parameters; add entity=<Ent> to bind them",
           name_, lineNo);
    if (sweep && ranges.empty())
      fail("AMG-MAN-003", "sweep '" + base.name + "' has no ranged parameter",
           "give at least one k=lo:hi:step range (or use job)", name_, lineNo);

    base.script = readScript(base.scriptPath, lineNo);
    if (!sweep) {
      addJob(std::move(base), lineNo, out);
      return;
    }
    // Cartesian grid over every range, in declaration order.
    std::vector<double> point(ranges.size());
    expand(base, ranges, 0, point, lineNo, out);
  }

  bool parseRange(const std::string& val, Range& r) {
    const std::size_t c1 = val.find(':');
    const std::size_t c2 = val.find(':', c1 + 1);
    if (c2 == std::string::npos || val.find(':', c2 + 1) != std::string::npos)
      return false;
    const auto lo = numericParam(val.substr(0, c1));
    const auto hi = numericParam(val.substr(c1 + 1, c2 - c1 - 1));
    const auto step = numericParam(val.substr(c2 + 1));
    if (!lo || !hi || !step) return false;
    r = Range{*lo, *hi, *step};
    return r.step > 0 && r.hi >= r.lo;
  }

  void expand(const Job& base, const std::vector<std::pair<std::string, Range>>& ranges,
              std::size_t dim, std::vector<double>& point, int lineNo,
              std::vector<Job>& out) {
    if (dim == ranges.size()) {
      Job j = base;
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        const std::string v = numText(point[i]);
        j.name += "_" + ranges[i].first + v;
        j.params.emplace_back(ranges[i].first, v);
      }
      addJob(std::move(j), lineNo, out);
      return;
    }
    const Range& r = ranges[dim].second;
    // The epsilon admits hi itself despite accumulated float error.
    for (double v = r.lo; v <= r.hi + r.step * 1e-9; v += r.step) {
      point[dim] = v;
      expand(base, ranges, dim + 1, point, lineNo, out);
    }
  }

  void addJob(Job j, int lineNo, std::vector<Job>& out) {
    if (!names_.insert(j.name).second)
      fail("AMG-MAN-004", "duplicate job name '" + j.name + "'",
           "job names key the report; make them unique", name_, lineNo);
    out.push_back(std::move(j));
  }

  std::string readScript(const std::string& path, int lineNo) {
    const auto it = scripts_.find(path);
    if (it != scripts_.end()) return it->second;
    std::ifstream f(path);
    if (!f)
      fail("AMG-MAN-005", "cannot open script '" + path + "'",
           "script paths resolve relative to the manifest file", name_, lineNo);
    std::stringstream ss;
    ss << f.rdbuf();
    return scripts_.emplace(path, ss.str()).first->second;
  }

  std::istream& in_;
  std::string name_;
  std::string baseDir_;
  std::set<std::string> names_;
  std::map<std::string, std::string> scripts_;
};

}  // namespace

Manifest parseManifest(std::istream& in, const std::string& sourceName,
                       const std::string& baseDir) {
  return Parser(in, sourceName, baseDir).parse();
}

Manifest parseManifestString(const std::string& text, const std::string& sourceName,
                             const std::string& baseDir) {
  std::istringstream ss(text);
  return parseManifest(ss, sourceName, baseDir);
}

Manifest loadManifest(const std::string& path) {
  std::ifstream f(path);
  if (!f)
    fail("AMG-MAN-005", "cannot open manifest '" + path + "'",
         "pass the manifest path as the positional argument", path, 0);
  const std::size_t slash = path.find_last_of('/');
  const std::string baseDir = slash == std::string::npos ? "" : path.substr(0, slash);
  return parseManifest(f, path, baseDir);
}

}  // namespace amg::gen
