#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "io/layout.h"
#include "util/hash.h"

namespace e2e {

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

int Rng::below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }

std::vector<double> stratifiedLogUniform(Rng& rng, int n, double lo, double hi) {
  std::vector<double> v;
  v.reserve(n);
  const double a = std::log(lo), w = (std::log(hi) - a) / n;
  for (int i = 0; i < n; ++i) v.push_back(std::exp(a + w * (i + rng.uniform())));
  return v;
}

std::string decimal(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

void medianOverRounds(const std::vector<std::vector<double>>& perRound, Result& r) {
  r.latencyMs.clear();
  for (std::size_t i = 0; !perRound.empty() && i < perRound[0].size(); ++i) {
    std::vector<double> v;
    for (const auto& round : perRound) v.push_back(round[i]);
    r.latencyMs.push_back(median(v));
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Latency summarize(std::vector<double> ms) {
  Latency l;
  l.n = ms.size();
  if (ms.empty()) return l;
  std::sort(ms.begin(), ms.end());
  auto rank = [&](double pct) {
    const auto r = static_cast<std::size_t>(std::ceil(pct / 100.0 * l.n));
    return std::clamp<std::size_t>(r, 1, l.n) - 1;
  };
  l.p50 = ms[rank(50)];
  for (double pct : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0}) {
    const std::size_t r = rank(pct);
    if (l.n - 1 - r >= 10 || pct == 50.0) {
      l.tail = ms[r];
      l.tailPct = pct;
      l.beyond = l.n - 1 - r;
      break;
    }
  }
  return l;
}

double peakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

std::uint64_t digestOf(const std::vector<std::uint8_t>& bytes) {
  return amg::util::fnv1a(
      std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

std::uint64_t digestOf(const amg::db::Module& m) {
  return digestOf(amg::io::serializeLayout(m));
}

double areaUm2(const amg::db::Module& m) {
  const amg::Box b = m.bbox();
  return static_cast<double>(b.width()) * static_cast<double>(b.height()) / 1e6;
}

int SpanLog::begin(const std::string& name, int op) {
  if (!enabled) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, msSince(t0_), 0, parent, op});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::end(int idx) {
  if (idx < 0) return;
  spans_[idx].endMs = msSince(t0_);
  while (!open_.empty() && open_.back() >= idx) open_.pop_back();
}

std::map<std::string, SpanLog::Roll> SpanLog::rollup() const {
  std::vector<double> childMs(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0) childMs[s.parent] += s.endMs - s.startMs;
  std::map<std::string, Roll> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Roll& r = out[spans_[i].name];
    const double d = spans_[i].endMs - spans_[i].startMs;
    r.count++;
    r.totalMs += d;
    r.selfMs += d - childMs[i];
  }
  return out;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  // Chrome trace-event JSON, one complete event per span.
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"parent\":%d}}",
                 i ? "," : "", s.name.c_str(), s.startMs * 1e3,
                 (s.endMs - s.startMs) * 1e3, s.op, s.parent);
  }
  std::fprintf(f, "\n],\n\"rollup\":{");
  bool first = true;
  for (const auto& [name, r] : rollup()) {
    std::fprintf(f, "%s\n\"%s\":{\"count\":%zu,\"total_ms\":%.3f,\"self_ms\":%.3f}",
                 first ? "" : ",", name.c_str(), r.count, r.totalMs, r.selfMs);
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

std::string exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void fail(Op& op, const std::string& why) {
  if (op.ok || op.why.empty()) op.why = why;
  op.ok = false;
}

namespace {

std::string refsPath(const Options& o) { return o.refsDir + "/" + o.workload + ".txt"; }

std::string refsHeader(const Options& o) {
  return "seed " + std::to_string(o.seed) + " seconds " + std::to_string(o.seconds);
}

double meanArea(const Result& r) {
  double sum = 0;
  for (const Op& op : r.ops) sum += op.areaUm2;
  return r.ops.empty() ? 0 : sum / r.ops.size();
}

}  // namespace

Refs loadRefs(const Options& o) {
  Refs refs;
  std::ifstream in(refsPath(o));
  std::string line;
  if (!in || !std::getline(in, line) || line != refsHeader(o)) return refs;
  refs.present = true;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag, a, b;
    ls >> tag >> a >> b;
    if (tag == "op") refs.ops[a] = std::stoull(b, nullptr, 16);
    else if (tag == "area") refs.area = a;
    else if (tag == "count") refs.counts[a] = b;
  }
  return refs;
}

void saveRefs(const Options& o, const Result& r) {
  // Untraced runs record digests and the area, traced runs the exact
  // counts; each keeps what the other recorded.
  Refs refs = loadRefs(o);
  for (const Op& op : r.ops) refs.ops[op.key] = op.digest;
  if (!o.trace) refs.area = exact(meanArea(r));
  for (const Metric& m : r.layer)
    if (m.exact) refs.counts[m.name] = exact(m.value);
  std::ofstream out(refsPath(o));
  out << refsHeader(o) << "\n";
  for (const auto& [key, digest] : refs.ops) out << "op " << key << " " << hex(digest) << "\n";
  if (!refs.area.empty()) out << "area " << refs.area << "\n";
  for (const auto& [name, value] : refs.counts) out << "count " << name << " " << value << "\n";
}

void checkRefs(const Options& o, Result& r) {
  Refs refs = loadRefs(o);
  if (!refs.present) {
    r.notes.push_back("no committed reference digests for " + refsHeader(o));
    return;
  }
  if (o.perturbRef >= 0 && o.perturbRef < static_cast<int>(r.ops.size())) {
    const auto it = refs.ops.find(r.ops[o.perturbRef].key);
    if (it != refs.ops.end()) it->second ^= 1;
  }
  for (Op& op : r.ops) {
    const auto it = refs.ops.find(op.key);
    if (it == refs.ops.end())
      fail(op, "op " + op.key + " is not in the committed reference");
    else if (it->second != op.digest)
      fail(op, "digest " + hex(op.digest) + " != reference " + hex(it->second));
  }
  if (!o.trace && refs.area != exact(meanArea(r))) {
    r.deterministic = false;
    r.notes.push_back("layout_area_um2 " + exact(meanArea(r)) + " drifted from reference " +
                      refs.area);
  }
  for (const Metric& m : r.layer) {
    if (!m.exact) continue;
    const auto it = refs.counts.find(m.name);
    if (it != refs.counts.end() && it->second != exact(m.value)) {
      r.deterministic = false;
      r.notes.push_back(m.name + " " + exact(m.value) + " drifted from reference " +
                        it->second);
    }
  }
}

}  // namespace e2e
