// e2e_bench: the end-to-end benchmark of the generator.
//
//   e2e_bench --workload sweep_cold|serve_edit|amplifier_flow --seed N
//             --seconds S --trace 0|1 [--write-refs] [--perturb-ref I]
//
// Each workload builds a fixed op list from the seed (its length scales
// with --seconds) and runs it kRounds times, each round after its own
// set-up, in a closed loop; setup_s is the median of kSetUps set-ups.  An
// op's latency is the median of its rounds.  Every execution is verified:
// the layout must be DRC-clean and its digest must match an independent
// reference.  The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Run it from the repository root; run.py builds and calls it.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common.h"

using namespace e2e;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload sweep_cold|serve_edit|amplifier_flow"
               " --seed N --seconds S --trace 0|1 [--write-refs]"
               " [--perturb-ref I]\n");
}

using Declared = std::vector<std::pair<std::string, std::string>>;

/// Every per-layer metric BENCHMARK.json declares, as (name, unit), in its
/// order.  A traced run reports all of them; a layer that does no work on
/// the workload reads 0 with 0 samples (the workload's predicted no-change
/// layers, e2ebench/README.md).
Declared declaredLayers(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const std::size_t from = json.find("\"per_layer\"");
  const std::size_t to = json.find(']', from);
  if (!in || from == std::string::npos || to == std::string::npos)
    throw std::runtime_error("no per_layer metrics in " + path);
  static const std::regex entry(R"(\{[^}]*\})");
  static const std::regex name(R"re("name"\s*:\s*"([^"]*)")re");
  static const std::regex unit(R"re("unit"\s*:\s*"([^"]*)")re");
  Declared out;
  const auto first = json.begin() + static_cast<std::ptrdiff_t>(from);
  const auto last = json.begin() + static_cast<std::ptrdiff_t>(to);
  for (std::sregex_iterator it(first, last, entry), end; it != end; ++it) {
    const std::string obj = it->str();
    std::smatch n, u;
    if (!std::regex_search(obj, n, name) || !std::regex_search(obj, u, unit))
      throw std::runtime_error("malformed per_layer entry in " + path + ": " + obj);
    out.emplace_back(n[1], u[1]);
  }
  return out;
}

/// The workload's per-layer metrics in declared order, zero-filled.
std::vector<Metric> allLayers(const Declared& declared, const std::vector<Metric>& measured) {
  for (const Metric& m : measured) {
    bool known = false;
    for (const auto& [name, unit] : declared) known |= m.name == name && m.unit == unit;
    if (!known) throw std::logic_error("layer metric " + m.name + " [" + m.unit +
                                       "] is not declared in BENCHMARK.json");
  }
  std::vector<Metric> out;
  for (const auto& [name, unit] : declared) {
    Metric m{name, 0, unit, 0};
    for (const Metric& x : measured)
      if (x.name == name) m = x;
    out.push_back(m);
  }
  return out;
}

std::string jsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void printResult(const Options& o, const Declared& layers, const Result& r) {
  std::size_t failed = 0;
  for (const Op& op : r.ops) failed += op.ok ? 0 : 1;
  const bool correct = !r.ops.empty() && failed == 0 && r.deterministic;

  std::vector<Metric> metrics;
  if (!o.trace) {
    double area = 0, totalMs = 0;
    for (const Op& op : r.ops) area += op.areaUm2;
    for (double ms : r.latencyMs) totalMs += ms;
    const Latency l = summarize(r.latencyMs);
    const std::size_t n = r.latencyMs.size();
    metrics = {
        {"setup_s", r.setupS, "s", kSetUps},
        {"ops_per_s", totalMs > 0 ? 1e3 * n / totalMs : 0, "1/s", n},
        {"latency_p50_ms", l.p50, "ms", n},
        {"latency_tail_ms", l.tail, "ms", n},
        {"peak_rss_mb", r.peakRssMb, "MB", kRounds},
        {"layout_area_um2", r.ops.empty() ? 0 : area / r.ops.size(), "um2", r.ops.size()},
    };
    std::fprintf(stderr,
                 "latency_tail_ms is p%g of %zu per-op medians over %d rounds"
                 " (%zu beyond it)\n",
                 l.tailPct, l.n, kRounds, l.beyond);
  } else {
    metrics = allLayers(layers, r.layer);
  }

  std::fprintf(stderr, "%-40s %16s %-8s %8s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics)
    std::fprintf(stderr, "%-40s %16.6g %-8s %8zu%s\n", m.name.c_str(), m.value,
                 m.unit.c_str(), m.samples, m.exact ? "  exact" : "");
  for (const std::string& n : r.notes) std::fprintf(stderr, "note: %s\n", n.c_str());
  std::size_t shown = 0;
  for (const Op& op : r.ops)
    if (!op.ok && shown++ < 5)
      std::fprintf(stderr, "FAILED op %s: %s\n", op.key.c_str(), op.why.c_str());

  // The exact counts, for steady.py's same-seed drift check; the result
  // line after it stays the last line.
  if (o.trace) {
    std::string exactLine = "exact:";
    for (const Metric& m : metrics)
      if (m.exact) exactLine += " " + m.name;
    std::printf("%s\n", exactLine.c_str());
  }

  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.ops.size());
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + jsonNumber(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool haveSeed = false, haveSeconds = false, haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool more = i + 1 < argc;
    if (a == "--workload" && more) o.workload = argv[++i];
    else if (a == "--seed" && more) o.seed = std::strtoull(argv[++i], nullptr, 10), haveSeed = true;
    else if (a == "--seconds" && more) o.seconds = std::atoi(argv[++i]), haveSeconds = true;
    else if (a == "--trace" && more) o.trace = std::atoi(argv[++i]) != 0, haveTrace = true;
    else if (a == "--write-refs") o.writeRefs = true;
    else if (a == "--perturb-ref" && more) o.perturbRef = std::atoi(argv[++i]);
    else {
      usage();
      return 2;
    }
  }
  if (o.workload.empty() || !haveSeed || !haveSeconds || !haveTrace || o.seconds < 1) {
    usage();
    return 2;
  }

  namespace fs = std::filesystem;
  o.repoDir = ".";
  o.refsDir = "e2ebench/refs";
  const std::string runRoot = ".bench_run";
  o.workDir = runRoot + "/" + o.workload + "-" + std::to_string(getpid());
  std::error_code ec;
  fs::remove_all(o.workDir, ec);
  fs::create_directories(o.workDir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", o.workDir.c_str(), ec.message().c_str());
    return 1;
  }

  Result r;
  Declared layers;
  try {
    layers = declaredLayers("BENCHMARK.json");
    if (o.workload == "sweep_cold") r = runSweepCold(o);
    else if (o.workload == "serve_edit") r = runServeEdit(o);
    else if (o.workload == "amplifier_flow") r = runAmplifierFlow(o);
    else {
      usage();
      fs::remove_all(o.workDir, ec);
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    fs::remove_all(o.workDir, ec);
    return 1;
  }
  fs::remove_all(o.workDir, ec);
  // Settle the file system here, so the journal and discard work for the
  // removed scratch files is paid by this run, not by the timed phase of
  // the next one.
  sync();

  if (o.writeRefs) {
    saveRefs(o, r);
    std::fprintf(stderr, "wrote %s/%s.txt\n", o.refsDir.c_str(), o.workload.c_str());
  } else {
    checkRefs(o, r);
  }
  try {
    printResult(o, layers, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
