#include "obs/stats_writer.h"

#include <cstdio>

#include "obs/json.h"
#include "obs/obs.h"

namespace amg::obs {

void StatsWriter::sample(std::string workload, std::uint64_t n, std::string engine,
                         double wallMs) {
  samples_.push_back(Sample{std::move(workload), n, std::move(engine), wallMs});
}

void StatsWriter::flag(std::string key, bool value) {
  flags_.emplace_back(std::move(key), value);
}

void StatsWriter::metric(std::string key, double value) {
  metrics_.emplace_back(std::move(key), value);
}

bool StatsWriter::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;

  JsonWriter w(f);
  w.beginObject();
  w.field("bench", bench_);
  w.beginArray("samples");
  for (const Sample& s : samples_) {
    w.beginObject();
    w.field("workload", s.workload);
    w.field("n", s.n);
    w.field("engine", s.engine);
    w.field("wall_ms", s.wallMs);
    w.end();
  }
  w.end();
  for (const auto& [key, v] : flags_) w.field(key.c_str(), v);
  for (const auto& [key, v] : metrics_) w.field(key.c_str(), v);

  if (statsEnabled()) {
    const Stats& st = Stats::global();
    w.beginObject("stats");
    w.beginObject("counters");
    for (const auto& [name, v] : st.counters()) w.field(name.c_str(), v);
    w.end();
    w.beginObject("histograms");
    for (const auto& [name, s] : st.histograms()) {
      w.beginObject(name.c_str());
      w.field("count", s.count);
      w.field("sum", s.sum);
      w.field("min", s.min);
      w.field("max", s.max);
      w.field("p50", s.p50);
      w.field("p95", s.p95);
      w.field("p99", s.p99);
      w.end();
    }
    w.end();
    w.end();
  }

  w.end();
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

}  // namespace amg::obs
