// Shared result-file writer for the benches: every bench emits the same
// schema instead of hand-rolling fprintf JSON.
//
//   {"bench": "<name>",
//    "samples": [{"workload": ..., "n": ..., "engine": ..., "wall_ms": ...}, ...],
//    <flags...>, <metrics...>,
//    "stats": {"counters": {...}, "histograms": {...}}}
//
// The stats block is included only when counters were enabled.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace amg::obs {

class StatsWriter {
 public:
  explicit StatsWriter(std::string benchName) : bench_(std::move(benchName)) {}

  /// One timed sample: which workload, its size, which engine ran it, and
  /// the wall time.
  void sample(std::string workload, std::uint64_t n, std::string engine,
              double wallMs);

  /// A top-level boolean result (e.g. "identical_results").
  void flag(std::string key, bool value);
  /// A top-level numeric result.
  void metric(std::string key, double value);

  /// Write the file; returns false when it cannot be opened.
  bool write(const std::string& path) const;

 private:
  struct Sample {
    std::string workload;
    std::uint64_t n;
    std::string engine;
    double wallMs;
  };

  std::string bench_;
  std::vector<Sample> samples_;
  std::vector<std::pair<std::string, bool>> flags_;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace amg::obs
