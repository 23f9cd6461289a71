// Deterministic re-execution of recorded request traces.
//
// obs/recorder.h defines the AMGT format and knows nothing about the
// engines; this module is the bridge: it turns finished jobs into request
// records (EngineRecorder records whole engine runs) and turns a
// recorded trace back into jobs, re-runs them through a fresh
// gen::BatchEngine under the recorded — or overridden — configuration,
// and compares outcome digests request by request.
//
// Because generation is byte-identical across cache states by
// construction (caches warm vs cold vs disabled), a clean replay under an
// *overridden* configuration is a proof that the override preserves
// behavior on real traffic: `amg_replay --no-cache yesterday.amgt` must
// produce zero divergences or something changed.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "gen/job.h"
#include "obs/recorder.h"
#include "tech/tech.h"

namespace amg::gen {

/// The recordable outcome of a finished job (layout hash, shape count,
/// diag code, work counters — see obs::RequestOutcome for digest rules).
obs::RequestOutcome outcomeOf(const JobResult& r);

/// The full request record for a job: canonicalized source, sorted params.
obs::RequestRecord recordOf(const Job& job, const JobResult& r);

class BatchEngine;

/// An AMGT recording of a BatchEngine's runs: the one way batch_runner,
/// amg_serve and libamgen's amg_record_start() record.  The header names
/// the tool, the tech spec, the deck's fingerprint and the engine's two
/// cache-tier flags.  append() adds one record per job of a finished run
/// in submission order, whatever order the workers finished in.
/// Thread-safe (obs::Recorder is).
class EngineRecorder {
 public:
  /// Throws util::DiagError AMG-OBS-004 when `path` cannot be written.
  EngineRecorder(const std::string& path, std::string tool,
                 std::string techSpec, const BatchEngine& engine);

  void append(const std::vector<Job>& jobs, const BatchReport& report);
  std::size_t recordCount() const { return out_.recordCount(); }

 private:
  obs::Recorder out_;
};

/// The job a recorded request re-executes as (Script and Entity kinds;
/// External records cannot be rebuilt — replayTrace skips them).
Job jobOf(const obs::RequestRecord& rec);

/// Overrides applied on top of the recorded cache-tier configuration.
struct ReplayOptions {
  std::optional<bool> useCache;  ///< force the layout cache on/off
  bool noPrefixCache = false;    ///< force the prefix tier off
  std::size_t threads = 0;       ///< worker count; 0 = hardware
};

/// One request whose replayed outcome digest differs from the recording.
struct Divergence {
  std::size_t index = 0;  ///< position in the trace (0-based)
  std::string name;       ///< recorded request name
  std::uint64_t recordedDigest = 0;
  std::uint64_t replayedDigest = 0;
  obs::RequestOutcome recorded;
  obs::RequestOutcome replayed;
  /// The outcome fields that differ, digest-relevant and contextual alike:
  /// (field name, recorded value, replayed value).  diagCode differences
  /// are reported separately by the caller (string-valued).
  std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>> deltas()
      const;
};

struct ReplayReport {
  std::size_t total = 0;            ///< records in the trace
  std::size_t executed = 0;         ///< re-executed (Script/Entity kinds)
  std::size_t skippedExternal = 0;  ///< External records skipped
  std::size_t matched = 0;          ///< executed with identical digests
  std::vector<Divergence> divergences;  ///< in trace order
  double wallMs = 0;
  bool clean() const { return divergences.empty(); }
};

/// Re-execute `trace` under `tech` and compare digests.  The recorded
/// cache-tier configuration applies unless overridden.  Never throws for per-request failures — a request that
/// fails differently than recorded is a divergence, not an error.
ReplayReport replayTrace(const obs::TraceFile& trace,
                         const tech::Technology& tech,
                         const ReplayOptions& opt = {});

/// Compare two traces record-by-record without executing anything
/// (External records included) — for diffing two recorded runs of the
/// same workload (`amg_replay --against`).  Extra records in the longer
/// trace count as divergences against an empty outcome.
ReplayReport compareTraces(const obs::TraceFile& a, const obs::TraceFile& b);

}  // namespace amg::gen
