// Deterministic request recording: the versioned "AMGT" trace format.
//
// Generation is deterministic and byte-identical across every cache tier
// and worker count — so a trace of what a run was *asked to do* plus a digest of what it *produced* is a complete
// regression oracle: re-execute the requests (amg_replay), compare
// digests, and any behavior change in the engine or a cache tier shows up as
// a divergence on yesterday's traffic.
//
// One trace file = one header (tool, technology identity, cache-tier
// configuration) + a flat sequence of request records until EOF, all
// little-endian via util/wire.h.  A record carries everything needed to
// re-execute the request (canonicalized script source, or entity + sorted
// params) and the outcome it produced (layout FNV-1a, shape count, AMG-*
// diag code, key gen.* counters, wall time).
//
// This layer is deliberately dumb: plain strings and integers, no
// dependency on gen/lang/tech/db.  The batch engine and the CLIs build
// records (gen/replay.h has the helpers); amg_replay consumes them.
//
// Error codes (util/diag.h registry):
//   AMG-OBS-001  not an AMGT trace (bad magic)
//   AMG-OBS-002  unsupported trace version
//   AMG-OBS-003  truncated or corrupt trace
//   AMG-OBS-004  trace file cannot be written
//   AMG-OBS-005  trace file cannot be read
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace amg::obs {

/// How a recorded request can be re-executed.
enum class RequestKind : std::uint8_t {
  Script = 0,   ///< run `script`, take result variable `resultVar`
  Entity = 1,   ///< instantiate `entity` from `script` with `params`
  External = 2  ///< not re-executable (e.g. the full_flow C++ pipeline);
                ///< replay skips it, `amg_replay --against` still diffs it
};

/// Trace-wide context: which tool recorded, under what technology and
/// cache-tier configuration.  Replay restores this configuration unless
/// overridden on the amg_replay command line.
struct TraceHeader {
  std::string tool;          ///< "batch_runner", "dsl_runner", "full_flow"
  std::string techSpec;      ///< the --tech spec used (name or path)
  std::uint64_t techFingerprint = 0;  ///< tech::Technology::contentFingerprint()
  bool cacheEnabled = true;        ///< whole-layout cache tier
  bool prefixCacheEnabled = true;  ///< compactor-prefix cache tier
};

/// What a request produced.  The *digest fields* (ok, rejected,
/// layoutHash, shapeCount, diagCode) define behavioral identity; the rest
/// (cacheHit, counters, wallMs) are context for divergence reports —
/// deliberately excluded from the digest so a replay that hits a warm
/// cache where the recording ran cold still matches.
struct RequestOutcome {
  bool ok = false;
  bool cacheHit = false;
  bool rejected = false;
  std::uint64_t layoutHash = 0;  ///< FNV-1a over serializeLayout() bytes
  std::uint64_t shapeCount = 0;
  std::string diagCode;          ///< stable AMG-* code when !ok, else empty
  std::uint64_t prefixRestored = 0;
  std::uint64_t statements = 0;
  std::uint64_t entityCalls = 0;
  std::uint64_t compactions = 0;
  std::uint64_t variantRollbacks = 0;
  double wallMs = 0.0;
};

/// One recorded request: identity + everything needed to re-execute it.
struct RequestRecord {
  RequestKind kind = RequestKind::Script;
  std::string name;        ///< job/request display name
  std::string scriptPath;  ///< provenance only (replay uses `script`)
  std::string script;      ///< canonicalized DSL source
  std::string entity;      ///< Entity kind: entity to instantiate
  std::string resultVar;   ///< Script kind: global holding the result
  std::vector<std::pair<std::string, std::string>> params;  ///< sorted by key
  RequestOutcome outcome;
};

struct TraceFile {
  TraceHeader header;
  std::vector<RequestRecord> requests;
};

/// The behavioral digest of an outcome (see RequestOutcome).  Chained
/// FNV-1a; stable across platforms and cache states.
std::uint64_t outcomeDigest(const RequestOutcome& o);

/// In-memory (de)serialization of a whole trace.  deserializeTrace throws
/// util::DiagError AMG-OBS-001/002/003.
std::vector<std::uint8_t> serializeTrace(const TraceFile& t);
TraceFile deserializeTrace(const std::vector<std::uint8_t>& bytes);

/// File helpers: AMG-OBS-004 when unwritable, AMG-OBS-005 when unreadable.
void writeTraceFile(const TraceFile& t, const std::string& path);
TraceFile readTraceFile(const std::string& path);

/// Streaming writer: opens the file and writes the header up front, then
/// appends one record at a time (flushed per record, so a crashed run
/// leaves a readable prefix).  Thread-safe.  The byte stream is identical
/// to writeTraceFile() over the same records.
class Recorder {
 public:
  /// Throws util::DiagError AMG-OBS-004 when the file cannot be opened.
  Recorder(std::string path, TraceHeader header);

  void append(const RequestRecord& r);

  const TraceHeader& header() const { return header_; }
  const std::string& path() const { return path_; }
  std::size_t recordCount() const;

 private:
  std::string path_;
  TraceHeader header_;
  mutable std::mutex mu_;
  std::ofstream out_;
  std::size_t count_ = 0;
};

}  // namespace amg::obs
