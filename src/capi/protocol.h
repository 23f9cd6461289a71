// The amg_serve wire protocol: length-prefixed frames over a unix domain
// socket (docs/SERVER.md is the normative description).
//
// Framing: every message is a u32 little-endian payload length followed
// by that many payload bytes.  The payload itself is encoded with the
// same util/wire.h primitives as the AMGL/AMGT formats and starts with a
// u8 message type.  One request frame yields exactly one response frame;
// requests on one connection are answered in order.
//
// The protocol is versioned independently of the formats it carries:
// kProtocolVersion is exchanged in every GENERATE request and echoed in
// errors, so a stale client fails with AMG-SRV-001 instead of a decode
// mystery.
//
// Error codes (util/diag.h registry, documented in docs/CLI.md):
//   AMG-SRV-001  malformed or incompatible request frame
//   AMG-SRV-002  server at capacity (admission control rejected)
//   AMG-SRV-003  request timed out in the queue
//   AMG-SRV-004  server is draining (shutdown in progress)
//   AMG-SRV-005  client-side connection failure
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gen/job.h"
#include "util/diag.h"
#include "util/wire.h"

namespace amg::serve {

constexpr std::uint32_t kProtocolVersion = 1;

/// Hard ceiling on a frame payload; a length prefix beyond this is
/// treated as a framing error, not an allocation request.
constexpr std::uint32_t kMaxFrameBytes = 64u * 1024u * 1024u;

enum class MsgType : std::uint8_t {
  Generate = 1,  ///< a batch of generation requests → GenerateResponse
  Ping = 2,      ///< liveness probe → PingResponse
  Stats = 3,     ///< server/cache statistics → StatsResponse
  Shutdown = 4,  ///< begin graceful drain → PingResponse (ack)
};

/// One generation request inside a GENERATE frame: the engine's own job.
/// Its six fields go on the wire as they are; the server fills the ones a
/// client left empty (Server::handleGenerate, docs/SERVER.md).
using WireJob = gen::Job;

struct GenerateRequest {
  std::vector<WireJob> jobs;
  /// Milliseconds the client is willing to wait in the admission queue;
  /// 0 = server default.  Running jobs are never killed mid-flight.
  std::uint32_t queueTimeoutMs = 0;
};

/// Per-job outcome inside a GENERATE response: the gen::JobResult fields,
/// the diagnostic flattened and the layout serialized.
struct WireResult {
  std::string name;
  bool ok = false;
  bool cacheHit = false;
  bool rejected = false;
  std::uint64_t key = 0;
  std::uint64_t layoutHash = 0;
  std::uint64_t shapeCount = 0;
  std::uint64_t prefixRestored = 0;
  double wallMs = 0;
  /// Set when !ok: the structured diagnostic, flattened.
  std::string diagCode;
  std::string diagMessage;
  std::string diagHint;
  std::string diagFile;
  std::uint32_t diagLine = 0;
  std::uint32_t diagCol = 0;
  /// serializeLayout() bytes; empty when the job failed.
  std::vector<std::uint8_t> layout;
};

struct GenerateResponse {
  /// Empty code = accepted and ran; otherwise an AMG-SRV-* rejection that
  /// applies to the whole frame (results is then empty).
  std::string errorCode;
  std::string errorMessage;
  std::vector<WireResult> results;
  std::uint64_t cacheHits = 0;
  std::uint64_t prefixRestoredSteps = 0;
  double wallMs = 0;
};

struct StatsResponse {
  std::string version;          ///< util::kVersionString
  std::uint64_t requestsServed = 0;
  std::uint64_t jobsServed = 0;
  std::uint64_t busyRejected = 0;
  std::uint64_t timedOut = 0;
  std::uint64_t cacheHits = 0;      ///< whole-layout tier, engine lifetime
  std::uint64_t cacheEntries = 0;
  std::uint64_t cacheBytes = 0;
  std::uint64_t prefixEntries = 0;  ///< 0 when the tier is disabled
  std::uint64_t prefixBytes = 0;
  bool draining = false;
};

// --- encoding --------------------------------------------------------------
// encode* produce a full payload (starting with the MsgType byte);
// decode* expect the payload with the type byte already consumed and
// throw util::DiagError AMG-SRV-001 on malformed input.

std::vector<std::uint8_t> encodeGenerateRequest(const GenerateRequest& r);
std::vector<std::uint8_t> encodeGenerateResponse(const GenerateResponse& r);
std::vector<std::uint8_t> encodePing();
std::vector<std::uint8_t> encodeStatsRequest();
std::vector<std::uint8_t> encodeStatsResponse(const StatsResponse& r);
std::vector<std::uint8_t> encodeShutdown();

GenerateRequest decodeGenerateRequest(util::WireReader& r);
GenerateResponse decodeGenerateResponse(util::WireReader& r);
StatsResponse decodeStatsResponse(util::WireReader& r);

/// Diag template for malformed frames (AMG-SRV-001).
util::Diag frameDiag(std::string message);

/// Blocking frame I/O on a connected socket fd.  sendFrame writes the
/// u32 length prefix + payload; recvFrame reads one whole frame, returns
/// nullopt on clean EOF at a frame boundary, and throws util::DiagError
/// AMG-SRV-001 on a torn or oversized frame.
void sendFrame(int fd, const std::vector<std::uint8_t>& payload);
std::optional<std::vector<std::uint8_t>> recvFrame(int fd);

}  // namespace amg::serve
