#include "obs/recorder.h"

#include <fstream>
#include <iterator>

#include "obs/obs.h"
#include "util/diag.h"
#include "util/hash.h"
#include "util/version.h"
#include "util/wire.h"

namespace amg::obs {
namespace {

constexpr std::uint32_t kMagic = 0x54474D41u;  // "AMGT" little-endian
constexpr std::uint32_t kVersion = util::kTraceFormatVersion;

[[noreturn]] void fail(const char* code, std::string msg, std::string hint,
                       std::string file = "") {
  util::Diag d;
  d.code = code;
  d.message = std::move(msg);
  d.loc.file = std::move(file);
  d.hint = std::move(hint);
  throw util::DiagError(std::move(d));
}

util::Diag truncationDiag() {
  util::Diag d;
  d.code = "AMG-OBS-003";
  d.message = "request trace is truncated or corrupt";
  d.hint =
      "the recording run may have been killed mid-record; the readable "
      "prefix can be recovered by re-recording";
  return d;
}

void writeHeader(util::WireWriter& w, const TraceHeader& h) {
  w.u32(kMagic);
  w.u32(kVersion);
  w.str(h.tool);
  w.str(h.techSpec);
  w.u64(h.techFingerprint);
  w.u8(static_cast<std::uint8_t>((h.cacheEnabled ? 1u : 0u) |
                                 (h.prefixCacheEnabled ? 2u : 0u)));
}

TraceHeader readHeader(util::WireReader& r) {
  if (r.u32() != kMagic)
    fail("AMG-OBS-001", "not an AMGT request trace (bad magic)",
         "only files written with --record (or obs::writeTraceFile) can be "
         "replayed");
  if (const std::uint32_t v = r.u32(); v != kVersion)
    fail("AMG-OBS-002", "unsupported trace format version " + std::to_string(v),
         "this build reads version " + std::to_string(kVersion) +
             "; re-record the trace");
  TraceHeader h;
  h.tool = r.str();
  h.techSpec = r.str();
  h.techFingerprint = r.u64();
  const std::uint8_t flags = r.u8();
  h.cacheEnabled = (flags & 1u) != 0;
  h.prefixCacheEnabled = (flags & 2u) != 0;
  return h;
}

void writeRecord(util::WireWriter& w, const RequestRecord& rec) {
  w.u8(static_cast<std::uint8_t>(rec.kind));
  w.str(rec.name);
  w.str(rec.scriptPath);
  w.str(rec.script);
  w.str(rec.entity);
  w.str(rec.resultVar);
  w.u32(static_cast<std::uint32_t>(rec.params.size()));
  for (const auto& [k, v] : rec.params) {
    w.str(k);
    w.str(v);
  }
  const RequestOutcome& o = rec.outcome;
  w.u8(static_cast<std::uint8_t>((o.ok ? 1u : 0u) | (o.cacheHit ? 2u : 0u) |
                                 (o.rejected ? 4u : 0u)));
  w.u64(o.layoutHash);
  w.u64(o.shapeCount);
  w.str(o.diagCode);
  w.u64(o.prefixRestored);
  w.u64(o.statements);
  w.u64(o.entityCalls);
  w.u64(o.compactions);
  w.u64(o.variantRollbacks);
  w.f64(o.wallMs);
}

RequestRecord readRecord(util::WireReader& r) {
  RequestRecord rec;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(RequestKind::External))
    fail("AMG-OBS-003",
         "request trace is truncated or corrupt (unknown request kind " +
             std::to_string(kind) + ")",
         "the file was damaged after recording; re-record the trace");
  rec.kind = static_cast<RequestKind>(kind);
  rec.name = r.str();
  rec.scriptPath = r.str();
  rec.script = r.str();
  rec.entity = r.str();
  rec.resultVar = r.str();
  const std::uint32_t nparams = r.u32();
  rec.params.reserve(nparams);
  for (std::uint32_t i = 0; i < nparams; ++i) {
    std::string k = r.str();
    std::string v = r.str();
    rec.params.emplace_back(std::move(k), std::move(v));
  }
  RequestOutcome& o = rec.outcome;
  const std::uint8_t flags = r.u8();
  o.ok = (flags & 1u) != 0;
  o.cacheHit = (flags & 2u) != 0;
  o.rejected = (flags & 4u) != 0;
  o.layoutHash = r.u64();
  o.shapeCount = r.u64();
  o.diagCode = r.str();
  o.prefixRestored = r.u64();
  o.statements = r.u64();
  o.entityCalls = r.u64();
  o.compactions = r.u64();
  o.variantRollbacks = r.u64();
  o.wallMs = r.f64();
  return rec;
}

}  // namespace

std::uint64_t outcomeDigest(const RequestOutcome& o) {
  std::uint64_t h = util::fnv1a(std::uint64_t{1}, util::kFnvBasis);  // digest v1
  h = util::fnv1a(static_cast<std::uint64_t>(o.ok ? 1 : 0), h);
  h = util::fnv1a(static_cast<std::uint64_t>(o.rejected ? 1 : 0), h);
  h = util::fnv1a(o.layoutHash, h);
  h = util::fnv1a(o.shapeCount, h);
  h = util::fnv1a(o.diagCode, h);
  return h;
}

std::vector<std::uint8_t> serializeTrace(const TraceFile& t) {
  util::WireWriter w;
  writeHeader(w, t.header);
  for (const RequestRecord& rec : t.requests) writeRecord(w, rec);
  return w.take();
}

TraceFile deserializeTrace(const std::vector<std::uint8_t>& bytes) {
  util::WireReader r(bytes, truncationDiag());
  TraceFile t;
  t.header = readHeader(r);
  while (!r.done()) t.requests.push_back(readRecord(r));
  return t;
}

void writeTraceFile(const TraceFile& t, const std::string& path) {
  const std::vector<std::uint8_t> bytes = serializeTrace(t);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f)
    fail("AMG-OBS-004", "cannot open '" + path + "' for writing",
         "check that the directory exists and is writable", path);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f)
    fail("AMG-OBS-004", "short write to '" + path + "'",
         "check free space on the volume", path);
}

TraceFile readTraceFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f)
    fail("AMG-OBS-005", "cannot open '" + path + "' for reading",
         "check the path; traces are produced with --record FILE", path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                                  std::istreambuf_iterator<char>());
  if (f.bad())
    fail("AMG-OBS-005", "read error on '" + path + "'",
         "check the volume; re-record the trace if the file is damaged",
         path);
  return deserializeTrace(bytes);
}

Recorder::Recorder(std::string path, TraceHeader header)
    : path_(std::move(path)), header_(std::move(header)) {
  out_.open(path_, std::ios::binary | std::ios::trunc);
  if (!out_)
    fail("AMG-OBS-004", "cannot open '" + path_ + "' for recording",
         "check that the directory exists and is writable", path_);
  util::WireWriter w;
  writeHeader(w, header_);
  const std::vector<std::uint8_t> bytes = w.take();
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  out_.flush();
}

void Recorder::append(const RequestRecord& r) {
  util::WireWriter w;
  writeRecord(w, r);
  const std::vector<std::uint8_t> bytes = w.take();
  std::lock_guard<std::mutex> lock(mu_);
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  out_.flush();
  if (!out_)
    fail("AMG-OBS-004", "short write to '" + path_ + "'",
         "check free space on the volume", path_);
  ++count_;
  OBS_COUNT("obs.record.requests");
}

std::size_t Recorder::recordCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

}  // namespace amg::obs
