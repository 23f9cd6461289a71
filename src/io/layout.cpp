#include "io/layout.h"

#include <algorithm>
#include <fstream>

#include "util/diag.h"
#include "util/version.h"
#include "util/wire.h"

namespace amg::io {
namespace {

/// The records one module is saved as.  They share every field and its
/// order; a format only picks the header, the diagnostics' wording and the
/// slot rule:
///  * AMGL (`compacted`) writes the alive shapes renumbered densely, drops
///    provenance records that reference an unwritten shape (and enclosures
///    with no outers), and adds shapes back through addShape();
///  * AMGS writes every raw slot under its own id with an alive bit
///    (flag bit 1), every record verbatim, and restores through
///    appendRawShape();
///  * AMGD (`delta`) writes what one step changed under AMGS's rule: each
///    list starts with the length it had before the step (checked against
///    the module it is applied to) and holds only the entries appended
///    since, preceded — for shape slots and array records — by the ids of
///    the entries the step rewrote in place.
struct Format {
  std::uint32_t magic;
  std::uint32_t version;
  const char* noun;  ///< "<noun> format version", "after <noun> payload"
  const char* badMagic;
  const char* badMagicHint;
  bool compacted;
  bool delta;
};

constexpr Format kLayout{
    0x4C474D41u,  // "AMGL" little-endian
    util::kLayoutFormatVersion,
    "layout",
    "not an AMGL layout blob (bad magic)",
    "only files written by writeLayoutFile/serializeLayout can be read",
    true,
    false};

constexpr Format kSession{
    0x53474D41u,  // "AMGS" little-endian
    util::kSessionFormatVersion,
    "session-state",
    "not an AMGS session-state blob (bad magic)",
    "only blobs written by serializeSessionState can be read",
    false,
    false};

constexpr Format kDelta{
    0x44474D41u,  // "AMGD" little-endian
    util::kSessionFormatVersion,
    "session-delta",
    "not an AMGD session-delta blob (bad magic)",
    "only blobs written by serializeSessionDelta can be read",
    false,
    true};

constexpr const char* kRegenerateHint =
    "regenerate the cache entry; stale files can be deleted safely";

// Smallest encoding of one element of each counted list, so a count can be
// checked against the bytes left before anything is reserved.
constexpr std::size_t kStrBytes = 4;
constexpr std::size_t kIdBytes = 4;
constexpr std::size_t kShapeBytes = 4 * 8 + 4 + 2 + 1 + 1;
constexpr std::size_t kPortBytes = kStrBytes + 2 * 8 + 4 + 2;
constexpr std::size_t kEncloseBytes = 4 + kIdBytes;
constexpr std::size_t kArrayBytes = 4 + 4 + 2 + 4;

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
  d.code = "AMG-IO-003";
  d.message = "layout blob is truncated or corrupt";
  d.hint = kRegenerateHint;
  return d;
}

std::uint8_t edgeBits(const db::EdgeFlags& f) {
  std::uint8_t bits = 0;
  for (unsigned s = 0; s < 4; ++s)
    if (f.variable(static_cast<Side>(s))) bits |= static_cast<std::uint8_t>(1u << s);
  return bits;
}

db::EdgeFlags edgeFromBits(std::uint8_t bits) {
  db::EdgeFlags f;
  for (unsigned s = 0; s < 4; ++s)
    f.setVariable(static_cast<Side>(s), (bits >> s) & 1u);
  return f;
}

/// Writes the record to `w` (a util::WireWriter, or a util::WireHasher
/// for its digest).  `d` is all zeros for AMGL and AMGS: every list from
/// its start.
template <class Out>
void write(Out& w, const db::Module& m, const Format& fmt, const SessionDelta& d) {
  // The written slots, in order: AMGD's rewritten ones, then every slot
  // from d.shapes on (AMGL: only the alive ones).  AMGL also maps a raw
  // id to its written position (kNoShape for a skipped slot).
  auto forEachSlot = [&](auto&& fn) {
    for (const db::ShapeId id : d.editedShapes) fn(id);
    for (auto id = static_cast<db::ShapeId>(d.shapes); id < m.rawSize(); ++id)
      if (!fmt.compacted || m.isAlive(id)) fn(id);
  };
  std::vector<std::uint32_t> pos(fmt.compacted ? m.rawSize() : 0, db::kNoShape);
  std::uint32_t slotCount = 0;
  forEachSlot([&](db::ShapeId id) {
    if (fmt.compacted) pos[id] = slotCount;
    ++slotCount;
  });
  auto written = [&](db::ShapeId id) {
    return id < pos.size() && pos[id] != db::kNoShape;
  };
  // AMGS and AMGD ids are written as they are, even ones naming no slot.
  auto ref = [&](db::ShapeId id) { return fmt.compacted ? pos[id] : id; };
  auto forEachArray = [&](auto&& fn) {
    for (const std::size_t i : d.editedArrays) fn(m.arrayRecords()[i]);
    for (std::size_t i = d.arrays; i < m.arrayRecords().size(); ++i)
      fn(m.arrayRecords()[i]);
  };

  // Layer table: every layer referenced by a written shape, a written port
  // or any written array record (AMGL: before it drops any), stored by name
  // so the blob is portable across LayerId renumbering.
  constexpr std::uint32_t kUnseen = 0xFFFFFFFFu;
  std::vector<std::uint32_t> layerIdx(m.technology().layerCount(), kUnseen);
  std::vector<tech::LayerId> layers;
  layers.reserve(layerIdx.size());
  auto internLayer = [&](tech::LayerId l) {
    if (layerIdx.at(l) != kUnseen) return;
    layerIdx[l] = static_cast<std::uint32_t>(layers.size());
    layers.push_back(l);
  };
  forEachSlot([&](db::ShapeId id) { internLayer(m.shape(id).layer); });
  for (std::size_t i = d.ports; i < m.ports().size(); ++i) internLayer(m.ports()[i].layer);
  forEachArray([&](const db::ArrayRecord& r) { internLayer(r.elemLayer); });

  w.reserve(kShapeBytes * slotCount + 32 * layers.size() + 64);
  w.u32(fmt.magic);
  w.u32(fmt.version);
  w.str(m.name());
  w.u32(static_cast<std::uint32_t>(layers.size()));
  for (const tech::LayerId l : layers) w.str(m.technology().info(l).name);

  // Net table, in id order (net 0 is always the anonymous net "").
  if (fmt.delta) w.u32(static_cast<std::uint32_t>(d.nets));
  w.u32(static_cast<std::uint32_t>(m.netCount() - d.nets));
  for (auto n = static_cast<db::NetId>(d.nets); n < m.netCount(); ++n) w.str(m.netName(n));

  auto writeIds = [&](const std::vector<db::ShapeId>& ids) {
    w.u32(static_cast<std::uint32_t>(ids.size()));
    for (const db::ShapeId id : ids) w.u32(ref(id));
  };
  if (fmt.delta) {
    w.u32(static_cast<std::uint32_t>(d.shapes));
    writeIds(d.editedShapes);
  }
  w.u32(slotCount);
  forEachSlot([&](db::ShapeId id) {
    const db::Shape& s = m.shape(id);
    w.i64(s.box.x1);
    w.i64(s.box.y1);
    w.i64(s.box.x2);
    w.i64(s.box.y2);
    w.u32(layerIdx[s.layer]);
    w.u16(s.net);
    w.u8(edgeBits(s.varEdges));
    w.u8(static_cast<std::uint8_t>((s.avoidOverlap ? 1u : 0u) |
                                   (!fmt.compacted && s.alive ? 2u : 0u)));
  });

  if (fmt.delta) w.u32(static_cast<std::uint32_t>(d.ports));
  w.u32(static_cast<std::uint32_t>(m.ports().size() - d.ports));
  for (std::size_t i = d.ports; i < m.ports().size(); ++i) {
    const db::PortDef& p = m.ports()[i];
    w.str(p.name);
    w.i64(p.at.x);
    w.i64(p.at.y);
    w.u32(layerIdx[p.layer]);
    w.u16(p.net);
  }

  // Provenance records: AMGL drops a constraint that lost a subject.
  auto allWritten = [&](const std::vector<db::ShapeId>& ids) {
    return std::all_of(ids.begin(), ids.end(), written);
  };
  auto keepEnc = [&](const db::EncloseRecord& r) {
    return !fmt.compacted ||
           (written(r.inner) && !r.outers.empty() && allWritten(r.outers));
  };
  const std::vector<db::EncloseRecord>& encs = m.encloseRecords();
  if (fmt.delta) w.u32(static_cast<std::uint32_t>(d.encloses));
  w.u32(static_cast<std::uint32_t>(
      std::count_if(encs.begin() + static_cast<std::ptrdiff_t>(d.encloses), encs.end(), keepEnc)));
  for (std::size_t i = d.encloses; i < encs.size(); ++i) {
    if (!keepEnc(encs[i])) continue;
    writeIds(encs[i].outers);
    w.u32(ref(encs[i].inner));
  }

  auto keepArr = [&](const db::ArrayRecord& r) {
    return !fmt.compacted || (allWritten(r.containers) && allWritten(r.elems));
  };
  if (fmt.delta) {
    w.u32(static_cast<std::uint32_t>(d.arrays));
    w.u32(static_cast<std::uint32_t>(d.editedArrays.size()));
    for (const std::size_t i : d.editedArrays) w.u32(static_cast<std::uint32_t>(i));
  }
  std::uint32_t arrCount = 0;
  forEachArray([&](const db::ArrayRecord& r) { arrCount += keepArr(r) ? 1 : 0; });
  w.u32(arrCount);
  forEachArray([&](const db::ArrayRecord& r) {
    if (!keepArr(r)) return;
    writeIds(r.containers);
    w.u32(layerIdx[r.elemLayer]);
    w.u16(r.net);
    writeIds(r.elems);
  });
}

/// The record as bytes, starting at byte `offset` of the result.
std::vector<std::uint8_t> encode(const db::Module& m, const Format& fmt,
                                 const SessionDelta& d = {},
                                 std::size_t offset = 0) {
  util::WireWriter w(offset);
  write(w, m, fmt, d);
  return w.take();
}

/// Magic and version; leaves `r` at the module name.
void readHeader(util::WireReader& r, const Format& fmt) {
  if (r.u32() != fmt.magic) fail("AMG-IO-001", fmt.badMagic, fmt.badMagicHint);
  if (const std::uint32_t v = r.u32(); v != fmt.version)
    fail("AMG-IO-002",
         std::string("unsupported ") + fmt.noun + " format version " +
             std::to_string(v),
         "this build reads version " + std::to_string(fmt.version) +
             "; regenerate the blob");
}

/// Everything after the module name, read into `m`: a fresh module for
/// AMGL and AMGS, the module an AMGD record extends.
void readBody(util::WireReader& r, const std::vector<std::uint8_t>& bytes,
              db::Module& m, const Format& fmt) {
  const tech::Technology& tech = m.technology();
  // A count whose elements cannot fit in the bytes left is corrupt.
  auto count = [&](std::size_t elemBytes) {
    const std::uint32_t n = r.u32();
    if (n > (bytes.size() - r.position()) / elemBytes)
      throw util::DiagError(truncationDiag());
    return n;
  };
  // Where an AMGD list resumes: exactly where the module's ends.
  auto from = [&](std::size_t have) -> std::size_t {
    if (!fmt.delta) return 0;
    if (r.u32() != have)
      fail("AMG-IO-003", "session delta does not extend this module",
           kRegenerateHint);
    return have;
  };
  // Ids of the entries an AMGD list rewrites, each below `base`.
  auto editedBelow = [&](std::size_t base) {
    std::vector<std::uint32_t> ids;
    if (!fmt.delta) return ids;
    ids.resize(count(kIdBytes));
    for (std::uint32_t& id : ids)
      if ((id = r.u32()) >= base)
        fail("AMG-IO-003", "edited entry out of range", kRegenerateHint);
    return ids;
  };

  const std::uint32_t layerCount = count(kStrBytes);
  std::vector<tech::LayerId> layers;
  layers.reserve(layerCount);
  for (std::uint32_t i = 0; i < layerCount; ++i) {
    const std::string name = r.str();
    const auto l = tech.findLayer(name);
    if (!l)
      fail("AMG-IO-004",
           "layer '" + name + "' unknown to technology '" + tech.name() + "'",
           "the blob was written under a different deck; regenerate it");
    layers.push_back(*l);
  }
  auto layerAt = [&](std::uint32_t i) {
    if (i >= layers.size())
      fail("AMG-IO-003", "layer index out of range", kRegenerateHint);
    return layers[i];
  };

  const std::size_t netBase = from(m.netCount());
  const std::uint32_t netCount = count(kStrBytes);
  for (std::uint32_t i = 0; i < netCount; ++i) {
    const std::string name = r.str();
    if (netBase + i == 0) continue;  // net 0 (anonymous) pre-exists in every module
    // A full table collapses a repeated or empty name (checked below); a
    // delta's must add exactly the nets it lists.
    if (m.net(name) != netBase + i && fmt.delta)
      fail("AMG-IO-003", "session delta repeats a net", kRegenerateHint);
  }
  auto netAt = [&](db::NetId n) {
    if (n >= m.netCount())
      fail("AMG-IO-003", "net index out of range", kRegenerateHint);
    return n;
  };

  const std::vector<std::uint32_t> editedShapes = editedBelow(from(m.rawSize()));
  const std::uint32_t shapeCount = count(kShapeBytes);
  if (shapeCount < editedShapes.size())
    fail("AMG-IO-003", "fewer slots than edited ids", kRegenerateHint);
  for (std::uint32_t i = 0; i < shapeCount; ++i) {
    db::Shape s;
    s.box.x1 = r.i64();
    s.box.y1 = r.i64();
    s.box.x2 = r.i64();
    s.box.y2 = r.i64();
    s.layer = layerAt(r.u32());
    s.net = netAt(r.u16());
    s.varEdges = edgeFromBits(r.u8());
    const std::uint8_t flags = r.u8();
    s.avoidOverlap = (flags & 1u) != 0;
    if (!fmt.compacted) {
      s.alive = (flags & 2u) != 0;
      if (i < editedShapes.size())
        m.replaceRawShape(editedShapes[i], s);
      else
        m.appendRawShape(s);
    } else if (s.box.empty()) {
      fail("AMG-IO-003", "empty rectangle in layout payload", kRegenerateHint);
    } else {
      m.addShape(s);
    }
  }
  auto shapeAt = [&](std::uint32_t i) {
    if (i >= m.rawSize())
      fail("AMG-IO-003", "shape index out of range", kRegenerateHint);
    return static_cast<db::ShapeId>(i);
  };
  auto readIds = [&] {
    std::vector<db::ShapeId> ids(count(kIdBytes));
    for (db::ShapeId& id : ids) id = shapeAt(r.u32());
    return ids;
  };

  from(m.ports().size());
  const std::uint32_t portCount = count(kPortBytes);
  for (std::uint32_t i = 0; i < portCount; ++i) {
    std::string name = r.str();
    Point at{r.i64(), r.i64()};
    const tech::LayerId layer = layerAt(r.u32());
    m.addPort(std::move(name), at, layer, netAt(r.u16()));
  }

  from(m.encloseRecords().size());
  const std::uint32_t encCount = count(kEncloseBytes);
  for (std::uint32_t i = 0; i < encCount; ++i) {
    db::EncloseRecord rec;
    rec.outers = readIds();
    rec.inner = shapeAt(r.u32());
    m.addEncloseRecord(std::move(rec));
  }

  const std::vector<std::uint32_t> editedArrays =
      editedBelow(from(m.arrayRecords().size()));
  const std::uint32_t arrCount = count(kArrayBytes);
  if (arrCount < editedArrays.size())
    fail("AMG-IO-003", "fewer array records than edited ids", kRegenerateHint);
  for (std::uint32_t i = 0; i < arrCount; ++i) {
    db::ArrayRecord rec;
    rec.containers = readIds();
    rec.elemLayer = layerAt(r.u32());
    rec.net = netAt(r.u16());
    rec.elems = readIds();
    if (i < editedArrays.size())
      m.arrayRecords()[editedArrays[i]] = std::move(rec);
    else
      m.addArrayRecord(std::move(rec));
  }

  if (!r.done())
    fail("AMG-IO-003", std::string("trailing bytes after ") + fmt.noun + " payload",
         kRegenerateHint);
}

db::Module decode(const std::vector<std::uint8_t>& bytes, std::size_t offset,
                  const tech::Technology& tech, const Format& fmt) {
  util::WireReader r(bytes, truncationDiag(), offset);
  readHeader(r, fmt);
  db::Module m(tech, r.str());
  readBody(r, bytes, m, fmt);
  return m;
}

}  // namespace

std::vector<std::uint8_t> serializeLayout(const db::Module& m) {
  return encode(m, kLayout);
}

db::Module deserializeLayout(const std::vector<std::uint8_t>& bytes,
                             const tech::Technology& tech) {
  return decode(bytes, 0, tech, kLayout);
}

std::vector<std::uint8_t> serializeSessionState(const db::Module& m,
                                                std::size_t offset) {
  return encode(m, kSession, {}, offset);
}

db::Module deserializeSessionState(const std::vector<std::uint8_t>& bytes,
                                   const tech::Technology& tech,
                                   std::size_t offset) {
  return decode(bytes, offset, tech, kSession);
}

std::uint64_t sessionStateDigest(const db::Module& m) {
  util::WireHasher h;
  write(h, m, kSession, {});
  return h.digest();
}

SessionDelta SessionDelta::startingAt(const db::Module& m) {
  SessionDelta d;
  d.nets = m.netCount();
  d.shapes = m.rawSize();
  d.ports = m.ports().size();
  d.encloses = m.encloseRecords().size();
  d.arrays = m.arrayRecords().size();
  return d;
}

std::vector<std::uint8_t> serializeSessionDelta(const db::Module& m,
                                                SessionDelta d,
                                                std::size_t offset) {
  // An id at or past the base is part of the appended tail already.
  auto normalize = [](auto& ids, std::size_t base) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    ids.erase(std::lower_bound(ids.begin(), ids.end(), base), ids.end());
  };
  normalize(d.editedShapes, d.shapes);
  normalize(d.editedArrays, d.arrays);
  return encode(m, kDelta, d, offset);
}

void applySessionDelta(db::Module& m, const std::vector<std::uint8_t>& bytes,
                       std::size_t offset) {
  util::WireReader r(bytes, truncationDiag(), offset);
  readHeader(r, kDelta);
  if (r.str() != m.name())
    fail("AMG-IO-003", "session delta belongs to another module", kRegenerateHint);
  readBody(r, bytes, m, kDelta);
}

void writeLayoutFile(const db::Module& m, const std::string& path) {
  const std::vector<std::uint8_t> bytes = serializeLayout(m);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f)
    fail("AMG-IO-005", "cannot open '" + path + "' for writing",
         "check that the directory exists and is writable", path);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f)
    fail("AMG-IO-005", "short write to '" + path + "'",
         "check free space on the cache volume", path);
}

}  // namespace amg::io
