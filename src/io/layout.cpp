#include "io/layout.h"

#include <algorithm>
#include <fstream>
#include <map>

#include "util/diag.h"
#include "util/version.h"
#include "util/wire.h"

namespace amg::io {
namespace {

/// The two records one module is saved as.  They share every field and
/// its order; a format only picks the header, the diagnostics' wording and
/// the slot rule (`compacted`):
///  * AMGL writes the alive shapes renumbered densely, drops provenance
///    records that reference an unwritten shape (and enclosures with no
///    outers), and adds shapes back through addShape();
///  * AMGS writes every raw slot under its own id with an alive bit
///    (flag bit 1), every record verbatim, and restores through
///    appendRawShape().
struct Format {
  std::uint32_t magic;
  std::uint32_t version;
  const char* noun;  ///< "<noun> format version", "after <noun> payload"
  const char* badMagic;
  const char* badMagicHint;
  bool compacted;
};

constexpr Format kLayout{
    0x4C474D41u,  // "AMGL" little-endian
    util::kLayoutFormatVersion,
    "layout",
    "not an AMGL layout blob (bad magic)",
    "only files written by writeLayoutFile/serializeLayout can be read",
    true};

constexpr Format kSession{
    0x53474D41u,  // "AMGS" little-endian
    util::kSessionFormatVersion,
    "session-state",
    "not an AMGS session-state blob (bad magic)",
    "only blobs written by serializeSessionState can be read",
    false};

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

std::vector<std::uint8_t> encode(const db::Module& m, const Format& fmt) {
  util::WireWriter w;
  w.u32(fmt.magic);
  w.u32(fmt.version);
  w.str(m.name());

  // Raw id -> written position; kNoShape for a slot the format skips.
  std::vector<db::ShapeId> slots;
  std::vector<std::uint32_t> pos(m.rawSize(), db::kNoShape);
  for (db::ShapeId id = 0; id < m.rawSize(); ++id) {
    if (fmt.compacted && !m.isAlive(id)) continue;
    pos[id] = static_cast<std::uint32_t>(slots.size());
    slots.push_back(id);
  }
  auto written = [&](db::ShapeId id) {
    return id < pos.size() && pos[id] != db::kNoShape;
  };
  // AMGS ids are written as they are, even ones naming no slot.
  auto ref = [&](db::ShapeId id) { return written(id) ? pos[id] : id; };

  // Layer table: every layer referenced by a written shape, a port or any
  // array record, stored by name so the blob is portable across LayerId
  // renumbering.
  std::map<tech::LayerId, std::uint32_t> layerIdx;
  std::vector<tech::LayerId> layers;
  auto internLayer = [&](tech::LayerId l) {
    if (layerIdx.emplace(l, static_cast<std::uint32_t>(layers.size())).second)
      layers.push_back(l);
  };
  for (const db::ShapeId id : slots) internLayer(m.shape(id).layer);
  for (const db::PortDef& p : m.ports()) internLayer(p.layer);
  for (const db::ArrayRecord& r : m.arrayRecords()) internLayer(r.elemLayer);
  w.u32(static_cast<std::uint32_t>(layers.size()));
  for (const tech::LayerId l : layers) w.str(m.technology().info(l).name);

  // Net table, in id order (net 0 is always the anonymous net "").
  w.u32(static_cast<std::uint32_t>(m.netCount()));
  for (db::NetId n = 0; n < m.netCount(); ++n) w.str(m.netName(n));

  w.u32(static_cast<std::uint32_t>(slots.size()));
  for (const db::ShapeId id : slots) {
    const db::Shape& s = m.shape(id);
    w.i64(s.box.x1);
    w.i64(s.box.y1);
    w.i64(s.box.x2);
    w.i64(s.box.y2);
    w.u32(layerIdx.at(s.layer));
    w.u16(s.net);
    w.u8(edgeBits(s.varEdges));
    w.u8(static_cast<std::uint8_t>((s.avoidOverlap ? 1u : 0u) |
                                   (!fmt.compacted && s.alive ? 2u : 0u)));
  }

  w.u32(static_cast<std::uint32_t>(m.ports().size()));
  for (const db::PortDef& p : m.ports()) {
    w.str(p.name);
    w.i64(p.at.x);
    w.i64(p.at.y);
    w.u32(layerIdx.at(p.layer));
    w.u16(p.net);
  }

  // Provenance records: AMGL drops a constraint that lost a subject.
  auto allWritten = [&](const std::vector<db::ShapeId>& ids) {
    return std::all_of(ids.begin(), ids.end(), written);
  };
  auto writeIds = [&](const std::vector<db::ShapeId>& ids) {
    w.u32(static_cast<std::uint32_t>(ids.size()));
    for (const db::ShapeId id : ids) w.u32(ref(id));
  };
  std::vector<const db::EncloseRecord*> encs;
  for (const db::EncloseRecord& r : m.encloseRecords())
    if (!fmt.compacted ||
        (written(r.inner) && !r.outers.empty() && allWritten(r.outers)))
      encs.push_back(&r);
  w.u32(static_cast<std::uint32_t>(encs.size()));
  for (const db::EncloseRecord* r : encs) {
    writeIds(r->outers);
    w.u32(ref(r->inner));
  }

  std::vector<const db::ArrayRecord*> arrs;
  for (const db::ArrayRecord& r : m.arrayRecords())
    if (!fmt.compacted || (allWritten(r.containers) && allWritten(r.elems)))
      arrs.push_back(&r);
  w.u32(static_cast<std::uint32_t>(arrs.size()));
  for (const db::ArrayRecord* r : arrs) {
    writeIds(r->containers);
    w.u32(layerIdx.at(r->elemLayer));
    w.u16(r->net);
    writeIds(r->elems);
  }

  return w.take();
}

db::Module decode(const std::vector<std::uint8_t>& bytes,
                  const tech::Technology& tech, const Format& fmt) {
  util::WireReader r(bytes, truncationDiag());
  if (r.u32() != fmt.magic) fail("AMG-IO-001", fmt.badMagic, fmt.badMagicHint);
  if (const std::uint32_t v = r.u32(); v != fmt.version)
    fail("AMG-IO-002",
         std::string("unsupported ") + fmt.noun + " format version " +
             std::to_string(v),
         "this build reads version " + std::to_string(fmt.version) +
             "; regenerate the blob");

  db::Module m(tech, r.str());

  // A count whose elements cannot fit in the bytes left is corrupt.
  auto count = [&](std::size_t elemBytes) {
    const std::uint32_t n = r.u32();
    if (n > (bytes.size() - r.position()) / elemBytes)
      throw util::DiagError(truncationDiag());
    return n;
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

  const std::uint32_t netCount = count(kStrBytes);
  for (std::uint32_t i = 0; i < netCount; ++i) {
    const std::string name = r.str();
    if (i == 0) continue;  // net 0 (anonymous) pre-exists in every module
    m.net(name);
  }
  // Checked against the decoded table: a repeated or empty name collapses.
  auto netAt = [&](db::NetId n) {
    if (n >= m.netCount())
      fail("AMG-IO-003", "net index out of range", kRegenerateHint);
    return n;
  };

  const std::uint32_t shapeCount = count(kShapeBytes);
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
      m.appendRawShape(s);
    } else if (s.box.empty()) {
      fail("AMG-IO-003", "empty rectangle in layout payload", kRegenerateHint);
    } else {
      m.addShape(s);
    }
  }
  auto shapeAt = [&](std::uint32_t i) {
    if (i >= shapeCount)
      fail("AMG-IO-003", "shape index out of range", kRegenerateHint);
    return static_cast<db::ShapeId>(i);
  };
  auto readIds = [&] {
    std::vector<db::ShapeId> ids(count(kIdBytes));
    for (db::ShapeId& id : ids) id = shapeAt(r.u32());
    return ids;
  };

  const std::uint32_t portCount = count(kPortBytes);
  for (std::uint32_t i = 0; i < portCount; ++i) {
    std::string name = r.str();
    Point at{r.i64(), r.i64()};
    const tech::LayerId layer = layerAt(r.u32());
    m.addPort(std::move(name), at, layer, netAt(r.u16()));
  }

  const std::uint32_t encCount = count(kEncloseBytes);
  for (std::uint32_t i = 0; i < encCount; ++i) {
    db::EncloseRecord rec;
    rec.outers = readIds();
    rec.inner = shapeAt(r.u32());
    m.addEncloseRecord(std::move(rec));
  }

  const std::uint32_t arrCount = count(kArrayBytes);
  for (std::uint32_t i = 0; i < arrCount; ++i) {
    db::ArrayRecord rec;
    rec.containers = readIds();
    rec.elemLayer = layerAt(r.u32());
    rec.net = netAt(r.u16());
    rec.elems = readIds();
    m.addArrayRecord(std::move(rec));
  }

  if (!r.done())
    fail("AMG-IO-003", std::string("trailing bytes after ") + fmt.noun + " payload",
         kRegenerateHint);
  return m;
}

}  // namespace

std::vector<std::uint8_t> serializeLayout(const db::Module& m) {
  return encode(m, kLayout);
}

db::Module deserializeLayout(const std::vector<std::uint8_t>& bytes,
                             const tech::Technology& tech) {
  return decode(bytes, tech, kLayout);
}

std::vector<std::uint8_t> serializeSessionState(const db::Module& m) {
  return encode(m, kSession);
}

db::Module deserializeSessionState(const std::vector<std::uint8_t>& bytes,
                                   const tech::Technology& tech) {
  return decode(bytes, tech, kSession);
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
