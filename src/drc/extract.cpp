#include "drc/extract.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "db/connectivity.h"
#include "drc/detail.h"
#include "geom/spatial.h"

namespace amg::drc {
namespace {

using db::Module;
using db::Shape;
using db::ShapeId;
using tech::LayerKind;
using tech::Technology;

}  // namespace

std::optional<ExtractedMos> detail::mosAt(const Module& m, const db::Connectivity& conn,
                                          ShapeId gi, ShapeId di) {
  const Technology& t = m.technology();
  const Shape& gate = m.shape(gi);
  const Shape& diff = m.shape(di);
  if (t.info(gate.layer).kind != LayerKind::Poly) return std::nullopt;
  if (t.info(diff.layer).kind != LayerKind::Diffusion) return std::nullopt;
  if (diff.layer == t.substrateTieLayer()) return std::nullopt;
  const Box ch = gate.box.intersect(diff.box);
  if (ch.empty()) return std::nullopt;

  ExtractedMos dev;
  Point pa, pb;
  if (gate.box.y1 <= diff.box.y1 && gate.box.y2 >= diff.box.y2) {
    // Vertical gate: terminals west/east of the channel.
    dev.l = ch.width();
    dev.w = ch.height();
    pa = Point{ch.x1 - 1, ch.center().y};
    pb = Point{ch.x2 + 1, ch.center().y};
  } else if (gate.box.x1 <= diff.box.x1 && gate.box.x2 >= diff.box.x2) {
    // Horizontal gate: terminals south/north.
    dev.l = ch.height();
    dev.w = ch.width();
    pa = Point{ch.center().x, ch.y1 - 1};
    pb = Point{ch.center().x, ch.y2 + 1};
  } else {
    return std::nullopt;  // partial overlap: no channel is formed
  }
  dev.diffLayer = t.info(diff.layer).name;
  dev.gateNet = gate.net == db::kNoNet ? "" : m.netName(gate.net);
  dev.sourceNet = conn.netNameOf(conn.componentAt(di, pa));
  dev.drainNet = conn.netNameOf(conn.componentAt(di, pb));
  if (dev.sourceNet > dev.drainNet) std::swap(dev.sourceNet, dev.drainNet);
  return dev;
}

std::vector<ExtractedMos> extractMos(const db::Module& m) {
  const Technology& t = m.technology();
  const db::Connectivity conn(m);
  // Channel candidates come from the module's shape index: each gate's
  // query lists what it touches in ascending id order and mosAt keeps the
  // (non-tie) diffusions, so devices come out gate id first, then
  // diffusion id.
  const std::shared_ptr<const geom::SpatialIndex> idx = m.shapeIndex();
  std::vector<ExtractedMos> out;
  std::vector<std::uint32_t> cand;
  for (const ShapeId gi : m.shapeIds()) {
    if (t.info(m.shape(gi).layer).kind != LayerKind::Poly) continue;
    idx->query(m.shape(gi).box, cand);
    for (const std::uint32_t di : cand)
      if (auto dev = detail::mosAt(m, conn, gi, di)) out.push_back(std::move(*dev));
  }
  return out;
}

LvsResult lvs(const db::Module& m, const std::vector<NetlistMos>& netlist,
              const std::vector<std::string>& ignoreGateNets) {
  LvsResult res;
  auto ignored = [&](const std::string& g) {
    return std::find(ignoreGateNets.begin(), ignoreGateNets.end(), g) !=
           ignoreGateNets.end();
  };

  // Canonical key: gate | min(terminals) | max(terminals).
  auto key = [](const std::string& g, std::string s, std::string d) {
    if (s > d) std::swap(s, d);
    return g + "|" + s + "|" + d;
  };

  std::multiset<std::string> layout;
  for (const ExtractedMos& dev : extractMos(m)) {
    if (ignored(dev.gateNet)) continue;
    layout.insert(key(dev.gateNet, dev.sourceNet, dev.drainNet));
  }
  std::multiset<std::string> wanted;
  for (const NetlistMos& dev : netlist) wanted.insert(key(dev.gate, dev.source, dev.drain));

  res.layoutDevices = static_cast<int>(layout.size());
  res.netlistDevices = static_cast<int>(wanted.size());

  for (const std::string& k : wanted) {
    const auto it = layout.find(k);
    if (it != layout.end()) {
      layout.erase(it);
    } else {
      res.messages.push_back("missing in layout: MOS(" + k + ")");
    }
  }
  for (const std::string& k : layout)
    res.messages.push_back("extra in layout: MOS(" + k + ")");

  res.matched = res.messages.empty();
  return res;
}

}  // namespace amg::drc
