#include "db/connectivity.h"

#include <algorithm>

#include "db/connectivity_detail.h"
#include "geom/spatial.h"
#include "geom/subtract.h"
#include "obs/obs.h"

namespace amg::db {

bool electricallyTouching(const Box& a, const Box& b) {
  const Coord ix1 = std::max(a.x1, b.x1), ix2 = std::min(a.x2, b.x2);
  const Coord iy1 = std::max(a.y1, b.y1), iy2 = std::min(a.y2, b.y2);
  if (ix1 > ix2 || iy1 > iy2) return false;        // disjoint
  return ix1 < ix2 || iy1 < iy2;                   // more than a corner point
}

namespace detail {

bool isElectrical(const Module& m, ShapeId i) {
  if (!m.isAlive(i)) return false;
  const auto& li = m.technology().info(m.shape(i).layer);
  return li.conducting || li.kind == tech::LayerKind::Cut;
}

std::vector<Box> fragments(const Box& box, const std::vector<Box>& cutters) {
  if (cutters.empty()) return {box};
  std::vector<Box> pieces = geom::subtractAll({box}, cutters);
  if (pieces.empty()) pieces = {box};  // fully gated: keep one node
  return pieces;
}

}  // namespace detail

Connectivity::Connectivity(const Module& m) : m_(&m) {
  obs::Span span("db.connectivity");
  span.arg("module", m.name())
      .arg("shapes", static_cast<std::uint64_t>(m.shapeCount()));
  OBS_COUNT("connectivity.builds");
  const tech::Technology& t = m.technology();

  // One shape-level index per module snapshot, reused by every geometric
  // lookup of the build (gate-poly cutters, cut shielding).
  const geom::SpatialIndex sidx = buildShapeIndex(m);
  std::vector<std::uint32_t> cand;

  std::vector<tech::LayerId> polyLayers;
  for (ShapeId i : m.shapeIds())
    if (t.info(m.shape(i).layer).kind == tech::LayerKind::Poly &&
        std::find(polyLayers.begin(), polyLayers.end(), m.shape(i).layer) ==
            polyLayers.end())
      polyLayers.push_back(m.shape(i).layer);

  // Build nodes: one per shape, except diffusion shapes crossed by gate
  // poly, which contribute one node per un-gated fragment (a MOS device
  // does not short its source to its drain).
  const std::size_t rawN = m.rawSize();
  nodesOf_.assign(rawN, {});
  for (ShapeId i = 0; i < rawN; ++i) {
    if (!detail::isElectrical(m, i)) continue;
    const Shape& s = m.shape(i);
    std::vector<Box> cutters;
    if (t.info(s.layer).kind == tech::LayerKind::Diffusion) {
      // Only gate polys near this diffusion, in shape-id order.
      std::vector<std::uint32_t> merged;
      for (const tech::LayerId pl : polyLayers) {
        sidx.query(pl, s.box, cand);
        merged.insert(merged.end(), cand.begin(), cand.end());
      }
      std::sort(merged.begin(), merged.end());
      for (const std::uint32_t gi : merged)
        if (m.shape(gi).box.overlaps(s.box)) cutters.push_back(m.shape(gi).box);
    }
    for (const Box& p : detail::fragments(s.box, cutters)) {
      nodesOf_[i].push_back(static_cast<int>(nodes_.size()));
      nodes_.push_back(Node{i, p});
    }
  }

  parent_.resize(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) parent_[i] = static_cast<int>(i);

  // Node-level index for the touching-pair sweep (bucket 0: the touch
  // predicate is layer-blind; the join rule sorts out layers).
  geom::SpatialIndex nidx;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    nidx.insert(static_cast<std::uint32_t>(i), 0, nodes_[i].box);

  // A shielding shape must contain the cut box, hence touch it.
  auto shieldCandidates = [&](const Box& cutBox) -> const std::vector<std::uint32_t>& {
    sidx.query(cutBox, cand);
    return cand;
  };
  std::vector<std::uint32_t> bCand;
  for (std::size_t a = 0; a < nodes_.size(); ++a) {
    nidx.query(nodes_[a].box, bCand);
    for (const std::uint32_t b : bCand) {
      if (b <= a) continue;
      if (detail::nodesJoin(m, nodes_[a].shape, nodes_[a].box, nodes_[b].shape,
                            nodes_[b].box, shieldCandidates))
        unite(static_cast<int>(a), static_cast<int>(b));
    }
  }

  // Assign dense component indices.
  compIndex_.assign(nodes_.size(), -1);
  int next = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const int root = find(static_cast<int>(i));
    if (compIndex_[static_cast<std::size_t>(root)] == -1)
      compIndex_[static_cast<std::size_t>(root)] = next++;
  }
  componentCount_ = next;
}

int Connectivity::find(int x) const {
  while (parent_[static_cast<std::size_t>(x)] != x) {
    parent_[static_cast<std::size_t>(x)] =
        parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
    x = parent_[static_cast<std::size_t>(x)];
  }
  return x;
}

void Connectivity::unite(int a, int b) {
  a = find(a);
  b = find(b);
  if (a != b) parent_[static_cast<std::size_t>(b)] = a;
}

bool Connectivity::connected(ShapeId a, ShapeId b) const {
  if (a >= nodesOf_.size() || b >= nodesOf_.size()) return false;
  for (const int na : nodesOf_[a])
    for (const int nb : nodesOf_[b])
      if (find(na) == find(nb)) return true;
  return false;
}

int Connectivity::componentOf(ShapeId id) const {
  if (id >= nodesOf_.size() || nodesOf_[id].empty()) return -1;
  const int first = compIndex_[static_cast<std::size_t>(find(nodesOf_[id].front()))];
  for (const int n : nodesOf_[id])
    if (compIndex_[static_cast<std::size_t>(find(n))] != first)
      return -1;  // the shape spans several nodes (a gated diffusion)
  return first;
}

int Connectivity::componentAt(ShapeId shape, Point p) const {
  if (shape >= nodesOf_.size()) return -1;
  for (const int n : nodesOf_[shape])
    if (nodes_[static_cast<std::size_t>(n)].box.contains(p))
      return compIndex_[static_cast<std::size_t>(find(n))];
  return -1;
}

std::string Connectivity::netNameOf(int comp) const {
  if (comp < 0) return "";
  for (ShapeId i = 0; i < nodesOf_.size(); ++i) {
    if (componentOf(i) != comp) continue;
    const Shape& s = m_->shape(i);
    if (s.net != kNoNet) return m_->netName(s.net);
  }
  return "";
}

std::vector<std::vector<ShapeId>> Connectivity::components() const {
  std::vector<std::vector<ShapeId>> out(static_cast<std::size_t>(componentCount_));
  for (ShapeId i = 0; i < nodesOf_.size(); ++i) {
    const int c = componentOf(i);
    if (c >= 0) out[static_cast<std::size_t>(c)].push_back(i);
  }
  return out;
}

}  // namespace amg::db
