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

/// One module snapshot's extraction, fully resolved: nothing is computed
/// on query, so concurrent readers share it without synchronisation.
struct ConnectivityData {
  /// Nodes are numbered in shape-id order: shape i owns the nodes
  /// [nodeStart[i], nodeStart[i + 1]) (none when it is not electrical).
  std::vector<std::uint32_t> nodeStart;
  std::vector<Box> nodeBox;         ///< node -> its electrical fragment
  std::vector<int> nodeComp;        ///< node -> component
  std::vector<int> shapeComp;       ///< shape id -> component, or -1
  std::vector<std::string> netName; ///< component -> declared net name
  int componentCount = 0;
};

namespace {

std::shared_ptr<const ConnectivityData> extract(const Module& m) {
  obs::Span span("db.connectivity");
  span.arg("module", m.name())
      .arg("shapes", static_cast<std::uint64_t>(m.shapeCount()));
  OBS_COUNT("connectivity.builds");
  const tech::Technology& t = m.technology();
  auto d = std::make_shared<ConnectivityData>();

  // The module's shape index serves every geometric lookup of the build
  // (gate-poly cutters, cut shielding).
  const std::shared_ptr<const geom::SpatialIndex> sidx = m.shapeIndex();
  std::vector<std::uint32_t> cand;

  // Build nodes: one per shape, except diffusion shapes crossed by gate
  // poly, which contribute one node per un-gated fragment (a MOS device
  // does not short its source to its drain).
  const std::size_t rawN = m.rawSize();
  std::vector<ShapeId> nodeShape;
  d->nodeStart.assign(rawN + 1, 0);
  std::vector<Box> cutters;
  for (ShapeId i = 0; i < rawN; ++i) {
    d->nodeStart[i] = static_cast<std::uint32_t>(d->nodeBox.size());
    if (!detail::isElectrical(m, i)) continue;
    const Shape& s = m.shape(i);
    cutters.clear();
    if (t.info(s.layer).kind == tech::LayerKind::Diffusion) {
      // Only gate polys near this diffusion, in shape-id order.
      sidx->query(s.box, cand);
      for (const std::uint32_t gi : cand) {
        const Shape& g = m.shape(gi);
        if (t.info(g.layer).kind == tech::LayerKind::Poly && g.box.overlaps(s.box))
          cutters.push_back(g.box);
      }
    }
    for (const Box& p : detail::fragments(s.box, cutters)) {
      d->nodeBox.push_back(p);
      nodeShape.push_back(i);
    }
  }
  const std::size_t nodes = d->nodeBox.size();
  d->nodeStart[rawN] = static_cast<std::uint32_t>(nodes);

  std::vector<int> parent(nodes);
  for (std::size_t i = 0; i < nodes; ++i) parent[i] = static_cast<int>(i);
  auto find = [&](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      const int up = parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)] = up;
    }
    return x;
  };

  // Node-level index for the touching-pair sweep (bucket 0: the touch
  // predicate is layer-blind; the join rule sorts out layers).
  geom::SpatialIndex nidx;
  for (std::size_t i = 0; i < nodes; ++i)
    nidx.insert(static_cast<std::uint32_t>(i), 0, d->nodeBox[i]);

  // A shielding shape must contain the cut box, hence touch it.
  auto shieldCandidates = [&](const Box& cutBox) -> const std::vector<std::uint32_t>& {
    sidx->query(cutBox, cand);
    return cand;
  };
  std::vector<std::uint32_t> bCand;
  for (std::size_t a = 0; a < nodes; ++a) {
    nidx.query(d->nodeBox[a], bCand);
    for (const std::uint32_t b : bCand) {
      if (b <= a) continue;
      if (detail::nodesJoin(m, nodeShape[a], d->nodeBox[a], nodeShape[b], d->nodeBox[b],
                            shieldCandidates)) {
        const int ra = find(static_cast<int>(a)), rb = find(static_cast<int>(b));
        if (ra != rb) parent[static_cast<std::size_t>(rb)] = ra;
      }
    }
  }

  // Dense component indices in order of first node (= first shape id).
  std::vector<int> rootComp(nodes, -1);
  d->nodeComp.resize(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    int& c = rootComp[static_cast<std::size_t>(find(static_cast<int>(i)))];
    if (c == -1) c = d->componentCount++;
    d->nodeComp[i] = c;
  }

  // Per shape: its component unless it has none or spans several; per
  // component: the net of its first named shape.
  d->shapeComp.assign(rawN, -1);
  d->netName.resize(static_cast<std::size_t>(d->componentCount));
  std::vector<bool> named(static_cast<std::size_t>(d->componentCount), false);
  for (ShapeId i = 0; i < rawN; ++i) {
    const std::uint32_t b = d->nodeStart[i], e = d->nodeStart[i + 1];
    if (b == e) continue;
    const int c = d->nodeComp[b];
    bool spans = false;
    for (std::uint32_t n = b + 1; n < e && !spans; ++n) spans = d->nodeComp[n] != c;
    if (spans) continue;
    d->shapeComp[i] = c;
    const NetId net = m.shape(i).net;
    if (net != kNoNet && !named[static_cast<std::size_t>(c)]) {
      d->netName[static_cast<std::size_t>(c)] = m.netName(net);
      named[static_cast<std::size_t>(c)] = true;
    }
  }
  return d;
}

}  // namespace

Connectivity::Connectivity(const Module& m) : d_(m.connectivity_.load(m.stamp())) {
  if (d_) {
    OBS_COUNT("connectivity.reused");
    return;
  }
  d_ = extract(m);
  m.connectivity_.park(d_, m.stamp());
}

int Connectivity::componentCount() const { return d_->componentCount; }

bool Connectivity::connected(ShapeId a, ShapeId b) const {
  if (a >= d_->shapeComp.size() || b >= d_->shapeComp.size()) return false;
  for (std::uint32_t na = d_->nodeStart[a]; na < d_->nodeStart[a + 1]; ++na)
    for (std::uint32_t nb = d_->nodeStart[b]; nb < d_->nodeStart[b + 1]; ++nb)
      if (d_->nodeComp[na] == d_->nodeComp[nb]) return true;
  return false;
}

int Connectivity::componentOf(ShapeId id) const {
  return id < d_->shapeComp.size() ? d_->shapeComp[id] : -1;
}

int Connectivity::componentAt(ShapeId shape, Point p) const {
  if (shape >= d_->shapeComp.size()) return -1;
  for (std::uint32_t n = d_->nodeStart[shape]; n < d_->nodeStart[shape + 1]; ++n)
    if (d_->nodeBox[n].contains(p)) return d_->nodeComp[n];
  return -1;
}

const std::string& Connectivity::netNameOf(int comp) const {
  static const std::string kUnnamed;
  if (comp < 0 || comp >= d_->componentCount) return kUnnamed;
  return d_->netName[static_cast<std::size_t>(comp)];
}

std::vector<std::vector<ShapeId>> Connectivity::components() const {
  std::vector<std::vector<ShapeId>> out(static_cast<std::size_t>(d_->componentCount));
  for (ShapeId i = 0; i < d_->shapeComp.size(); ++i)
    if (const int c = d_->shapeComp[i]; c >= 0) out[static_cast<std::size_t>(c)].push_back(i);
  return out;
}

}  // namespace amg::db
