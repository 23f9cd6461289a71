#include "oracle/spatial.h"

#include <algorithm>
#include <numeric>

#include "compact/detail.h"
#include "db/connectivity.h"
#include "db/connectivity_detail.h"
#include "drc/detail.h"
#include "route/obstacles.h"

namespace amg::oracle {

using db::Module;
using db::Shape;
using db::ShapeId;

// --------------------------------------------------------------------------
// Compaction
// --------------------------------------------------------------------------

namespace {

/// Every live target shape, whatever the window: the all-pairs scan.  It
/// ignores inserts because it reads the target's current shapes on each
/// lookup, and offers front-first walks in id order without ever asking
/// the cutoff.
class EveryShape final : public compact::detail::Candidates {
 public:
  explicit EveryShape(const Module& target) : target_(target) {}
  void insert(ShapeId, tech::LayerId, const Box&) override {}
  bool walkFromFront(const Box&, Side, geom::SpatialIndex::Visitor fn,
                     geom::SpatialIndex::Cutoff) const override {
    for (ShapeId id : target_.shapeIds())
      if (fn(id)) return true;
    return false;
  }

 private:
  const Module& target_;
};

}  // namespace

compact::Result bruteCompact(Module& target, const Module& obj, Dir dir,
                             const compact::Options& options) {
  EveryShape every(target);
  return compact::detail::compactStep(target, obj, dir, options, every);
}

// --------------------------------------------------------------------------
// DRC
// --------------------------------------------------------------------------

std::vector<drc::Violation> bruteCheck(const Module& m, const drc::CheckOptions& options) {
  std::vector<drc::Violation> out;
  drc::detail::checkWidths(m, out);
  const tech::Technology& t = m.technology();
  const auto ids = m.shapeIds();
  std::optional<db::Connectivity> conn;
  auto connected = [&](ShapeId a, ShapeId b) {
    if (!conn) conn.emplace(m);
    return conn->connected(a, b);
  };
  for (std::size_t i = 0; i < ids.size(); ++i)
    for (std::size_t j = i + 1; j < ids.size(); ++j)
      if (auto v = drc::detail::spacingViolation(m, t, ids[i], ids[j], connected))
        out.push_back(std::move(*v));
  auto coversOn = [&](tech::LayerId l, const Box&) {
    std::vector<Box> covers;
    for (ShapeId sid : m.shapesOn(l)) covers.push_back(m.shape(sid).box);
    return covers;
  };
  for (ShapeId id : ids)
    if (t.info(m.shape(id).layer).kind == tech::LayerKind::Cut)
      if (auto v = drc::detail::enclosureViolation(m, id, coversOn))
        out.push_back(std::move(*v));
  drc::detail::checkRegions(m, options, out);
  return out;
}

std::vector<drc::ExtractedMos> bruteExtractMos(const Module& m) {
  const db::Connectivity conn(m);
  const std::vector<ShapeId> ids = m.shapeIds();
  std::vector<drc::ExtractedMos> out;
  for (const ShapeId gi : ids)
    for (const ShapeId di : ids)
      if (auto dev = drc::detail::mosAt(m, conn, gi, di)) out.push_back(std::move(*dev));
  return out;
}

// --------------------------------------------------------------------------
// Connectivity
// --------------------------------------------------------------------------

BruteConnectivity::BruteConnectivity(const Module& m) : m_(&m) {
  const tech::Technology& t = m.technology();
  const std::vector<ShapeId> all = m.shapeIds();
  std::vector<Box> gatePoly;
  for (ShapeId i : all)
    if (t.info(m.shape(i).layer).kind == tech::LayerKind::Poly)
      gatePoly.push_back(m.shape(i).box);

  struct Node {
    ShapeId shape;
    Box box;
  };
  std::vector<Node> nodes;
  nodesOf_.assign(m.rawSize(), {});
  for (ShapeId i = 0; i < m.rawSize(); ++i) {
    if (!db::detail::isElectrical(m, i)) continue;
    const Shape& s = m.shape(i);
    std::vector<Box> cutters;
    if (t.info(s.layer).kind == tech::LayerKind::Diffusion)
      for (const Box& g : gatePoly)
        if (g.overlaps(s.box)) cutters.push_back(g);
    for (const Box& p : db::detail::fragments(s.box, cutters)) {
      nodesOf_[i].push_back(static_cast<int>(nodes.size()));
      nodes.push_back(Node{i, p});
    }
  }

  std::vector<int> parent(nodes.size());
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      const int up = parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)] = up;
    }
    return x;
  };
  auto everyShape = [&](const Box&) -> const std::vector<ShapeId>& { return all; };
  // Every later node is a candidate.  The list is materialized like the
  // index's query result, so bench_spatial compares enumeration strategies
  // at equal per-candidate cost.
  std::vector<std::size_t> bCand;
  for (std::size_t a = 0; a < nodes.size(); ++a) {
    bCand.clear();
    for (std::size_t b = a + 1; b < nodes.size(); ++b) bCand.push_back(b);
    for (const std::size_t b : bCand)
      if (db::detail::nodesJoin(m, nodes[a].shape, nodes[a].box, nodes[b].shape,
                                nodes[b].box, everyShape)) {
        const int ra = find(static_cast<int>(a)), rb = find(static_cast<int>(b));
        if (ra != rb) parent[static_cast<std::size_t>(rb)] = ra;
      }
  }

  for (const Node& n : nodes) nodeBox_.push_back(n.box);

  // Dense component indices in order of first node.
  std::vector<int> rootComp(nodes.size(), -1);
  nodeComp_.resize(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    int& c = rootComp[static_cast<std::size_t>(find(static_cast<int>(i)))];
    if (c == -1) c = componentCount_++;
    nodeComp_[i] = c;
  }
}

int BruteConnectivity::componentOf(ShapeId id) const {
  if (id >= nodesOf_.size() || nodesOf_[id].empty()) return -1;
  const int first = nodeComp_[static_cast<std::size_t>(nodesOf_[id].front())];
  for (const int n : nodesOf_[id])
    if (nodeComp_[static_cast<std::size_t>(n)] != first) return -1;
  return first;
}

std::vector<std::vector<ShapeId>> BruteConnectivity::components() const {
  std::vector<std::vector<ShapeId>> out(static_cast<std::size_t>(componentCount_));
  for (ShapeId i = 0; i < nodesOf_.size(); ++i)
    if (const int c = componentOf(i); c >= 0) out[static_cast<std::size_t>(c)].push_back(i);
  return out;
}

int BruteConnectivity::componentAt(ShapeId shape, Point p) const {
  if (shape >= nodesOf_.size()) return -1;
  for (const int n : nodesOf_[shape])
    if (nodeBox_[static_cast<std::size_t>(n)].contains(p))
      return nodeComp_[static_cast<std::size_t>(n)];
  return -1;
}

std::string BruteConnectivity::netNameOf(int comp) const {
  if (comp < 0) return "";
  for (ShapeId i = 0; i < nodesOf_.size(); ++i)
    if (componentOf(i) == comp && m_->shape(i).net != db::kNoNet)
      return m_->netName(m_->shape(i).net);
  return "";
}

// --------------------------------------------------------------------------
// Router obstacles
// --------------------------------------------------------------------------

BruteObstacles::BruteObstacles(const Module& m) : m_(&m), ids_(m.shapeIds()) {}

void BruteObstacles::add(ShapeId id) {
  const auto pos = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (pos == ids_.end() || *pos != id) ids_.insert(pos, id);
}

std::optional<ShapeId> BruteObstacles::firstConflict(const Shape& s) const {
  const tech::Technology& t = m_->technology();
  if (t.info(s.layer).kind == tech::LayerKind::Marker) return std::nullopt;
  for (const ShapeId id : ids_)
    if (m_->isAlive(id) && route::conflicts(t, s, m_->shape(id))) return id;
  return std::nullopt;
}

}  // namespace amg::oracle
