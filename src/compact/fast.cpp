#include "compact/fast.h"

#include <algorithm>

namespace amg::compact {
namespace {

constexpr Coord kNone = geom::Envelope::kNone;

bool layerIgnored(const Options& opt, tech::LayerId l) {
  return std::find(opt.ignoreLayers.begin(), opt.ignoreLayers.end(), l) !=
         opt.ignoreLayers.end();
}

}  // namespace

FastCompactor::FastCompactor(const tech::Technology& tech, Dir dir)
    : tech_(&tech), dir_(dir) {}

FastCompactor::NetId FastCompactor::internNet(const std::string& name) {
  if (name.empty()) return 0;
  auto [it, inserted] =
      netIds_.try_emplace(name, static_cast<NetId>(netIds_.size() + 1));
  return it->second;
}

FastCompactor::NetId FastCompactor::lookupNet(const std::string& name) const {
  if (name.empty()) return 0;
  const auto it = netIds_.find(name);
  return it == netIds_.end() ? kUnknownNet : it->second;
}

void FastCompactor::addShape(const db::Module& m, db::ShapeId id) {
  const db::Shape& s = m.shape(id);
  const NetId net = s.net == db::kNoNet ? 0 : internNet(m.netName(s.net));
  const Key key{s.layer, net};
  auto [it, inserted] = contours_.try_emplace(key, geom::Contour(dir_));
  it->second.add(s.box);
}

void FastCompactor::addStructure(const db::Module& m) {
  for (db::ShapeId id : m.shapeIds()) addShape(m, id);
}

Coord FastCompactor::required(const db::Module& /*target*/, const db::Module& obj,
                              const Options& options) const {
  Coord best = kNone;
  for (db::ShapeId oi : obj.shapeIds()) {
    const db::Shape& os = obj.shape(oi);
    const NetId objNet = os.net == db::kNoNet ? 0 : lookupNet(obj.netName(os.net));
    const Coord lead = [&] {
      switch (dir_) {
        case Dir::West: return os.box.x1;
        case Dir::East: return -os.box.x2;
        case Dir::South: return os.box.y1;
        case Dir::North: return -os.box.y2;
      }
      return Coord{0};
    }();

    for (const auto& [key, contour] : contours_) {
      // Mirror of requiredGap() in the reference engine, minus
      // avoid-overlap (unsupported in the fast path).
      std::optional<Coord> gap;
      const bool ignored =
          layerIgnored(options, key.layer) || layerIgnored(options, os.layer);
      if (key.layer == os.layer) {
        const bool sameNet = objNet != 0 && key.net == objNet;
        if (sameNet || ignored)
          gap = 0;
        else if (auto s = tech_->minSpacing(os.layer, os.layer))
          gap = *s + options.extraGap;
      } else if (!ignored) {
        if (auto s = tech_->minSpacing(key.layer, os.layer)) gap = *s + options.extraGap;
      }
      if (!gap) continue;
      const Coord front = contour.requiredFront(os.box, *gap);
      if (front == kNone) continue;
      best = std::max(best, front - lead);
    }
  }
  return best;
}

Result FastCompactor::place(db::Module& target, const db::Module& obj,
                            const Options& options) {
  Result res;
  if (target.shapeCount() == 0) {
    res.idMap = target.merge(obj, geom::Transform{});
    for (db::ShapeId id : res.idMap)
      if (id != db::kNoShape) addShape(target, id);
    return res;
  }
  Coord tc = required(target, obj, options);
  if (tc == kNone) {
    const Box tb = target.bboxAll();
    const Box ob = obj.bboxAll();
    geom::Contour c(dir_);
    c.add(tb);
    tc = c.requiredFront(ob, 0) - c.leadingEdge(ob);
  }
  Point tr;
  switch (dir_) {
    case Dir::West: tr = {tc, 0}; break;
    case Dir::East: tr = {-tc, 0}; break;
    case Dir::South: tr = {0, tc}; break;
    case Dir::North: tr = {0, -tc}; break;
  }
  res.translation = tr;
  res.idMap = target.merge(obj, geom::Transform::translate(tr.x, tr.y));
  for (db::ShapeId id : res.idMap)
    if (id != db::kNoShape) addShape(target, id);
  return res;
}

std::size_t FastCompactor::segmentCount() const {
  std::size_t n = 0;
  for (const auto& [key, contour] : contours_) {
    (void)key;
    n += contour.segmentCount();
  }
  return n;
}

}  // namespace amg::compact
