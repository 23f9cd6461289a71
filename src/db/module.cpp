#include "db/module.h"

#include <algorithm>
#include <atomic>

#include "obs/obs.h"

namespace amg::db {

std::uint64_t detail::IdentityStamp::next() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

Module::Module(const tech::Technology& tech, std::string name)
    : tech_(&tech), name_(std::move(name)) {
  netNames_.emplace_back("");  // NetId 0 == kNoNet, the anonymous potential
}

NetId Module::net(std::string_view name) {
  if (name.empty()) return kNoNet;
  if (auto n = findNet(name)) return *n;
  netNames_.emplace_back(name);
  touch();
  return static_cast<NetId>(netNames_.size() - 1);
}

std::optional<NetId> Module::findNet(std::string_view name) const {
  for (std::size_t i = 1; i < netNames_.size(); ++i)
    if (netNames_[i] == name) return static_cast<NetId>(i);
  return std::nullopt;
}

void Module::moveNet(NetId from, NetId to) {
  for (Shape& s : shapes_)
    if (s.alive && s.net == from) s.net = to;
  for (ArrayRecord& a : arrays_)
    if (a.net == from) a.net = to;
  touch();
}

ShapeId Module::addShape(Shape s) {
  if (s.box.empty())
    throw DesignRuleError("module '" + name_ + "': refusing to add empty rectangle on layer '" +
                          tech_->info(s.layer).name + "'");
  aliveCount_ += s.alive ? 1 : 0;
  shapes_.push_back(std::move(s));
  touch();
  return static_cast<ShapeId>(shapes_.size() - 1);
}

ShapeId Module::appendRawShape(Shape s) {
  aliveCount_ += s.alive ? 1 : 0;
  shapes_.push_back(std::move(s));
  touch();
  return static_cast<ShapeId>(shapes_.size() - 1);
}

void Module::replaceRawShape(ShapeId id, Shape s) {
  Shape& slot = shapes_.at(id);
  aliveCount_ += (s.alive ? 1 : 0);
  aliveCount_ -= (slot.alive ? 1 : 0);
  slot = std::move(s);
  touch();
}

void Module::removeShape(ShapeId id) {
  if (shapes_.at(id).alive) --aliveCount_;
  shapes_[id].alive = false;
  touch();
}

std::vector<ShapeId> Module::shapeIds() const {
  std::vector<ShapeId> out;
  out.reserve(shapes_.size());
  for (ShapeId i = 0; i < shapes_.size(); ++i)
    if (shapes_[i].alive) out.push_back(i);
  return out;
}

namespace {

/// The one place a shape index is built: every alive shape, in id order.
std::shared_ptr<geom::SpatialIndex> buildShapeIndex(const Module& m) {
  OBS_COUNT("db.index.builds");
  auto idx = std::make_shared<geom::SpatialIndex>();
  for (ShapeId id : m.shapeIds()) idx->insert(id, m.shape(id).layer, m.shape(id).box);
  return idx;
}

}  // namespace

std::shared_ptr<const geom::SpatialIndex> Module::shapeIndex() const {
  if (auto idx = index_.load(stamp_.v)) return idx;
  return buildShapeIndex(*this);
}

std::shared_ptr<geom::SpatialIndex> Module::takeShapeIndex() {
  if (auto idx = index_.take(stamp_.v)) return idx;
  return buildShapeIndex(*this);
}

std::vector<ShapeId> Module::shapesOn(LayerId layer) const {
  std::vector<ShapeId> out;
  for (ShapeId i = 0; i < shapes_.size(); ++i)
    if (shapes_[i].alive && shapes_[i].layer == layer) out.push_back(i);
  return out;
}

void Module::addPort(std::string name, Point at, LayerId layer, NetId net) {
  ports_.push_back(PortDef{std::move(name), at, layer, net});
  touch();
}

const PortDef& Module::port(std::string_view name) const {
  for (const PortDef& p : ports_)
    if (p.name == name) return p;
  throw DesignRuleError("module '" + name_ + "': no port '" + std::string(name) + "'");
}

bool Module::hasPort(std::string_view name) const {
  for (const PortDef& p : ports_)
    if (p.name == name) return true;
  return false;
}

Box Module::bbox() const {
  Box bb;
  for (const Shape& s : shapes_) {
    if (!s.alive) continue;
    if (tech_->info(s.layer).kind == tech::LayerKind::Marker) continue;
    bb = bb.unite(s.box);
  }
  return bb;
}

Box Module::bboxAll() const {
  Box bb;
  for (const Shape& s : shapes_)
    if (s.alive) bb = bb.unite(s.box);
  return bb;
}

void Module::translate(Coord dx, Coord dy) {
  for (Shape& s : shapes_)
    if (s.alive) s.box = s.box.translated(dx, dy);
  for (PortDef& p : ports_) p.at = Point{p.at.x + dx, p.at.y + dy};
  touch();
}

void Module::transform(const geom::Transform& tf) {
  touch();
  for (PortDef& p : ports_) p.at = tf.apply(p.at);
  for (Shape& s : shapes_) {
    if (!s.alive) continue;
    s.box = tf.apply(s.box);
    EdgeFlags nf;
    for (Side side : {Side::Left, Side::Bottom, Side::Right, Side::Top})
      nf.setVariable(tf.apply(side), s.varEdges.variable(side));
    s.varEdges = nf;
  }
}

std::vector<ShapeId> Module::merge(const Module& other, const geom::Transform& tf) {
  touch();
  // Map other's nets into this module by name.
  std::vector<NetId> netMap(other.netNames_.size(), kNoNet);
  for (std::size_t i = 1; i < other.netNames_.size(); ++i)
    netMap[i] = net(other.netNames_[i]);

  std::vector<ShapeId> idMap(other.shapes_.size(), kNoShape);
  for (ShapeId i = 0; i < other.shapes_.size(); ++i) {
    const Shape& src = other.shapes_[i];
    if (!src.alive) continue;
    Shape s = src;
    s.box = tf.apply(src.box);
    EdgeFlags nf;
    for (Side side : {Side::Left, Side::Bottom, Side::Right, Side::Top})
      nf.setVariable(tf.apply(side), src.varEdges.variable(side));
    s.varEdges = nf;
    s.net = netMap[src.net];
    idMap[i] = addShape(std::move(s));
  }

  auto mapIds = [&](const std::vector<ShapeId>& ids) {
    std::vector<ShapeId> out;
    out.reserve(ids.size());
    for (ShapeId id : ids)
      if (id < idMap.size() && idMap[id] != kNoShape) out.push_back(idMap[id]);
    return out;
  };

  for (const EncloseRecord& r : other.encloses_) {
    if (r.inner == kNoShape || idMap[r.inner] == kNoShape) continue;
    EncloseRecord nr;
    nr.outers = mapIds(r.outers);
    nr.inner = idMap[r.inner];
    if (!nr.outers.empty()) encloses_.push_back(std::move(nr));
  }
  for (const PortDef& p : other.ports_) {
    PortDef np = p;
    np.at = tf.apply(p.at);
    np.net = netMap[p.net];
    ports_.push_back(std::move(np));
  }
  for (const ArrayRecord& r : other.arrays_) {
    ArrayRecord nr;
    nr.containers = mapIds(r.containers);
    nr.elemLayer = r.elemLayer;
    nr.net = netMap[r.net];
    nr.elems = mapIds(r.elems);
    if (!nr.containers.empty()) arrays_.push_back(std::move(nr));
  }
  return idMap;
}

}  // namespace amg::db
