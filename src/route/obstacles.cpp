#include "route/obstacles.h"

#include "obs/obs.h"

namespace amg::route {

Obstacles::Obstacles(db::Module& m) : m_(&m), idx_(m.takeShapeIndex()) {}

void Obstacles::add(db::ShapeId id) {
  // A repeated id unions its (identical) coverage; queries deduplicate.
  idx_->insert(id, m_->shape(id).layer, m_->shape(id).box);
}

std::optional<db::ShapeId> Obstacles::firstConflict(const db::Shape& s) const {
  const tech::Technology& t = m_->technology();
  if (t.info(s.layer).kind == tech::LayerKind::Marker) return std::nullopt;
  OBS_COUNT("route.obstacles.probes");
  // Every conflict is within the largest spacing rule of s.layer (the
  // no-rule overlap case needs halo 0, subsumed by any non-negative halo).
  idx_->query(s.box.expanded(t.maxSpacing(s.layer)), scratch_);
  OBS_COUNT_N("route.obstacles.candidates", scratch_.size());
  for (const db::ShapeId id : scratch_) {
    if (!m_->isAlive(id)) continue;
    if (conflicts(t, s, m_->shape(id))) {
      OBS_COUNT("route.obstacles.conflicts");
      return id;
    }
  }
  return std::nullopt;
}

}  // namespace amg::route
