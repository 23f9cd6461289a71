// Internal to the connectivity extractor: the node and join rules that
// Connectivity (connectivity.cpp, candidates from geom::SpatialIndex)
// shares with the all-pairs oracle under tests/oracle/, so the
// differential tests compare candidate enumeration only.  Not part of the
// public API.
#pragma once

#include <vector>

#include "db/connectivity.h"

namespace amg::db::detail {

/// Alive conducting or cut shape: the extractor's node sources.
bool isElectrical(const Module& m, ShapeId i);

/// The electrical fragments of a diffusion box given the gate-poly boxes
/// overlapping it (in shape-id order): the box minus the channels, or the
/// whole box when it is fully gated or has no cutters.
std::vector<Box> fragments(const Box& box, const std::vector<Box>& cutters);

/// Whether node `a` (a fragment `boxA` of shape `sa`) and node `b` join
/// one component: same-layer shapes by touching, a cut and a shape on a
/// layer it connects by area overlap — unless the cut lands entirely on a
/// shape the other layer must enclose (an emitter inside its base), which
/// shields it.  `shieldCandidates(cutBox)` must return every shape whose
/// box contains `cutBox` (extra ids are harmless).
template <class ShieldCandidates>
bool nodesJoin(const Module& m, ShapeId sa, const Box& boxA, ShapeId sb,
               const Box& boxB, ShieldCandidates&& shieldCandidates) {
  if (!electricallyTouching(boxA, boxB)) return false;
  const tech::Technology& t = m.technology();
  const Shape& a = m.shape(sa);
  const Shape& b = m.shape(sb);
  if (a.layer == b.layer) return true;  // same conducting layer (or stacked cuts)
  const bool aCut = t.info(a.layer).kind == tech::LayerKind::Cut;
  const bool bCut = t.info(b.layer).kind == tech::LayerKind::Cut;
  if (!aCut && !bCut) return false;
  const Shape& cut = aCut ? a : b;
  const Box& cutBox = aCut ? boxA : boxB;
  const Box& other = aCut ? boxB : boxA;
  const tech::LayerId otherLayer = aCut ? b.layer : a.layer;
  // An abutting cut does not make contact.
  if (!cutBox.overlaps(other)) return false;
  bool connects = false;
  for (const auto& [la, lb] : t.cutConnections(cut.layer))
    if (otherLayer == la || otherLayer == lb) {
      connects = true;
      break;
    }
  if (!connects) return false;
  for (const auto xi : shieldCandidates(cutBox)) {
    const Shape& x = m.shape(xi);
    if (x.layer == otherLayer || x.layer == cut.layer) continue;
    if (!t.enclosure(otherLayer, x.layer).has_value()) continue;
    if (!t.info(x.layer).conducting) continue;
    if (x.box.contains(cutBox)) return false;
  }
  return true;
}

}  // namespace amg::db::detail
