// Internal to the design-rule checker: the exact per-pair and per-cut
// rule tests that check() and extractMos() (drc.cpp and extract.cpp,
// candidates from geom::SpatialIndex) share with the all-pairs oracles
// under tests/oracle/, so the differential tests compare candidate
// enumeration only.  Not part of the public API.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "db/connectivity.h"
#include "drc/drc.h"
#include "drc/extract.h"
#include "geom/subtract.h"

namespace amg::drc::detail {

/// "<layer> <box> [net=<name>]" — the shape description in messages.
std::string shapeDesc(const db::Module& m, db::ShapeId id);

/// Min-width and exact-cut-size violations, in shape-id order.
void checkWidths(const db::Module& m, std::vector<Violation>& out);

/// The spacing violation between shapes `ia` < `ib`, if any.  `connected`
/// answers whether two shapes are geometrically connected; connected
/// same-layer shapes are exempt, because the compactor's same-potential
/// merge produces intentional abutments.  It is consulted only for that
/// exemption, so callers can build the extractor lazily.
template <class Connected>
std::optional<Violation> spacingViolation(const db::Module& m, const tech::Technology& t,
                                          db::ShapeId ia, db::ShapeId ib,
                                          Connected&& connected) {
  const db::Shape& a = m.shape(ia);
  const db::Shape& b = m.shape(ib);
  const auto rule = t.minSpacing(a.layer, b.layer);
  if (!rule) return std::nullopt;
  if (gapX(a.box, b.box) >= *rule || gapY(a.box, b.box) >= *rule) return std::nullopt;
  if (a.layer == b.layer && connected(ia, ib)) return std::nullopt;
  return Violation{ViolationKind::Spacing, ia, ib, a.box.unite(b.box),
                   "spacing < " + std::to_string(*rule) + " between " +
                       shapeDesc(m, ia) + " and " + shapeDesc(m, ib)};
}

/// The enclosure violation of cut shape `id`, if any: the cut must be
/// covered, with the rule margin, by both layers of at least one pair it
/// connects.  `coversOn(layer, region)` returns the boxes of `layer` that
/// may cover `region` (every shape reaching it, or simply all of them).
template <class CoversOn>
std::optional<Violation> enclosureViolation(const db::Module& m, db::ShapeId id,
                                            CoversOn&& coversOn) {
  const tech::Technology& t = m.technology();
  const db::Shape& cut = m.shape(id);
  const auto conns = t.cutConnections(cut.layer);
  if (conns.empty()) return std::nullopt;
  for (const auto& [la, lb] : conns) {
    auto coveredBy = [&](tech::LayerId l) {
      const Box region = cut.box.expanded(t.enclosure(l, cut.layer).value_or(0));
      return geom::isCovered(region, coversOn(l, region));
    };
    if (coveredBy(la) && coveredBy(lb)) return std::nullopt;
  }
  return Violation{ViolationKind::Enclosure, id, db::kNoShape, cut.box,
                   "cut not enclosed by any connectable layer pair: " +
                       shapeDesc(m, id)};
}

/// The MOS device where shape `gi` fully crosses shape `di`: `gi` on a
/// poly layer, `di` on a diffusion layer other than the substrate tie,
/// the poly spanning the diffusion along one axis.  Its terminal nets are
/// the components of `conn` on either side of the channel.
std::optional<ExtractedMos> mosAt(const db::Module& m, const db::Connectivity& conn,
                                  db::ShapeId gi, db::ShapeId di);

/// The region checks that follow the shape checks: latch-up guards and,
/// when enabled, n-well enclosure of pdiff.
void checkRegions(const db::Module& m, const CheckOptions& options,
                  std::vector<Violation>& out);

}  // namespace amg::drc::detail
