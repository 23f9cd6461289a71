#include "drc/drc.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "db/connectivity.h"
#include "drc/detail.h"
#include "geom/spatial.h"
#include "geom/subtract.h"
#include "obs/obs.h"

namespace amg::drc {

namespace detail {

std::string shapeDesc(const db::Module& m, db::ShapeId id) {
  const db::Shape& s = m.shape(id);
  std::ostringstream os;
  os << m.technology().info(s.layer).name << ' ' << s.box;
  if (s.net != db::kNoNet) os << " net=" << m.netName(s.net);
  return os.str();
}

void checkWidths(const db::Module& m, std::vector<Violation>& out) {
  const tech::Technology& t = m.technology();
  for (db::ShapeId id : m.shapeIds()) {
    const db::Shape& s = m.shape(id);
    const auto& info = t.info(s.layer);
    if (info.kind == tech::LayerKind::Marker) continue;
    if (info.kind == tech::LayerKind::Cut) {
      const auto [cw, ch] = t.cutSize(s.layer);
      if (s.box.width() != cw || s.box.height() != ch)
        out.push_back(Violation{ViolationKind::CutSize, id, db::kNoShape, s.box,
                                "cut is not the exact technology size: " +
                                    shapeDesc(m, id)});
      continue;
    }
    if (auto w = t.findMinWidth(s.layer)) {
      if (s.box.width() < *w || s.box.height() < *w)
        out.push_back(Violation{ViolationKind::MinWidth, id, db::kNoShape, s.box,
                                "below minimum width " + std::to_string(*w) + ": " +
                                    shapeDesc(m, id)});
    }
  }
}

void checkRegions(const db::Module& m, const CheckOptions& options,
                  std::vector<Violation>& out) {
  if (options.latchUp) {
    for (const Box& piece : uncoveredActive(m))
      out.push_back(Violation{ViolationKind::LatchUp, db::kNoShape, db::kNoShape, piece,
                              "active area " + piece.str() +
                                  " not covered by a substrate contact guard"});
  }
  if (options.wellEnclosure) {
    for (const Box& piece : unenclosedPdiff(m))
      out.push_back(Violation{ViolationKind::Enclosure, db::kNoShape, db::kNoShape,
                              piece,
                              "pdiff " + piece.str() + " not enclosed by an n-well"});
  }
}

}  // namespace detail

namespace {

using db::Module;
using db::Shape;
using db::ShapeId;
using tech::LayerKind;
using tech::Technology;

/// Spacing candidates come from the index within the per-layer max-rule
/// halo; ids ascending keeps the violation order canonical.
void checkSpacings(const Module& m, const geom::SpatialIndex& idx,
                   std::vector<Violation>& out) {
  const Technology& t = m.technology();
  const auto ids = m.shapeIds();
  // Looked up on first need: only a same-layer pair closer than its rule
  // asks for the same-net exemption.  The lookup takes the extraction
  // parked on the module, or builds and parks it for extractMos and lvs
  // to share (db/connectivity.h).
  std::optional<db::Connectivity> conn;
  auto connected = [&](ShapeId a, ShapeId b) {
    if (!conn) conn.emplace(m);
    return conn->connected(a, b);
  };

  const auto universe =
      static_cast<std::uint64_t>(ids.size()) * (ids.empty() ? 0 : ids.size() - 1) / 2;
  OBS_COUNT_N("drc.spacing.universe", universe);
  std::vector<std::uint32_t> cand;
  std::uint64_t candTotal = 0;
  for (const ShapeId ia : ids) {
    const Shape& a = m.shape(ia);
    idx.query(a.box.expanded(t.maxSpacing(a.layer)), cand);
    for (const std::uint32_t ib : cand) {
      if (ib <= ia) continue;
      ++candTotal;
      if (auto v = detail::spacingViolation(m, t, ia, ib, connected))
        out.push_back(std::move(*v));
    }
  }
  OBS_COUNT_N("drc.spacing.candidates", candTotal);
  if (universe > candTotal) OBS_COUNT_N("drc.spacing.pruned", universe - candTotal);
}

void checkEnclosures(const Module& m, const geom::SpatialIndex& idx,
                     std::vector<Violation>& out) {
  const Technology& t = m.technology();
  std::vector<std::uint32_t> cand;
  // Only covers reaching the margin region can subtract area.
  auto coversOn = [&](tech::LayerId l, const Box& region) {
    idx.query(l, region, cand);
    std::vector<Box> covers;
    for (const std::uint32_t sid : cand) covers.push_back(m.shape(sid).box);
    return covers;
  };
  for (ShapeId id : m.shapeIds()) {
    if (t.info(m.shape(id).layer).kind != LayerKind::Cut) continue;
    if (auto v = detail::enclosureViolation(m, id, coversOn)) out.push_back(std::move(*v));
  }
}

}  // namespace

const char* violationName(ViolationKind k) {
  switch (k) {
    case ViolationKind::MinWidth: return "min-width";
    case ViolationKind::CutSize: return "cut-size";
    case ViolationKind::Spacing: return "spacing";
    case ViolationKind::Enclosure: return "enclosure";
    case ViolationKind::LatchUp: return "latch-up";
  }
  return "?";
}

std::vector<Box> unenclosedPdiff(const db::Module& m) {
  const Technology& t = m.technology();
  const auto pdiff = t.findLayer("pdiff");
  const auto nwell = t.findLayer("nwell");
  std::vector<Box> out;
  if (!pdiff || !nwell) return out;
  const Coord margin = t.enclosure(*nwell, *pdiff).value_or(0);
  std::vector<Box> wells;
  for (ShapeId id : m.shapesOn(*nwell))
    wells.push_back(m.shape(id).box.expanded(-margin));
  for (ShapeId id : m.shapesOn(*pdiff)) {
    auto rest = geom::subtractAll({m.shape(id).box}, wells);
    out.insert(out.end(), rest.begin(), rest.end());
  }
  return out;
}

std::vector<Box> latchUpGuards(const db::Module& m) {
  const Technology& t = m.technology();
  std::vector<Box> guards;
  if (t.substrateTieLayer() == tech::kNoLayer || t.latchUpRadius() <= 0) return guards;
  for (ShapeId id : m.shapesOn(t.substrateTieLayer()))
    guards.push_back(m.shape(id).box.expanded(t.latchUpRadius()));
  return guards;
}

std::vector<Box> uncoveredActive(const db::Module& m) {
  const Technology& t = m.technology();
  const auto guards = latchUpGuards(m);
  std::vector<Box> uncovered;
  for (tech::LayerId l : t.activeLayers()) {
    if (l == t.substrateTieLayer()) continue;
    for (ShapeId id : m.shapesOn(l)) {
      // "If these rectangles do not enclose completely the other rectangles
      // only the overlapping part is cut while the remaining part of the
      // rectangle is still stored" — exactly subtractAll.
      auto rest = geom::subtractAll({m.shape(id).box}, guards);
      uncovered.insert(uncovered.end(), rest.begin(), rest.end());
    }
  }
  return uncovered;
}

std::vector<Violation> check(const db::Module& m, const CheckOptions& options) {
  OBS_COUNT("drc.checks");
  obs::Span span("drc.check");
  span.arg("module", m.name())
      .arg("shapes", static_cast<std::uint64_t>(m.shapeCount()));
  std::vector<Violation> out;
  detail::checkWidths(m, out);
  const std::shared_ptr<const geom::SpatialIndex> idx = m.shapeIndex();
  checkSpacings(m, *idx, out);
  checkEnclosures(m, *idx, out);
  detail::checkRegions(m, options, out);
  // Violation counts by rule — the names are dynamic (one counter per
  // kind), so this goes through the registry directly, not OBS_COUNT.
  if (obs::statsEnabled() && !out.empty()) {
    for (const Violation& v : out)
      obs::Stats::global()
          .counter(std::string("drc.violations.") + violationName(v.kind))
          .add();
  }
  span.arg("violations", static_cast<std::uint64_t>(out.size()));
  OBS_LOG(Debug, "drc.check",
          "module '" + m.name() + "': " + std::to_string(out.size()) +
              " violation(s)");
  return out;
}

void expectClean(const db::Module& m, const CheckOptions& options) {
  const auto v = check(m, options);
  if (v.empty()) return;
  std::ostringstream os;
  os << "module '" << m.name() << "': " << v.size() << " DRC violation(s):";
  for (std::size_t i = 0; i < v.size() && i < 8; ++i)
    os << "\n  [" << violationName(v[i].kind) << "] " << v[i].message;
  if (v.size() > 8) os << "\n  ...";
  throw DesignRuleError(os.str());
}

namespace {

/// True when `cand` can be added to `m` without breaking spacing rules or
/// overlapping existing mask geometry.  Candidates come from a halo visit
/// on `idx` (which must cover every alive shape of `m`) that stops at the
/// first conflict; shapes beyond the max-rule halo can neither violate a
/// rule nor overlap.
bool placementLegal(const Module& m, const Shape& cand, const geom::SpatialIndex& idx) {
  const Technology& t = m.technology();
  return !idx.visit(cand.box.expanded(t.maxSpacing(cand.layer)), [&](std::uint32_t id) {
    const Shape& s = m.shape(id);
    if (t.info(s.layer).kind == LayerKind::Marker) return false;
    if (auto rule = t.minSpacing(cand.layer, s.layer))
      return gapX(cand.box, s.box) < *rule && gapY(cand.box, s.box) < *rule;
    return cand.box.overlaps(s.box);  // no rule, but a stray overlap would change devices
  });
}

}  // namespace

int insertSubstrateContacts(db::Module& m, const std::string& netName) {
  obs::Span span("drc.substrate_contacts");
  span.arg("module", m.name());
  const Technology& t = m.technology();
  const tech::LayerId tie = t.substrateTieLayer();
  if (tie == tech::kNoLayer)
    throw DesignRuleError("technology has no substrate tie layer");
  const tech::LayerId contact = t.layer("contact");
  const tech::LayerId metal1 = t.layer("metal1");
  const auto [cw, ch] = t.cutSize(contact);
  const Coord tieEnc = t.enclosure(tie, contact).value_or(0);
  const Coord metEnc = t.enclosure(metal1, contact).value_or(0);
  const Coord tieSize = std::max(t.minWidth(tie), std::max(cw, ch) + 2 * tieEnc);
  const db::NetId net = m.net(netName);

  // The module's index, grown as contacts land and parked again for the
  // sign-off that follows: the ring search probes hundreds of positions
  // against the whole module.
  const std::shared_ptr<geom::SpatialIndex> idx = m.takeShapeIndex();

  int inserted = 0;
  for (int round = 0; round < 64; ++round) {
    const auto uncovered = uncoveredActive(m);
    if (uncovered.empty()) break;

    const Box piece = uncovered.front();
    // Search positions on expanding rings around the uncovered piece; any
    // position within latchUpRadius of the piece covers it.
    const Coord step = tieSize + 3000;
    bool placed = false;
    for (int ring = 1; ring <= 40 && !placed; ++ring) {
      for (int ix = -ring; ix <= ring && !placed; ++ix) {
        for (int iy = -ring; iy <= ring && !placed; ++iy) {
          if (std::max(std::abs(ix), std::abs(iy)) != ring) continue;
          const Point c{piece.center().x + ix * step, piece.center().y + iy * step};
          OBS_COUNT("drc.substrate.probes");
          const Shape tieShape =
              db::makeShape(Box::centredOn(c, tieSize, tieSize), tie, net);
          // The guard from this position must still cover the piece.
          if (!tieShape.box.expanded(t.latchUpRadius()).contains(piece)) continue;
          const Shape metShape = db::makeShape(
              tieShape.box.expanded(-(tieEnc - metEnc)), metal1, net);
          const Shape cutShape = db::makeShape(Box::centredOn(c, cw, ch), contact, net);
          if (!placementLegal(m, tieShape, *idx) || !placementLegal(m, metShape, *idx) ||
              !placementLegal(m, cutShape, *idx))
            continue;

          idx->insert(m.addShape(tieShape), tieShape.layer, tieShape.box);
          idx->insert(m.addShape(metShape), metShape.layer, metShape.box);
          idx->insert(m.addShape(cutShape), cutShape.layer, cutShape.box);
          ++inserted;
          placed = true;
        }
      }
    }
    if (!placed)
      throw DesignRuleError(
          "insertSubstrateContacts: no legal position found near " + piece.str());
  }
  m.parkShapeIndex(idx);  // every contact added was inserted
  OBS_COUNT_N("drc.substrate.inserted", inserted);
  span.arg("inserted", inserted);
  return inserted;
}

}  // namespace amg::drc
