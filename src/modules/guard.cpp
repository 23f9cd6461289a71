#include "modules/guard.h"

#include "primitives/primitives.h"

namespace amg::modules {

int substrateRing(db::Module& m, const std::string& netName) {
  const Technology& t = m.technology();
  const tech::LayerId tie = t.substrateTieLayer();
  if (tie == tech::kNoLayer)
    throw DesignRuleError("technology has no substrate tie layer");
  const db::NetId net = m.net(netName);

  // Ring width: enough for a contact with its tie enclosure.
  const auto [cw, ch] = t.cutSize(t.layer("contact"));
  const Coord tieEnc = t.enclosure(tie, t.layer("contact")).value_or(0);
  const Coord width = std::max(t.minWidth(tie), std::max(cw, ch) + 2 * tieEnc);

  const auto segs = prim::ring(m, tie, width, std::nullopt, {}, net);
  int contacts = 0;
  for (db::ShapeId seg : segs) {
    const auto metal = prim::inbox(m, t.layer("metal1"), std::nullopt, std::nullopt,
                                   net, {seg});
    const auto cuts = prim::array(m, t.layer("contact"), {seg, metal}, net);
    contacts += static_cast<int>(cuts.size());
  }
  return contacts;
}

void substrateContactAt(db::Module& m, Point at, const std::string& netName) {
  const Technology& t = m.technology();
  const tech::LayerId tie = t.substrateTieLayer();
  if (tie == tech::kNoLayer)
    throw DesignRuleError("technology has no substrate tie layer");
  const tech::LayerId contact = t.layer("contact");
  const tech::LayerId metal1 = t.layer("metal1");
  const auto [cw, ch] = t.cutSize(contact);
  const Coord tieEnc = t.enclosure(tie, contact).value_or(0);
  const Coord metEnc = t.enclosure(metal1, contact).value_or(0);
  const Coord size = std::max(t.minWidth(tie), std::max(cw, ch) + 2 * tieEnc);
  const db::NetId net = m.net(netName);

  m.addShape(db::makeShape(Box::centredOn(at, size, size), tie, net));
  m.addShape(db::makeShape(
      Box::centredOn(at, size - 2 * (tieEnc - metEnc), size - 2 * (tieEnc - metEnc)),
      metal1, net));
  m.addShape(db::makeShape(Box::centredOn(at, cw, ch), contact, net));
}

db::ShapeId nwellWithTap(db::Module& m, const std::string& tapNet) {
  const Technology& t = m.technology();
  const tech::LayerId pdiff = t.layer("pdiff");
  const tech::LayerId ndiff = t.layer("ndiff");
  const tech::LayerId contact = t.layer("contact");
  const tech::LayerId metal1 = t.layer("metal1");

  const auto pdiffs = m.shapesOn(pdiff);
  if (pdiffs.empty())
    throw DesignRuleError("nwellWithTap: module has no p-diffusion");
  Box pb;
  for (db::ShapeId id : pdiffs) pb = pb.unite(m.shape(id).box);

  // Tap east of the diffusion at the ndiff-pdiff spacing.
  const auto [cw, ch] = t.cutSize(contact);
  const Coord enc = t.enclosure(ndiff, contact).value_or(0);
  const Coord metEnc = t.enclosure(metal1, contact).value_or(0);
  const Coord tapSize = std::max(t.minWidth(ndiff), std::max(cw, ch) + 2 * enc);
  const Coord gap = t.minSpacing(ndiff, pdiff).value_or(0);
  const Point c{pb.x2 + gap + tapSize / 2, pb.center().y};
  const db::NetId net = m.net(tapNet);
  m.addShape(db::makeShape(Box::centredOn(c, tapSize, tapSize), ndiff, net));
  m.addShape(db::makeShape(
      Box::centredOn(c, tapSize - 2 * (enc - metEnc), tapSize - 2 * (enc - metEnc)),
      metal1, net));
  m.addShape(db::makeShape(Box::centredOn(c, cw, ch), contact, net));

  // The well around every diffusion, with at least the pdiff enclosure.
  std::vector<db::ShapeId> targets = m.shapesOn(pdiff);
  const auto ndiffs = m.shapesOn(ndiff);
  targets.insert(targets.end(), ndiffs.begin(), ndiffs.end());
  const Coord margin = t.enclosure(t.layer("nwell"), pdiff).value_or(0);
  return prim::around(m, t.layer("nwell"), targets, margin, net);
}

}  // namespace amg::modules
