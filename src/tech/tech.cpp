#include "tech/tech.h"

#include <algorithm>
#include <mutex>

#include "tech/techfile.h"
#include "util/hash.h"

namespace amg::tech {

/// One lazily computed fingerprint per rule-table state.  A mutation
/// replaces the whole slot (never the value inside a published slot), so a
/// copy that shares the old slot keeps its own answer.
struct Technology::FingerprintSlot {
  std::once_flag once;
  std::uint64_t value = 0;
};

Technology::Technology(std::string name)
    : name_(std::move(name)), fingerprint_(std::make_shared<FingerprintSlot>()) {}

std::uint64_t Technology::contentFingerprint() const {
  FingerprintSlot& slot = *fingerprint_;
  std::call_once(slot.once, [&] { slot.value = util::fnv1a(saveTechFile(*this)); });
  return slot.value;
}

void Technology::invalidateFingerprint() {
  fingerprint_ = std::make_shared<FingerprintSlot>();
}

void Technology::checkLayer(LayerId l) const {
  if (l >= layers_.size())
    throw DesignRuleError("technology '" + name_ + "': layer id " +
                          std::to_string(l) + " is outside the deck");
}

LayerId Technology::addLayer(LayerInfo info) {
  if (byName_.contains(info.name))
    throw DesignRuleError("technology '" + name_ + "': duplicate layer '" + info.name + "'");
  const std::size_t n = layers_.size();
  const auto id = static_cast<LayerId>(n);
  // Re-lay the (n+1)^2 pair tables, keeping every old cell.
  for (std::vector<Coord>* table : {&spacing_, &enclosure_, &extension_}) {
    std::vector<Coord> grown((n + 1) * (n + 1), kNoRule);
    for (std::size_t a = 0; a < n; ++a)
      std::copy_n(table->begin() + a * n, n, grown.begin() + a * (n + 1));
    *table = std::move(grown);
  }
  minWidth_.push_back(kNoRule);
  cutSize_.emplace_back(kNoRule, kNoRule);
  maxSpacing_.push_back(0);
  byName_.emplace(info.name, id);
  layers_.push_back(std::move(info));
  rebuildCutTable();
  invalidateFingerprint();
  return id;
}

void Technology::setMinWidth(LayerId l, Coord w) {
  checkLayer(l);
  minWidth_[l] = w;
  invalidateFingerprint();
}

void Technology::setMinSpacing(LayerId a, LayerId b, Coord s) {
  checkLayer(a);
  checkLayer(b);
  spacing_[cell(a, b)] = spacing_[cell(b, a)] = s;
  // Recompute both halos: an overwrite may lower them.
  for (const LayerId l : {a, b}) {
    maxSpacing_[l] = 0;
    for (LayerId k = 0; k < layers_.size(); ++k)
      if (spacing_[cell(l, k)] != kNoRule)
        maxSpacing_[l] = std::max(maxSpacing_[l], spacing_[cell(l, k)]);
  }
  invalidateFingerprint();
}

void Technology::setEnclosure(LayerId outer, LayerId inner, Coord e) {
  checkLayer(outer);
  checkLayer(inner);
  enclosure_[cell(outer, inner)] = e;
  invalidateFingerprint();
}

void Technology::setExtension(LayerId a, LayerId b, Coord e) {
  checkLayer(a);
  checkLayer(b);
  extension_[cell(a, b)] = e;
  invalidateFingerprint();
}

void Technology::setCutSize(LayerId cut, Coord w, Coord h) {
  checkLayer(cut);
  cutSize_[cut] = {w, h};
  invalidateFingerprint();
}

void Technology::addCutConnection(LayerId cut, LayerId a, LayerId b) {
  cutConns_.push_back(CutConn{cut, a, b});
  rebuildCutTable();
  invalidateFingerprint();
}

void Technology::rebuildCutTable() {
  std::size_t n = layers_.size();
  for (const CutConn& c : cutConns_) n = std::max<std::size_t>(n, c.cut + 1u);
  cutStart_.assign(n + 1, 0);
  for (const CutConn& c : cutConns_) ++cutStart_[c.cut + 1u];
  for (std::size_t l = 0; l < n; ++l) cutStart_[l + 1] += cutStart_[l];
  cutPairs_.resize(cutConns_.size());
  std::vector<std::uint32_t> fill(cutStart_.begin(), cutStart_.end() - 1);
  for (const CutConn& c : cutConns_) cutPairs_[fill[c.cut]++] = {c.a, c.b};
}

LayerId Technology::layer(std::string_view name) const {
  if (auto l = findLayer(name)) return *l;
  throw DesignRuleError("technology '" + name_ + "': unknown layer '" +
                        std::string(name) + "'");
}

std::optional<LayerId> Technology::findLayer(std::string_view name) const {
  auto it = byName_.find(std::string(name));
  if (it == byName_.end()) return std::nullopt;
  return it->second;
}

Coord Technology::minWidth(LayerId l) const {
  checkLayer(l);
  if (auto w = findMinWidth(l)) return *w;
  throw DesignRuleError("technology '" + name_ + "': no minimum width for layer '" +
                        info(l).name + "'");
}

std::optional<Coord> Technology::findMinWidth(LayerId l) const {
  if (minWidth_[l] != kNoRule) return minWidth_[l];
  if (const auto cs = findCutSize(l)) return std::min(cs->first, cs->second);
  return std::nullopt;
}

std::pair<Coord, Coord> Technology::cutSize(LayerId cut) const {
  checkLayer(cut);
  if (auto cs = findCutSize(cut)) return *cs;
  throw DesignRuleError("technology '" + name_ + "': layer '" + info(cut).name +
                        "' has no cut size");
}

bool Technology::cutConnects(LayerId cut, LayerId a, LayerId b) const {
  const auto pairs = cutConnections(cut);
  return std::any_of(pairs.begin(), pairs.end(), [&](const auto& p) {
    return (p.first == a && p.second == b) || (p.first == b && p.second == a);
  });
}

std::vector<LayerId> Technology::cutsBetween(LayerId a, LayerId b) const {
  std::vector<LayerId> out;
  for (const CutConn& c : cutConns_) {
    if ((c.a == a && c.b == b) || (c.a == b && c.b == a)) {
      if (std::find(out.begin(), out.end(), c.cut) == out.end()) out.push_back(c.cut);
    }
  }
  return out;
}

std::vector<LayerId> Technology::activeLayers() const {
  std::vector<LayerId> out;
  for (LayerId l = 0; l < layers_.size(); ++l)
    if (layers_[l].kind == LayerKind::Diffusion) out.push_back(l);
  return out;
}

std::vector<LayerId> Technology::conductingLayers() const {
  std::vector<LayerId> out;
  for (LayerId l = 0; l < layers_.size(); ++l)
    if (layers_[l].conducting) out.push_back(l);
  return out;
}

}  // namespace amg::tech
