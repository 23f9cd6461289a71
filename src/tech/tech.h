// Technology description: layers and design rules.
//
// "The design rules are stored in a technology description file" (§1) —
// module code never contains a rule value; every geometric decision asks
// this class.  A Technology is immutable once built; decks are either
// built-in (builtin.h) or parsed from the text format (techfile.h).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geom/coord.h"

namespace amg::tech {

/// Index into the technology's layer table.
using LayerId = std::uint16_t;

/// Sentinel for "no layer".
inline constexpr LayerId kNoLayer = 0xFFFF;

/// Broad physical role of a layer; drives defaults (e.g. cut layers have a
/// fixed size) and the DRC checks that apply.
enum class LayerKind : std::uint8_t {
  Well,       ///< n-well / p-well
  Diffusion,  ///< active (LOCOS) areas: source/drain, substrate ties
  Poly,       ///< polysilicon gates and wires
  Metal,      ///< interconnect metals
  Cut,        ///< contacts and vias: fixed-size, connect two layers
  Implant,    ///< base/emitter implants of the bipolar devices
  Marker,     ///< non-mask helper layers (e.g. latch-up guard regions)
};

/// Static per-layer data, including the display attributes of Fig. 4.
struct LayerInfo {
  std::string name;        ///< DSL-visible name, e.g. "metal1"
  LayerKind kind = LayerKind::Marker;
  int cifId = 0;           ///< numeric mask id used by the CIF writer
  std::string color;       ///< SVG fill colour ("#rrggbb")
  std::string pattern;     ///< fill pattern name: solid|diag|cross|dots|hatch
  bool conducting = false; ///< participates in connectivity / potentials
};

/// An immutable set of layers and design rules.
///
/// The rules live in flat tables: one cell per (layer, layer) pair for
/// spacing, enclosure and extension, one per layer for width, cut size and
/// spacing halo, and the cut-connection pairs grouped per cut.  Every query
/// is one load (or one span), so the compactor's innermost loop and the
/// connectivity extractor ask the Technology directly.  The inline queries
/// take ids below layerCount(); the setters, minWidth() and cutSize() check
/// theirs.  A finished Technology is read lock-free by every worker of the
/// parallel optimizer: nothing may mutate it after it is shared.
///
/// Rule queries follow the conventions:
///  * minSpacing(a, b): minimum separation between shapes on a and b that
///    are NOT on the same potential; std::nullopt means the layers may
///    overlap freely (no rule).
///  * enclosure(outer, inner): when a shape on `inner` must lie inside a
///    shape on `outer` (e.g. contact in metal1), the required margin.
///  * extension(a, b): where shapes on `a` and `b` cross (transistor
///    gates), `a` must extend past `b` by this much on both sides.
class Technology {
 public:
  /// --- construction (used by deck builders and the tech-file parser) ---
  explicit Technology(std::string name);

  LayerId addLayer(LayerInfo info);
  void setMinWidth(LayerId l, Coord w);
  void setMinSpacing(LayerId a, LayerId b, Coord s);
  void setEnclosure(LayerId outer, LayerId inner, Coord e);
  void setExtension(LayerId a, LayerId b, Coord e);
  /// Cuts have a technology-fixed footprint.
  void setCutSize(LayerId cut, Coord w, Coord h);
  /// Declare that `cut` electrically connects `a` and `b` when overlapping
  /// both.
  void addCutConnection(LayerId cut, LayerId a, LayerId b);
  /// Latch-up rule: every LOCOS area must be within `r` of a substrate
  /// contact (modelled as the guard rectangle of Fig. 1).
  void setLatchUpRadius(Coord r) { latchUpRadius_ = r; invalidateFingerprint(); }
  /// The marker layer drawn around substrate contacts for the latch-up
  /// check.
  void setGuardLayer(LayerId l) { guardLayer_ = l; invalidateFingerprint(); }
  /// The layer substrate contacts are made of (tie diffusion).
  void setSubstrateTieLayer(LayerId l) { tieLayer_ = l; invalidateFingerprint(); }

  /// --- queries ---------------------------------------------------------
  const std::string& name() const { return name_; }
  std::size_t layerCount() const { return layers_.size(); }
  const LayerInfo& info(LayerId l) const { return layers_.at(l); }

  /// Resolve a layer by name; throws DesignRuleError on unknown names so a
  /// typo in module code produces the paper's "error message".
  LayerId layer(std::string_view name) const;
  std::optional<LayerId> findLayer(std::string_view name) const;

  /// Minimum legal width/height of a shape on `l` (cut layers: exact size).
  Coord minWidth(LayerId l) const;
  /// Like minWidth() but nullopt instead of throwing when no width rule
  /// exists (marker layers); used by the serializer and the DRC checker.
  std::optional<Coord> findMinWidth(LayerId l) const;
  /// Minimum spacing between different-potential shapes, nullopt = layers
  /// may overlap (no rule between them).
  std::optional<Coord> minSpacing(LayerId a, LayerId b) const {
    return fromCell(spacing_[cell(a, b)]);
  }
  /// Largest spacing rule `l` has against any layer (0 when it has none):
  /// the query halo a spatial-index consumer must use so that every pair
  /// (l, *) with gap below its rule is among the candidates.
  Coord maxSpacing(LayerId l) const { return maxSpacing_[l]; }
  /// Required margin of `outer` around `inner`; nullopt if no enclosure
  /// relation exists between the layers.
  std::optional<Coord> enclosure(LayerId outer, LayerId inner) const {
    return fromCell(enclosure_[cell(outer, inner)]);
  }
  /// Required crossing extension (gate endcap / source-drain overhang);
  /// nullopt if the layers have no crossing rule.
  std::optional<Coord> extension(LayerId a, LayerId b) const {
    return fromCell(extension_[cell(a, b)]);
  }
  /// True when extension(a, b) or extension(b, a) exists: the compactor's
  /// "these layers form a device when crossing" test.
  bool formsDevice(LayerId a, LayerId b) const {
    return extension_[cell(a, b)] != kNoRule || extension_[cell(b, a)] != kNoRule;
  }
  /// Exact cut footprint (w, h); throws for layers without a cut size.
  std::pair<Coord, Coord> cutSize(LayerId cut) const;
  /// Like cutSize() but nullopt instead of throwing, for hot paths.
  std::optional<std::pair<Coord, Coord>> findCutSize(LayerId l) const {
    if (cutSize_[l].first == kNoRule) return std::nullopt;
    return cutSize_[l];
  }
  /// True when `cut` connects `a` and `b` (order-insensitive).
  bool cutConnects(LayerId cut, LayerId a, LayerId b) const;
  /// All (a, b) pairs connected by `cut`, in declaration order: a view of
  /// the per-cut table, valid until the next addLayer/addCutConnection.
  std::span<const std::pair<LayerId, LayerId>> cutConnections(LayerId cut) const {
    if (static_cast<std::size_t>(cut) + 1 >= cutStart_.size()) return {};
    return {cutPairs_.data() + cutStart_[cut], cutPairs_.data() + cutStart_[cut + 1]};
  }
  /// All cut layers that can connect `a` and `b` directly.
  std::vector<LayerId> cutsBetween(LayerId a, LayerId b) const;

  Coord latchUpRadius() const { return latchUpRadius_; }
  LayerId guardLayer() const { return guardLayer_; }
  LayerId substrateTieLayer() const { return tieLayer_; }
  /// All diffusion-kind layers (the LOCOS areas of the latch-up rule).
  std::vector<LayerId> activeLayers() const;
  /// All conducting layers.
  std::vector<LayerId> conductingLayers() const;

  /// True when two shapes on layers a and b that touch/overlap are on the
  /// same electrical node *by construction* (same conducting layer).
  bool sameConductor(LayerId a, LayerId b) const { return a == b; }

  /// FNV-1a digest of the saveTechFile() round-trip text: any rule or
  /// layer edit changes it.  Memoized per rule-table state, so per-step
  /// cache-key computation pays the serialization cost once, not per call;
  /// safe to call from several threads concurrently.
  std::uint64_t contentFingerprint() const;

 private:
  /// Table cell value for "no rule".
  static constexpr Coord kNoRule = std::numeric_limits<Coord>::min();

  std::size_t cell(LayerId a, LayerId b) const {
    return static_cast<std::size_t>(a) * layers_.size() + b;
  }
  static std::optional<Coord> fromCell(Coord c) {
    if (c == kNoRule) return std::nullopt;
    return c;
  }
  /// Throws DesignRuleError unless `l` names a layer of this deck.
  void checkLayer(LayerId l) const;

  std::string name_;
  std::vector<LayerInfo> layers_;
  std::unordered_map<std::string, LayerId> byName_;
  std::vector<Coord> minWidth_;                   // per layer, as set
  std::vector<std::pair<Coord, Coord>> cutSize_;  // per layer (w, h)
  std::vector<Coord> maxSpacing_;                 // per layer, 0 = no rule
  std::vector<Coord> spacing_;                    // per pair, symmetric
  std::vector<Coord> enclosure_;                  // per pair (outer, inner)
  std::vector<Coord> extension_;                  // per pair, ordered
  struct CutConn {
    LayerId cut, a, b;
  };
  std::vector<CutConn> cutConns_;  // declaration order
  // cutConns_ grouped by cut: the pairs of cut c are
  // cutPairs_[cutStart_[c], cutStart_[c + 1]).
  std::vector<std::pair<LayerId, LayerId>> cutPairs_;
  std::vector<std::uint32_t> cutStart_;
  void rebuildCutTable();
  Coord latchUpRadius_ = 0;
  LayerId guardLayer_ = kNoLayer;
  LayerId tieLayer_ = kNoLayer;

  // Lazily computed content fingerprint.  The slot is shared on copy and
  // replaced wholesale by every mutation, so copies stay independent.
  struct FingerprintSlot;
  void invalidateFingerprint();
  mutable std::shared_ptr<FingerprintSlot> fingerprint_;
};

}  // namespace amg::tech
