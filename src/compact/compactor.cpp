#include "compact/compactor.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "compact/detail.h"
#include "db/connectivity.h"
#include "geom/spatial.h"
#include "obs/obs.h"
#include "primitives/primitives.h"

namespace amg::compact {

namespace {

using db::Module;
using db::NetId;
using db::Shape;
using db::ShapeId;
using tech::LayerId;
using tech::LayerKind;

/// "Nothing constrains the object yet": below every real translation.
constexpr Coord kNone = std::numeric_limits<Coord>::min();

bool layerIgnored(const Options& opt, LayerId l) {
  return std::find(opt.ignoreLayers.begin(), opt.ignoreLayers.end(), l) !=
         opt.ignoreLayers.end();
}

/// The clearance two shapes must keep, or nullopt when they may overlap
/// freely.  0 means "may abut but not overlap" — used both for the
/// same-potential merge exemption and for avoid-overlap shapes.  This is the
/// innermost loop of every compaction step (shape-pair × search-tree-node in
/// optimization mode); each rule query is one table load.
std::optional<Coord> requiredGap(const tech::Technology& t, const Shape& a, const Shape& b,
                                 bool sameNet, const Options& opt) {
  const bool ignored = layerIgnored(opt, a.layer) || layerIgnored(opt, b.layer);
  if (a.layer == b.layer) {
    // "Edges on the same potential are not considered during compaction,
    // because they can be merged": stop at abutment instead of the rule.
    if (sameNet || ignored) return 0;
    if (auto s = t.minSpacing(a.layer, a.layer)) return *s + opt.extraGap;
    if (a.avoidOverlap || b.avoidOverlap) return 0;
    return std::nullopt;
  }
  if (ignored) return std::nullopt;
  if (auto s = t.minSpacing(a.layer, b.layer)) return *s + opt.extraGap;
  if (a.avoidOverlap || b.avoidOverlap) return 0;
  return std::nullopt;
}

/// `b` in the canonical frame of a move along `d`: the frame in which the
/// object moves West, so x runs along the movement axis (a stationary
/// shape's front is x2, a moving shape's leading edge x1) and y across it.
/// Gaps and overlaps are the same in both frames.
Box canonical(Dir d, const Box& b) {
  switch (d) {
    case Dir::West: return b;
    case Dir::East: return Box{-b.x2, b.y1, -b.x1, b.y2};
    case Dir::South: return Box{b.y1, b.x1, b.y2, b.x2};
    case Dir::North: return Box{-b.y2, b.x1, -b.y1, b.x2};
  }
  return b;
}

/// The stationary shape's front and the moving shape's leading edge along
/// `d` (canonical frame), and the gap across the movement axis.
Coord stationaryFront(Dir d, const Box& b) { return canonical(d, b).x2; }
Coord leadingEdge(Dir d, const Box& b) { return canonical(d, b).x1; }
Coord crossGap(Dir d, const Box& a, const Box& b) {
  return isHorizontal(d) ? gapY(a, b) : gapX(a, b);
}

Point actualTranslation(Dir d, Coord canonical) {
  switch (d) {
    case Dir::West: return {canonical, 0};
    case Dir::East: return {-canonical, 0};
    case Dir::South: return {0, canonical};
    case Dir::North: return {0, -canonical};
  }
  return {};
}

/// One binding pairwise constraint: this pair needs the step's largest
/// translation.
struct Constraint {
  ShapeId targetShape;
  ShapeId objShape;
};

/// What a step reads from its constraints: the largest need (canonical
/// translation), the second-largest distinct need (how far a variable edge
/// may shrink before another constraint binds) and the binding pairs, those
/// at the largest need, sorted by (target, object) shape id.
struct Binding {
  Coord fmax = kNone;
  Coord f2 = kNone;
  std::vector<Constraint> pairs;
};

/// Net-name equivalence across two modules: objNet -> matching target net
/// (kNoNet when unmatched or anonymous).
std::vector<NetId> matchNets(const Module& target, const Module& obj) {
  std::vector<NetId> map(obj.netCount(), db::kNoNet);
  for (NetId n = 1; n < obj.netCount(); ++n)
    if (auto tn = target.findNet(obj.netName(n))) map[n] = *tn;
  return map;
}

/// A query window covering everything within `halo` of `b` on the cross
/// axis of `dir`, unbounded along the movement axis: a constraint exists
/// regardless of how far along the movement axis the pair sits, so the
/// index may prune on the cross axis only (SpatialIndex clamps the
/// unbounded axis to its content bounds).
Box crossBand(Dir d, const Box& b, Coord halo) {
  constexpr Coord kFar = std::numeric_limits<Coord>::max() / 2;
  if (isHorizontal(d)) return Box{-kFar, b.y1 - halo, kFar, b.y2 + halo};
  return Box{b.x1 - halo, -kFar, b.x2 + halo, kFar};
}

/// The production candidate source: a geom::SpatialIndex over the target.
/// It stays a superset through the variable-edge loop because edges only
/// ever *shrink* there (a stale larger box widens the candidate set, and
/// the exact rule test runs on current boxes).
class IndexCandidates final : public detail::Candidates {
 public:
  explicit IndexCandidates(geom::SpatialIndex& idx) : idx_(idx) {}
  void insert(ShapeId id, LayerId layer, const Box& box) override {
    idx_.insert(id, layer, box);
  }
  bool walkFromFront(const Box& window, Side front, geom::SpatialIndex::Visitor fn,
                     geom::SpatialIndex::Cutoff done) const override {
    return idx_.walkFromFront(window, front, fn, done);
  }

 private:
  geom::SpatialIndex& idx_;
};

/// Constraint generation: candidate targets come front-first from a
/// cross-axis band walk with the per-layer max-rule halo, and the exact
/// pair predicate runs on each candidate.  A target shape reaching at most
/// r towards the object needs at most r + halo − leading edge, so each
/// object shape's walk ends once that cannot reach the second-largest
/// distinct need seen so far (the largest, without variable edges): what
/// lies further back cannot change fmax, f2 or the binding pairs.  Those
/// are order-independent, so the result does not depend on the walk order
/// or on whether the source honours the cutoff.
Binding computeConstraints(const Module& target, const Module& obj, Dir dir,
                           const Options& opt, const detail::Candidates& cands) {
  const tech::Technology& t = target.technology();
  const std::vector<NetId> netMap = matchNets(target, obj);
  Binding out;
  std::uint64_t candTotal = 0, emitted = 0;
  for (ShapeId oi : obj.shapeIds()) {
    const Shape& os = obj.shape(oi);
    const Coord halo = std::max<Coord>(0, t.maxSpacing(os.layer) + opt.extraGap);
    const Coord lead = leadingEdge(dir, os.box);
    auto note = [&](ShapeId ti) {
      ++candTotal;
      // A step's array rebuild retires ids the index still holds.
      if (!target.isAlive(ti)) return false;
      const Shape& ts = target.shape(ti);
      const bool sameNet =
          os.net != db::kNoNet && netMap[os.net] != db::kNoNet && netMap[os.net] == ts.net;
      const auto gap = requiredGap(t, ts, os, sameNet, opt);
      if (!gap) return false;
      if (crossGap(dir, ts.box, os.box) >= *gap) return false;  // clear on the cross axis
      const Coord need = stationaryFront(dir, ts.box) + *gap - lead;
      ++emitted;
      if (need > out.fmax) {
        out.f2 = out.fmax;
        out.fmax = need;
        out.pairs.clear();
      } else if (need < out.fmax) {
        out.f2 = std::max(out.f2, need);
        return false;
      }
      out.pairs.push_back(Constraint{ti, oi});
      return false;
    };
    auto behind = [&](Coord r) {
      return r + halo - lead < (opt.enableVariableEdges ? out.f2 : out.fmax);
    };
    cands.walkFromFront(crossBand(dir, os.box, halo), landingSide(dir), note, behind);
  }
  // A walk repeats an id only when it was re-inserted; keep one per pair.
  const auto key = [](const Constraint& c) { return std::pair(c.targetShape, c.objShape); };
  std::sort(out.pairs.begin(), out.pairs.end(),
            [&](auto& a, auto& b) { return key(a) < key(b); });
  out.pairs.erase(std::unique(out.pairs.begin(), out.pairs.end(),
                              [&](auto& a, auto& b) { return key(a) == key(b); }),
                  out.pairs.end());
  const auto universe =
      static_cast<std::uint64_t>(target.shapeCount()) * obj.shapeCount();
  OBS_COUNT_N("compact.constraints.universe", universe);
  OBS_COUNT_N("compact.constraints.candidates", candTotal);
  if (universe > candTotal)
    OBS_COUNT_N("compact.constraints.pruned", universe - candTotal);
  OBS_COUNT_N("compact.constraints.emitted", emitted);
  OBS_HIST("compact.step.constraints", emitted);
  return out;
}

/// Fallback when nothing constrains the object: abut the bounding boxes.
Coord bboxAbutTranslation(const Module& target, const Module& obj, Dir dir) {
  const Box tb = target.bboxAll();
  const Box ob = obj.bboxAll();
  if (tb.empty() || ob.empty()) return 0;
  return stationaryFront(dir, tb) - leadingEdge(dir, ob);
}

/// Move side `s` of the shape inwards by `d`.
void shrinkEdge(Module& m, ShapeId id, Side s, Coord d) {
  Box& b = m.shape(id).box;
  switch (s) {
    case Side::Left: b.x1 += d; break;
    case Side::Bottom: b.y1 += d; break;
    case Side::Right: b.x2 -= d; break;
    case Side::Top: b.y2 -= d; break;
  }
}

/// Exact auto-connect blocker test: extending `b` to `cand` would create a
/// device crossing or a new rule violation against target shape `c`.
bool blocksExtension(const tech::Technology& t, const Options& options, const Shape& b,
                     const Shape& cand, const Shape& c) {
  if (t.formsDevice(cand.layer, c.layer) && cand.box.overlaps(c.box) &&
      !b.box.overlaps(c.box))
    return true;
  const bool sameNet = c.net != db::kNoNet && c.net == cand.net;
  const auto g = requiredGap(t, c, cand, sameNet, options);
  if (!g) return false;
  return gapX(c.box, cand.box) < *g && gapY(c.box, cand.box) < *g &&
         !(gapX(c.box, b.box) < *g && gapY(c.box, b.box) < *g);
}

/// The furthest front (canonical) an auto-connect partner of `arrival` may
/// have and still be blocked by target shape `c`, or kNone.  `c` is a wall
/// when it covers the arrival's cross-axis extent and starts in front of
/// its leading edge: any partner reaching no further than c's back edge
/// (minus the clearance) would extend across it.  Then the extension
/// overlaps c and the partner does not, so a device-forming layer blocks
/// it; otherwise the extension comes within the rule of c while the
/// partner keeps clear of it.  The clearance is the one blocksExtension()
/// applies for any partner: partners share the arrival's layer, and its
/// net unless that layer is ignored (then the net does not enter the
/// rule).  Only the landing side of c can grow within the step, which
/// keeps it a wall.
Coord wallReach(const tech::Technology& t, const Options& options, Dir dir,
                const Shape& arrival, const Shape& c) {
  const Box a = canonical(dir, arrival.box), w = canonical(dir, c.box);
  if (!(w.x1 < w.x2 && w.y1 < w.y2 && w.y1 <= a.y1 && a.y2 <= w.y2 && w.x1 < a.x1))
    return kNone;
  if (t.formsDevice(arrival.layer, c.layer)) return w.x1;
  Shape partner = arrival;
  partner.avoidOverlap = false;  // a partner's flag cannot lift an existing rule
  const bool sameNet = c.net != db::kNoNet && c.net == arrival.net;
  const auto g = requiredGap(t, c, partner, sameNet, options);
  return g ? w.x1 - *g : kNone;
}

/// Insert the alive target shapes from raw id `from` on (a merge's
/// arrivals) into `cands`.
void insertArrivals(const Module& target, std::size_t from, detail::Candidates& cands) {
  for (auto id = static_cast<ShapeId>(from); id < target.rawSize(); ++id)
    if (target.isAlive(id)) cands.insert(id, target.shape(id).layer, target.shape(id).box);
}

/// Rebuild the cut arrays whose containers changed; when `cands` is given,
/// re-insert the rebuilt containers and cuts so it stays a superset.  When
/// `edits` is given, report the record, its containers (a rebuild may grow
/// them) and its retired cuts.
void rebuildArraysFor(Module& m, const std::set<ShapeId>& changed,
                      detail::Candidates* cands, detail::Edits* edits) {
  if (changed.empty()) return;
  std::vector<db::ArrayRecord>& recs = m.arrayRecords();
  for (std::size_t i = 0; i < recs.size(); ++i) {
    db::ArrayRecord& rec = recs[i];
    const bool affected = std::any_of(
        rec.containers.begin(), rec.containers.end(),
        [&](ShapeId id) { return changed.count(id) != 0; });
    if (!affected) continue;
    if (edits) {
      edits->arrays.push_back(i);
      edits->shapes.insert(edits->shapes.end(), rec.containers.begin(),
                           rec.containers.end());
      edits->shapes.insert(edits->shapes.end(), rec.elems.begin(), rec.elems.end());
    }
    prim::rebuildArray(m, rec);
    if (!cands) continue;
    // Keep a live index a superset across the rebuild: it may grow
    // containers in place and replaces the cut elements with fresh ids.
    // Retired ids linger in the index; candidate loops filter on isAlive.
    for (ShapeId id : rec.containers)
      cands->insert(id, m.shape(id).layer, m.shape(id).box);
    for (ShapeId id : rec.elems)
      cands->insert(id, m.shape(id).layer, m.shape(id).box);
  }
}

}  // namespace

Coord maxShrink(const Module& m, ShapeId id, Side side) {
  const tech::Technology& t = m.technology();
  const Shape& s = m.shape(id);
  const bool horizontalEdge = (side == Side::Left || side == Side::Right);
  const Coord axisLen = horizontalEdge ? s.box.width() : s.box.height();

  // Cuts are fixed-size; their edges never move.
  if (t.info(s.layer).kind == LayerKind::Cut) return 0;

  Coord limit = axisLen - t.findMinWidth(s.layer).value_or(0);

  // Keep enclosed inbox shapes inside with their margin.
  for (const db::EncloseRecord& enc : m.encloseRecords()) {
    if (enc.inner == db::kNoShape || !m.isAlive(enc.inner)) continue;
    if (std::find(enc.outers.begin(), enc.outers.end(), id) == enc.outers.end()) continue;
    // Skip self-records where this shape is the inner as well.
    if (enc.inner == id) continue;
    const Shape& inner = m.shape(enc.inner);
    const Coord margin = t.enclosure(s.layer, inner.layer).value_or(0);
    Coord room = 0;
    switch (side) {
      case Side::Left: room = inner.box.x1 - margin - s.box.x1; break;
      case Side::Bottom: room = inner.box.y1 - margin - s.box.y1; break;
      case Side::Right: room = s.box.x2 - (inner.box.x2 + margin); break;
      case Side::Top: room = s.box.y2 - (inner.box.y2 + margin); break;
    }
    limit = std::min(limit, room);
  }

  // Cut arrays are rebuilt after the move, but the container must keep room
  // for at least one cut with its enclosure margin.
  for (const db::ArrayRecord& rec : m.arrayRecords()) {
    if (rec.elems.empty()) continue;
    if (std::find(rec.containers.begin(), rec.containers.end(), id) ==
        rec.containers.end())
      continue;
    const auto [cw, ch] = t.cutSize(rec.elemLayer);
    const Coord margin = t.enclosure(s.layer, rec.elemLayer).value_or(0);
    const Coord needed = (horizontalEdge ? cw : ch) + 2 * margin;
    limit = std::min(limit, axisLen - needed);
  }

  return std::max<Coord>(limit, 0);
}

namespace detail {

Result compactStep(db::Module& target, const db::Module& obj, Dir dir,
                   const Options& options, Candidates& cands, Edits* edits) {
  if (&target.technology() != &obj.technology())
    throw Error("compact: object and target use different technologies");

  OBS_COUNT("compact.steps");
  obs::Span span("compact.step");
  span.arg("target", target.name())
      .arg("obj", obj.name())
      .arg("dir", dirName(dir))
      .arg("target_shapes", static_cast<std::uint64_t>(target.shapeCount()))
      .arg("obj_shapes", static_cast<std::uint64_t>(obj.shapeCount()));

  Result res;

  // "The first compaction command copies the first transistor into the
  // data structure."
  if (target.shapeCount() == 0) {
    res.idMap = target.merge(obj, geom::Transform{});
    insertArrivals(target, 0, cands);
    return res;
  }

  Module work = obj;  // the object may be modified (variable edges)
  std::set<ShapeId> changedTarget;
  std::set<ShapeId> changedWork;

  // The candidate source stays conservative through the auto-expand loop
  // below, which only shrinks edges (no per-iteration rescan).
  Coord tc = kNone;
  for (int iter = 0; iter < 64; ++iter) {
    const Binding bind = computeConstraints(target, work, dir, options, cands);
    if (bind.pairs.empty()) {
      tc = bboxAbutTranslation(target, work, dir);
      break;
    }
    const Coord fmax = bind.fmax, f2 = bind.f2;
    tc = fmax;
    if (!options.enableVariableEdges) break;

    // "If an edge is variable and defines the minimum distance between the
    // two objects, the compactor tries to move it until it is no longer
    // relevant."  Shrinking helps only when *every* binding constraint has
    // a movable edge with remaining travel; a fixed binding constraint
    // pins the distance and further shrinking would waste geometry.
    const bool allBindingMovable = std::all_of(
        bind.pairs.begin(), bind.pairs.end(), [&](const Constraint& c) {
          const Side ts = landingSide(dir);
          if (target.shape(c.targetShape).varEdges.variable(ts) &&
              maxShrink(target, c.targetShape, ts) > 0)
            return true;
          const Side os = frontSide(dir);
          return work.shape(c.objShape).varEdges.variable(os) &&
                 maxShrink(work, c.objShape, os) > 0;
        });
    if (!allBindingMovable) break;

    bool progressed = false;
    for (const Constraint& c : bind.pairs) {
      const Coord want = (f2 == kNone) ? std::numeric_limits<Coord>::max() : fmax - f2;

      const Side tSide = landingSide(dir);
      if (target.shape(c.targetShape).varEdges.variable(tSide)) {
        const Coord d = std::min(want, maxShrink(target, c.targetShape, tSide));
        if (d > 0) {
          shrinkEdge(target, c.targetShape, tSide, d);
          changedTarget.insert(c.targetShape);
          if (edits) edits->shapes.push_back(c.targetShape);
          ++res.edgeMoves;
          progressed = true;
          continue;
        }
      }
      const Side oSide = frontSide(dir);
      if (work.shape(c.objShape).varEdges.variable(oSide)) {
        const Coord d = std::min(want, maxShrink(work, c.objShape, oSide));
        if (d > 0) {
          shrinkEdge(work, c.objShape, oSide, d);
          changedWork.insert(c.objShape);
          ++res.edgeMoves;
          progressed = true;
        }
      }
    }
    if (!progressed) break;
  }
  if (tc == kNone) tc = bboxAbutTranslation(target, work, dir);

  // "The objects affected by the movement are rebuilt automatically."
  rebuildArraysFor(target, changedTarget, &cands, edits);
  rebuildArraysFor(work, changedWork, nullptr, nullptr);

  res.translation = actualTranslation(dir, tc);
  const auto tf =
      geom::Transform::translate(res.translation.x, res.translation.y);
  const std::size_t preMergeCount = target.rawSize();
  const std::size_t preMergeNets = target.netCount();
  res.idMap = target.merge(work, tf);

  // The candidate source stayed a conservative superset through the
  // variable-edge shrinks (stale larger boxes) and the array rebuild
  // (containers/cuts re-inserted above); extending it with just the merged
  // arrivals keeps it one, at a fraction of a re-snapshot of the target.
  insertArrivals(target, preMergeCount, cands);

  if (options.autoConnect) {
    // "The geometries of these layers are connected automatically after the
    // compaction if they are on the same potential": extend a stationary
    // shape's facing edge to reach a same-net arrival across the movement
    // axis, when no rule forbids it (Fig. 5a).  Each accepted extension
    // re-inserts the grown box (union semantics keeps queries exact-over).
    const tech::Technology& t = target.technology();
    std::set<ShapeId> extended;
    std::vector<ShapeId> biCand;
    std::uint64_t scanned = 0, partners = 0, walled = 0, safetyCandidates = 0;

    for (ShapeId ni = static_cast<ShapeId>(preMergeCount); ni < target.rawSize(); ++ni) {
      if (!target.isAlive(ni)) continue;
      const Shape arrival = target.shape(ni);
      if (!t.info(arrival.layer).conducting) continue;
      // Ignored layers were exempted from spacing because their shapes are
      // meant to merge; connect them even without declared potentials.
      const bool ignoredLayer = layerIgnored(options, arrival.layer);
      if (arrival.net == db::kNoNet && !ignoredLayer) continue;
      // A net first seen in this merge cannot appear on any pre-merge
      // shape, so no stationary partner exists — skip the scan outright
      // (unless the ignored-layer path bypasses the net test).
      if (!ignoredLayer && arrival.net >= preMergeNets) continue;

      // Stationary partners must overlap the arrival's cross-axis band
      // (extensions bridge any distance along the movement axis).  The
      // band comes front-first, and the scan ends once everything further
      // back lies behind a wall: a shape whose presence alone fails the
      // safety test below for any such partner (wallReach).  The rest are
      // tried in ascending id order, since an accepted extension changes
      // the boxes later partners see.
      Coord wall = kNone;
      biCand.clear();
      auto note = [&](ShapeId ci) {
        ++scanned;
        if (ci == ni || !target.isAlive(ci)) return false;
        const Shape& c = target.shape(ci);
        if (ci < preMergeCount && c.layer == arrival.layer &&
            (ignoredLayer || c.net == arrival.net))
          biCand.push_back(ci);
        wall = std::max(wall, wallReach(t, options, dir, arrival, c));
        return false;
      };
      cands.walkFromFront(crossBand(dir, arrival.box, 0), landingSide(dir), note,
                          [&](Coord r) { return r <= wall; });
      std::sort(biCand.begin(), biCand.end());
      biCand.erase(std::unique(biCand.begin(), biCand.end()), biCand.end());
      for (ShapeId bi : biCand) {
        const Shape& b = target.shape(bi);
        if (db::electricallyTouching(arrival.box, b.box)) continue;
        if (crossGap(dir, b.box, arrival.box) >= 0) continue;  // no facing overlap
        const Coord gapAlong =
            isHorizontal(dir) ? gapX(b.box, arrival.box) : gapY(b.box, arrival.box);
        if (gapAlong <= 0) continue;  // overlapping or behind

        // Candidate: extend b's landing-side edge to touch the arrival.
        Box nb = b.box;
        const Side es = landingSide(dir);
        const Coord to = leadingEdge(dir, arrival.box);
        nb.setSide(es, (es == Side::Right || es == Side::Top) ? to : -to);
        if (nb.empty() || !nb.contains(b.box)) continue;

        // Safety: the extension must not violate a rule against any other
        // shape, and must not newly cross a layer this layer forms devices
        // with (a poly extension across diffusion would create a gate).
        // A partner behind the wall is blocked by it.  Otherwise the test
        // is an AND over current boxes, so the walk stops at the first
        // blocker and needs no cutoff.
        ++partners;
        if (stationaryFront(dir, b.box) <= wall) {
          ++walled;
          continue;
        }
        Shape cand = b;
        cand.box = nb;
        const Coord halo = std::max<Coord>(0, t.maxSpacing(cand.layer) + options.extraGap);
        const bool blocked = cands.walkFromFront(
            nb.expanded(halo), es,
            [&](ShapeId ci) {
              ++safetyCandidates;
              // Array rebuilds left retired ids behind; skip them.
              if (ci == bi || ci == ni || !target.isAlive(ci)) return false;
              return blocksExtension(t, options, b, cand, target.shape(ci));
            },
            [](Coord) { return false; });
        if (blocked) continue;
        target.shape(bi).box = nb;
        cands.insert(bi, b.layer, nb);
        extended.insert(bi);
        if (edits) edits->shapes.push_back(bi);
        ++res.autoConnects;
      }
    }
    // The candidate source is not queried again, and it is no longer exact
    // once `extended` is non-empty, so the rebuilt arrays are not inserted.
    rebuildArraysFor(target, extended, nullptr, edits);
    OBS_COUNT_N("compact.autoconnect.candidates", scanned);
    OBS_COUNT_N("compact.autoconnect.partners", partners);
    OBS_COUNT_N("compact.autoconnect.walled", walled);
    OBS_COUNT_N("compact.autoconnect.safety_candidates", safetyCandidates);
  }
  OBS_COUNT_N("compact.edge_moves", res.edgeMoves);
  OBS_COUNT_N("compact.autoconnect.extensions", res.autoConnects);
  span.arg("edge_moves", res.edgeMoves).arg("auto_connects", res.autoConnects);
  return res;
}

}  // namespace detail

Result detail::compact(db::Module& target, const db::Module& obj, Dir dir,
                       const Options& options, Edits& edits) {
  const std::shared_ptr<geom::SpatialIndex> idx = target.takeShapeIndex();
  IndexCandidates cands(*idx);
  const std::size_t editsBefore = edits.shapes.size();
  Result res = detail::compactStep(target, obj, dir, options, cands, &edits);
  // An append-only step left the index exact: it holds every alive shape
  // with its current box.  A step that edited the target's own shapes left
  // stale boxes or retired ids behind, and the next step rebuilds instead.
  if (edits.shapes.size() == editsBefore) target.parkShapeIndex(idx);
  return res;
}

Result compact(db::Module& target, const db::Module& obj, Dir dir,
               const Options& options) {
  detail::Edits edits;
  return detail::compact(target, obj, dir, options, edits);
}

Result compact(db::Module& target, const db::Module& obj, Dir dir,
               std::initializer_list<std::string_view> ignoreLayerNames) {
  Options opt;
  for (std::string_view n : ignoreLayerNames)
    opt.ignoreLayers.push_back(target.technology().layer(n));
  return compact(target, obj, dir, opt);
}

}  // namespace amg::compact
