// Module: the layout database of one (possibly hierarchically built) cell.
//
// A Module owns a flat store of rectangles plus the provenance records the
// compactor needs to rebuild derived geometry (contact arrays, enclosures)
// after variable-edge moves.  Hierarchy exists at *generation* time — an
// entity builds sub-objects and compacts them in — and is flattened into
// the parent on merge, exactly as the paper's successive construction does.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <cstdint>

#include "db/shape.h"
#include "geom/spatial.h"
#include "geom/transform.h"
#include "util/thread_annotations.h"

namespace amg::db {

struct ConnectivityData;  // db/connectivity.cpp

namespace detail {
/// A process-unique module identity: every construction, copy and move
/// draws a fresh value (a moved-from holder is refreshed too, since its
/// owner's contents just changed).  Members of this type make the default
/// copy/move of the enclosing class stamp-correct automatically.
struct IdentityStamp {
  IdentityStamp() : v(next()) {}
  IdentityStamp(const IdentityStamp&) : v(next()) {}
  IdentityStamp& operator=(const IdentityStamp&) {
    v = next();
    return *this;
  }
  IdentityStamp(IdentityStamp&& o) noexcept : v(next()) { o.v = next(); }
  IdentityStamp& operator=(IdentityStamp&& o) noexcept {
    v = next();
    o.v = next();
    return *this;
  }
  std::uint64_t v;
  static std::uint64_t next();  // global relaxed counter, never reused
};

/// Data derived from one module snapshot (its shape index, its
/// connectivity), parked on the module with the stamp at which it is
/// exact.  Concurrent const readers share the slot, so a small lock guards
/// it.  A copy starts empty (the source, unchanged, keeps its data) and a
/// move empties both sides, so parked data never travels to another
/// module's store.  Parking is not a mutation: the module's stamp is
/// untouched.
template <class T>
class SnapshotSlot {
 public:
  SnapshotSlot() = default;
  SnapshotSlot(const SnapshotSlot&) {}
  SnapshotSlot& operator=(const SnapshotSlot&) {
    park(nullptr, 0);
    return *this;
  }
  SnapshotSlot(SnapshotSlot&& o) noexcept { o.park(nullptr, 0); }
  SnapshotSlot& operator=(SnapshotSlot&& o) noexcept {
    park(nullptr, 0);
    o.park(nullptr, 0);
    return *this;
  }
  /// The parked data when it is exact at `stamp`, else nullptr.
  std::shared_ptr<T> load(std::uint64_t stamp) const {
    util::MutexLock lock(mu_);
    return stamp_ == stamp ? data_ : nullptr;
  }
  /// load(), leaving the slot empty.
  std::shared_ptr<T> take(std::uint64_t stamp) {
    util::MutexLock lock(mu_);
    std::shared_ptr<T> d = std::move(data_);
    return stamp_ == stamp ? d : nullptr;
  }
  void park(std::shared_ptr<T> d, std::uint64_t stamp) const {
    util::MutexLock lock(mu_);
    data_.swap(d);  // the old data is released after the lock
    stamp_ = stamp;
  }

 private:
  mutable util::Mutex mu_;
  mutable std::shared_ptr<T> data_ AMG_GUARDED_BY(mu_);
  mutable std::uint64_t stamp_ AMG_GUARDED_BY(mu_) = 0;
};
}  // namespace detail

/// Record: `inner` must stay inside every shape of `outers` with the
/// technology enclosure margin.  Limits variable-edge shrinking and drives
/// automatic expansion.
struct EncloseRecord {
  std::vector<ShapeId> outers;
  ShapeId inner = kNoShape;
};

/// Record: `elems` is an equidistant array of cut rectangles on `elemLayer`
/// placed inside the common area of `containers` (§2.2 ARRAY).  When a
/// container is resized by the compactor the array is recalculated
/// ("the contact row was rebuilt and the array of contact-rectangles was
/// recalculated", §2.3).
struct ArrayRecord {
  std::vector<ShapeId> containers;
  LayerId elemLayer = 0;
  NetId net = kNoNet;
  std::vector<ShapeId> elems;
};

/// A named connection point of a module: where external wiring may attach
/// (an extension over the paper, which wires by potential only; ports make
/// module composition explicit for the router).
struct PortDef {
  std::string name;
  Point at;
  LayerId layer = 0;
  NetId net = kNoNet;
};

class Module {
 public:
  explicit Module(const tech::Technology& tech, std::string name = "");

  // Modules are value types: copying copies the full database (how the DSL
  // implements `trans2 = trans1`).
  Module(const Module&) = default;
  Module& operator=(const Module&) = default;
  Module(Module&&) = default;
  Module& operator=(Module&&) = default;

  const tech::Technology& technology() const { return *tech_; }
  const std::string& name() const { return name_; }
  void setName(std::string n) {
    name_ = std::move(n);
    touch();
  }

  /// --- identity stamp ----------------------------------------------------
  /// Process-unique value that changes on every mutation, copy and move
  /// (fresh stamps for both sides of a move).  Observing the same stamp
  /// twice guarantees the module was not modified in between; a (module,
  /// stamp) pair never recurs across histories, even when a rolled-back
  /// VARIANT branch or a reused stack slot resurrects an old address.  The
  /// compactor-prefix cache (compact/prefix.h) keys its per-module session
  /// validity on this, and the parked shape index and connectivity theirs.
  /// Non-const accessors count as mutations.
  std::uint64_t stamp() const { return stamp_.v; }

  /// --- shape index -------------------------------------------------------
  /// One geom::SpatialIndex over the alive shapes, bucketed by layer, is
  /// parked here with the stamp at which it is exact; every consumer of
  /// this snapshot reads the same one.  Appenders (compact::compact(),
  /// drc::insertSubstrateContacts, route::channelRoute) takeShapeIndex(),
  /// insert every shape they append, and parkShapeIndex() again only while
  /// it is exact: every alive shape once, with its current box.  Readers
  /// (drc::check, db::Connectivity, drc::extractMos) borrow it through
  /// shapeIndex() and must not keep it past their const call.  On a miss
  /// a reader gets a fresh index that is not parked: a const read never
  /// grows what the module keeps.  A build is counted by
  /// `db.index.builds`; parking is not a mutation.
  std::shared_ptr<const geom::SpatialIndex> shapeIndex() const;
  /// The parked index when exact, else a fresh one; the slot is left empty.
  std::shared_ptr<geom::SpatialIndex> takeShapeIndex();
  void parkShapeIndex(std::shared_ptr<geom::SpatialIndex> idx) {
    index_.park(std::move(idx), stamp_.v);
  }

  /// --- nets -------------------------------------------------------------
  /// Get-or-create a named potential.
  NetId net(std::string_view name);
  std::optional<NetId> findNet(std::string_view name) const;
  const std::string& netName(NetId n) const { return netNames_.at(n); }
  std::size_t netCount() const { return netNames_.size(); }
  /// Rename every shape on net `from` to net `to`.
  void moveNet(NetId from, NetId to);

  /// --- shapes -----------------------------------------------------------
  ShapeId addShape(Shape s);
  Shape& shape(ShapeId id) {
    touch();
    return shapes_.at(id);
  }
  const Shape& shape(ShapeId id) const { return shapes_.at(id); }
  void removeShape(ShapeId id);
  /// Restore-path append used by the session-state deserializer
  /// (io/layout.h): pushes the entry verbatim — dead flag and all —
  /// bypassing addShape()'s validation, so a mid-build snapshot with dead
  /// entries round-trips to the exact raw store.
  ShapeId appendRawShape(Shape s);
  /// Restore-path overwrite of one existing slot, alive flag included
  /// (a session delta rewrites the slots a step edited or retired).
  void replaceRawShape(ShapeId id, Shape s);
  /// Ids of all alive shapes, in insertion order.
  std::vector<ShapeId> shapeIds() const;
  /// Alive shapes on one layer.
  std::vector<ShapeId> shapesOn(LayerId layer) const;
  /// Number of alive shapes, kept by addShape, appendRawShape,
  /// replaceRawShape and removeShape so a growing structure need not
  /// rescan its store.  Those are the only writers of Shape::alive: never
  /// set it, or assign a whole Shape, through shape(id).
  std::size_t shapeCount() const { return aliveCount_; }
  /// Raw store size including dead entries (for iteration with bounds).
  std::size_t rawSize() const { return shapes_.size(); }
  bool isAlive(ShapeId id) const { return id < shapes_.size() && shapes_[id].alive; }

  /// --- ports ---------------------------------------------------------------
  void addPort(std::string name, Point at, LayerId layer, NetId net = kNoNet);
  const std::vector<PortDef>& ports() const { return ports_; }
  /// First port with the given name; throws DesignRuleError when absent.
  const PortDef& port(std::string_view name) const;
  bool hasPort(std::string_view name) const;

  /// --- provenance records ------------------------------------------------
  void addEncloseRecord(EncloseRecord r) {
    encloses_.push_back(std::move(r));
    touch();
  }
  void addArrayRecord(ArrayRecord r) {
    arrays_.push_back(std::move(r));
    touch();
  }
  const std::vector<EncloseRecord>& encloseRecords() const { return encloses_; }
  const std::vector<ArrayRecord>& arrayRecords() const { return arrays_; }
  std::vector<ArrayRecord>& arrayRecords() {
    touch();
    return arrays_;
  }
  std::vector<EncloseRecord>& encloseRecords() {
    touch();
    return encloses_;
  }

  /// --- geometry ----------------------------------------------------------
  /// Bounding box of all alive shapes on mask layers (markers excluded).
  Box bbox() const;
  /// Bounding box including marker layers.
  Box bboxAll() const;
  /// Layout area of the bounding box (the optimizer's primary criterion).
  Coord area() const { return bbox().area(); }
  /// Translate the whole module.
  void translate(Coord dx, Coord dy);
  /// Apply a rigid transform to the whole module (carries per-edge flags to
  /// their transformed sides).
  void transform(const geom::Transform& tf);

  /// Merge `other` into this module under transform `tf`.
  /// Nets are matched by name (same-name nets unify — this is how
  /// electrical connections across sub-objects are expressed); anonymous
  /// shapes stay anonymous.  Provenance records are carried over.
  /// Returns old-id → new-id mapping indexed by `other`'s raw ids.
  std::vector<ShapeId> merge(const Module& other, const geom::Transform& tf);

 private:
  void touch() { stamp_.v = detail::IdentityStamp::next(); }

  const tech::Technology* tech_;
  std::string name_;
  std::vector<Shape> shapes_;
  std::size_t aliveCount_ = 0;
  std::vector<std::string> netNames_;
  std::vector<EncloseRecord> encloses_;
  std::vector<ArrayRecord> arrays_;
  std::vector<PortDef> ports_;
  detail::IdentityStamp stamp_;
  detail::SnapshotSlot<geom::SpatialIndex> index_;
  // Connectivity reads and parks its extraction here (db/connectivity.h).
  friend class Connectivity;
  detail::SnapshotSlot<const ConnectivityData> connectivity_;
};

}  // namespace amg::db
