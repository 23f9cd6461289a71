// Full-fidelity binary serialization of a Module: one record, three slot
// rules.
//
// Unlike the GDS/CIF writers (which flatten to mask rectangles for
// interchange), this record round-trips everything a Module carries:
// nets, ports, per-edge variability flags, avoid-overlap markers and the
// enclosure/array provenance records the compactor needs.  It is saved in
// three formats that share every field and its order, and differ only in
// which shape slots and provenance records they write:
//
//  * AMGL, the finished layout (serializeLayout): the alive shapes,
//    renumbered densely; records that lost a subject are dropped.  The
//    layout cache stores it, the C ABI and the daemon return it, and a
//    cache hit deserializes into a Module indistinguishable from one
//    generated from scratch.
//  * AMGS, the mid-build snapshot (serializeSessionState): every raw slot
//    under its own id, dead ones included, and every record verbatim.  The
//    compactor-prefix cache (compact/prefix.h) resumes from it.
//  * AMGD, one step's change to a mid-build module (serializeSessionDelta):
//    AMGS's slot rule over only the slots and records the step appended or
//    rewrote.  The prefix cache stores it between full snapshots.
//
// Layers are stored by *name* and resolved against the Technology given
// at load time, so a blob is only readable under a deck that defines the
// same layer names — the caches additionally key on the full rule
// fingerprint, making this a second line of defence, not the first.
//
// Every decoder accepts its input or throws util::DiagError with an
// AMG-IO-* code (see util/diag.h for the registry); a corrupt blob never
// escapes as another exception.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "db/module.h"

namespace amg::io {

/// Serialize the module as AMGL (alive shapes only; dead entries are
/// compacted out and provenance records are remapped accordingly).
std::vector<std::uint8_t> serializeLayout(const db::Module& m);

/// Reconstruct a module from serializeLayout() bytes.  Layer names are
/// resolved against `tech`.  Throws util::DiagError with codes
/// AMG-IO-001 (bad magic), AMG-IO-002 (unsupported version),
/// AMG-IO-003 (truncated/corrupt payload: a count past the end, an index
/// out of range, an empty rectangle) or AMG-IO-004 (layer name unknown to
/// the given technology).
db::Module deserializeLayout(const std::vector<std::uint8_t>& bytes,
                             const tech::Technology& tech);

/// Write serializeLayout() bytes to `path` (amg_result_export).  Throws
/// util::DiagError AMG-IO-005 when the file cannot be written.
void writeLayoutFile(const db::Module& m, const std::string& path);

/// --- mid-build session-state record ("AMGS" magic) ---------------------
///
/// AMGL's slot rule is wrong for a snapshot taken between successive-
/// compaction steps: resumed compaction depends on the raw store (id-ordered
/// spatial contracts, provenance ids, insertion order).  AMGS writes that
/// store verbatim — every slot with its alive bit, exact ids, unfiltered
/// records — so a restored module is byte-for-byte the live one mid-build
/// and resumes to layouts identical to a cold run.  The decoder raises the
/// same AMG-IO-001..004 codes with session-specific messages and, unlike
/// AMGL's, takes any rectangle its writer produces.
/// `offset` is where the record starts in the bytes: the serializers leave
/// that many zero bytes in front of it for a cache header to fill.
std::vector<std::uint8_t> serializeSessionState(const db::Module& m,
                                                std::size_t offset = 0);
db::Module deserializeSessionState(const std::vector<std::uint8_t>& bytes,
                                   const tech::Technology& tech,
                                   std::size_t offset = 0);
/// util::wordHash of serializeSessionState(m)'s bytes, computed without
/// building them: equal digests, equal raw stores.
std::uint64_t sessionStateDigest(const db::Module& m);

/// --- session-state delta ("AMGD" magic) --------------------------------
///
/// What one successive-compaction step changed: every list the module
/// holds (nets, shape slots, ports, enclosure and array records) only grows
/// during a step, and the step rewrites some shape slots and array records
/// in place.  A delta records the list lengths the step started from, the
/// entries appended since, and the rewritten entries whole.  The caller
/// names the rewritten ones (compact::detail::Edits); nothing is diffed.
struct SessionDelta {
  /// List lengths of the module the delta applies to.
  std::size_t nets = 0, shapes = 0, ports = 0, encloses = 0, arrays = 0;
  /// Slots and array records the step rewrote.  Any order, repeats
  /// allowed; ids at or past the lengths above are appended ones.
  std::vector<db::ShapeId> editedShapes;
  std::vector<std::size_t> editedArrays;

  /// The lengths of `m` now, nothing edited yet.
  static SessionDelta startingAt(const db::Module& m);
};

/// `m` as it is now, relative to the module `d` describes.  O(bytes
/// written): the unchanged prefix of each list is never visited.  The
/// record starts at `offset`, as for serializeSessionState().
std::vector<std::uint8_t> serializeSessionDelta(const db::Module& m,
                                                SessionDelta d,
                                                std::size_t offset = 0);

/// Apply serializeSessionDelta() bytes (from `offset`) to the module they
/// were taken against, making it byte-for-byte the module they were taken
/// from.  Raises the AMG-IO-001..004 codes; AMG-IO-003 also when `m`'s
/// name or list lengths are not the ones the delta starts from.  On a
/// throw `m` may be half-updated.
void applySessionDelta(db::Module& m, const std::vector<std::uint8_t>& bytes,
                       std::size_t offset = 0);

}  // namespace amg::io
