// Full-fidelity binary serialization of a Module: one record, two slot
// rules.
//
// Unlike the GDS/CIF writers (which flatten to mask rectangles for
// interchange), this record round-trips everything a Module carries:
// nets, ports, per-edge variability flags, avoid-overlap markers and the
// enclosure/array provenance records the compactor needs.  It is saved in
// two formats that share every field and its order, and differ only in
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
//
// Layers are stored by *name* and resolved against the Technology given
// at load time, so a blob is only readable under a deck that defines the
// same layer names — the caches additionally key on the full rule
// fingerprint, making this a second line of defence, not the first.
//
// Both decoders accept their input or throw util::DiagError with an
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
std::vector<std::uint8_t> serializeSessionState(const db::Module& m);
db::Module deserializeSessionState(const std::vector<std::uint8_t>& bytes,
                                   const tech::Technology& tech);

}  // namespace amg::io
