// Single source of truth for every version number the environment bakes
// into an artifact or a cache key.
//
// Before this header each binary format kept its own private constant
// (io/layout.cpp, obs/recorder.cpp, compact/prefix.cpp, lang/compiler.cpp,
// gen/engine.cpp) — five places that had to be grepped whenever a reader
// asked "which build wrote this blob?".  Embedders get the same answer at
// runtime through amg_version() / amg_versions() in the C ABI
// (include/amgen.h); the compatibility matrix lives in docs/EMBEDDING.md.
//
// Bump rules:
//  * A format constant changes exactly when the byte layout of that format
//    changes (readers reject other versions with the format's AMG-* code).
//  * kEngineVersion changes when generation *behavior* changes — same
//    inputs, different layout bytes — so every content-addressed cache key
//    derived from it (whole-layout and compactor-prefix tiers) is busted.
//  * kBytecodeVersion changes when compiled chunks stop being equivalent
//    (new opcode, changed operand encoding, changed lowering).
//  * kApiVersion changes when include/amgen.h changes incompatibly
//    (removed/retyped symbols); additions keep it stable.
#pragma once

#include <cstdint>

namespace amg::util {

/// Human-readable build identity, returned verbatim by amg_version().
inline constexpr const char* kVersionString = "amgen 0.9.0";

/// C-ABI compatibility generation (include/amgen.h, AMGEN_API_VERSION).
/// v2 removed amg_config.interp.
inline constexpr std::uint32_t kApiVersion = 2;

/// "AMGL" end-of-build layout record (io/layout.h, AMG-IO-002 on mismatch).
inline constexpr std::uint32_t kLayoutFormatVersion = 1;

/// "AMGS" mid-build session snapshot (io/layout.h, AMG-IO-002 on mismatch).
inline constexpr std::uint32_t kSessionFormatVersion = 1;

/// "AMGT" request trace (obs/recorder.h, AMG-OBS-002 on mismatch).
/// v2 dropped the execution-engine and spatial-engine header bytes.
inline constexpr std::uint32_t kTraceFormatVersion = 2;

/// The compactor-prefix entry chain (compact/prefix.h): written into every
/// entry header and fed into the rolling chain-key seed, so a bump silently
/// invalidates every prefix entry.  v2: delta entries between power-of-two
/// snapshots, each behind a checked header.
inline constexpr std::uint64_t kPrefixFormatVersion = 2;

/// Generation behavior generation (gen/engine.cpp cache keys).
inline constexpr std::uint64_t kEngineVersion = 1;

/// Compiled-chunk equivalence generation (lang/bytecode.h).
inline constexpr std::uint64_t kBytecodeVersion = 2;

}  // namespace amg::util
