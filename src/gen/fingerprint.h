// Content hashing for the batch-generation cache.
//
// A cache key must change exactly when the generated layout could change:
// the module description (DSL source, entity, parameter bindings), the
// technology rules, and the serialized-layout format version all feed the
// hash; incidental differences (comments, whitespace) do not.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "tech/tech.h"
#include "util/hash.h"

namespace amg::gen {

/// FNV-1a offset basis; pass as `seed` to start a fresh hash chain.
/// (The digest itself lives in util/hash.h so lower layers — notably the
/// compactor-prefix cache — share one definition; these aliases keep the
/// original gen:: spelling every call site uses.)
using util::kFnvBasis;

/// 64-bit FNV-1a over `data`, chained: feed the previous digest back in as
/// `seed` to hash a sequence of fields (a length-prefix is mixed in per
/// call, so field boundaries are unambiguous).
using util::fnv1a;

/// Normalize DSL source for hashing: strips '//' comments (string literals
/// are respected), collapses horizontal whitespace runs to one space,
/// trims line edges and drops blank lines.  Two sources that differ only
/// in comments or layout canonicalize identically.
std::string canonicalizeSource(const std::string& source);

/// Digest of the full rule deck via the saveTechFile() round-trip text:
/// any rule edit — width, spacing, enclosure, a layer rename — changes the
/// fingerprint and therefore busts every cache entry made under the old
/// deck.  Delegates to Technology::contentFingerprint(), which memoizes
/// per rule-table state, so repeated calls are O(1).
std::uint64_t techFingerprint(const tech::Technology& t);

}  // namespace amg::gen
