// Canonical DSL sources of the library modules (the scripts/ directory
// ships the same text as .amg files).  Kept in one header so the tests,
// the examples and the E9 code-length bench measure the same code.
#pragma once

namespace amg::modules::dsl {

/// Fig. 2: the complete parameterizable contact row — three statements.
inline constexpr const char* kContactRow = R"(ENT ContactRow(layer, <W>, <L>)
  INBOX(layer, W, L)
  INBOX("metal1")
  ARRAY("contact")
)";

/// The transistor entity of Fig. 7 (gate, gate contact, one diffusion row).
inline constexpr const char* kTrans = R"(ENT Trans(<W>, <L>)
  TWORECTS("poly", "pdiff", W, L)
  polycon = ContactRow(layer = "poly", W = L)
  diffcon = ContactRow(layer = "pdiff", L = W)
  compact(polycon, SOUTH, "poly")     // step 1
  compact(diffcon, EAST, "pdiff")     // step 2
)";

/// The differential pair of Fig. 7 (five compaction steps).
inline constexpr const char* kDiffPair = R"(ENT DiffPair(<W>, <L>)
  trans1 = Trans(W = W, L = L)
  trans2 = trans1                     // copy of trans1
  diffcon = ContactRow(layer = "pdiff", L = W)
  compact(trans1, WEST, "pdiff")      // step 3
  compact(trans2, WEST, "pdiff")      // step 4
  compact(diffcon, WEST, "pdiff")     // step 5
)";

}  // namespace amg::modules::dsl
