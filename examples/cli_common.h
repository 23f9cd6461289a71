// Helpers shared by the example CLIs (dsl_runner, batch_runner, amg_lint).
// Header-only on purpose: examples/ builds each tool as its own target and
// none of this belongs in the installed libraries.
#pragma once

#include <cstdio>
#include <string_view>

#include "util/diag.h"

namespace amg::cli {

/// Render a diagnostic caret-style against the source it points into and
/// print it to `out`, e.g.
///
///   scripts/foo.amg:3:9: error [AMG-L001]: unknown entity 'Contct'
///       3 | c = Contct(W = 4)
///         |         ^
///   hint: entities must be declared with ENT ...
inline void printDiag(const util::Diag& d, std::string_view source,
                      std::string_view severity = "error",
                      std::FILE* out = stderr) {
  std::fprintf(out, "%s\n", util::renderDiag(d, source, severity).c_str());
}

}  // namespace amg::cli
