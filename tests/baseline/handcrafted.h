// Coordinate-level baseline generators (the "former methods" of §2.5).
//
// "Former methods for equivalent generation by describing each rectangle
// with its exact coordinates needed a multiple of this source code and were
// much more difficult to construct and to maintain [11]."
//
// These generators reproduce that style faithfully: every rectangle is
// computed by explicit coordinate arithmetic against hard-coded copies of
// the rule values, with no primitives and no compactor.  They exist only as
// the comparison baseline for the E9 code-length bench and the E5/E6 area
// checks — DO NOT use them as a template for new modules.
#pragma once

#include "db/module.h"

namespace amg::modules::dsl {
/// Count the source lines of a script (one per newline); measures the
/// DSL side of the CodeSize comparisons below.
int lineCount(const char* src);
}  // namespace amg::modules::dsl

namespace amg::modules::handcrafted {

/// Coordinate-level contact row equivalent to modules::contactRow().
db::Module contactRowExplicit(const tech::Technology& t, Coord w, Coord l,
                              const std::string& layerName, const std::string& net);

/// Coordinate-level MOS transistor equivalent to modules::mosTransistor().
db::Module mosTransistorExplicit(const tech::Technology& t, Coord w, Coord l);

/// Coordinate-level differential pair equivalent to modules::diffPair().
db::Module diffPairExplicit(const tech::Technology& t, Coord w, Coord l);

/// Source line counts of the three explicit generators vs. their DSL
/// scripts, computed from this translation unit for the E9 bench.
struct CodeSize {
  int explicitLines = 0;
  int dslLines = 0;
};
CodeSize contactRowCodeSize();
CodeSize mosTransistorCodeSize();
CodeSize diffPairCodeSize();

}  // namespace amg::modules::handcrafted
