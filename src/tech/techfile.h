// Text format for technology description files.
//
// One directive per line; '#' starts a comment.  Grammar (all rule values
// in the declared unit):
//
//   tech <name>
//   unit nm
//   layer <name> <kind> cif=<int> color=<#rrggbb> pattern=<name> [conducting]
//   width <layer> <value>
//   space <layerA> <layerB> <value>
//   enclose <outer> <inner> <value>
//   extend <layerA> <layerB> <value>
//   cutsize <cut> <w> <h>
//   connect <cut> <layerA> <layerB>
//   latchup <radius>
//   guard <marker-layer>
//   tie <diffusion-layer>
//
// <kind> is one of: well diffusion poly metal cut implant marker.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "tech/tech.h"

namespace amg::tech {

/// Parse a deck from a stream; throws amg::Error with a line number on any
/// syntax or consistency problem.
Technology parseTechFile(std::istream& in, const std::string& sourceName = "<tech>");

/// Parse a deck from a string (convenience for tests).
Technology parseTechString(const std::string& text, const std::string& sourceName = "<tech>");

/// Parse a deck from a file path.
Technology loadTechFile(const std::string& path);

/// Resolve a technology spec as every tool, libamgen and the daemon take
/// it: "" and "bicmos1u" name the builtin BiCMOS deck, "cmos2u" the CMOS
/// one, anything else is a .tech file loaded with loadTechFile() (and
/// throws what it throws).  A builtin deck is shared, not owned; a file
/// deck is owned by the returned pointer.
std::shared_ptr<const Technology> resolveTech(const std::string& spec);

/// Serialize a deck into the text format; parseTechString(saveTechFile(t))
/// reproduces the deck (round-trip property, covered by tests).
std::string saveTechFile(const Technology& t);

}  // namespace amg::tech
