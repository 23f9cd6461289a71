// Independent design-rule checker.
//
// The generator environment "evaluates and fulfills the design rules
// automatically" (§2.1); this checker verifies the result from the geometry
// alone — it never trusts the provenance records — and is used by the tests
// as the correctness oracle for every module generator.
//
// It includes the paper's flagship example, the latch-up rule (Fig. 1):
// "temporary rectangles which are placed around the substrate contacts
// [must] enclose all locos areas of MOS-transistors ... If not all active
// areas are enclosed additional substrate contacts have to be inserted."
#pragma once

#include <string>
#include <vector>

#include "db/module.h"

namespace amg::drc {

enum class ViolationKind : std::uint8_t {
  MinWidth,   ///< shape narrower than the layer minimum
  CutSize,    ///< cut rectangle not of the exact technology size
  Spacing,    ///< two shapes closer than their rule allows
  Enclosure,  ///< cut not enclosed by the layers it connects
  LatchUp,    ///< active area not covered by substrate-contact guards
};

const char* violationName(ViolationKind k);

struct Violation {
  ViolationKind kind;
  db::ShapeId a = db::kNoShape;  ///< offending shape
  db::ShapeId b = db::kNoShape;  ///< second shape for pair rules
  Box where;                     ///< offending region
  std::string message;           ///< human-readable diagnosis
};

/// The optional region checks of check(); widths, spacings (with the
/// same-potential exemption) and cut enclosures always run.
struct CheckOptions {
  bool latchUp = true;
  /// Require every pdiff shape to lie inside an n-well with the rule
  /// margin (off by default: generic NMOS-style modules have no well;
  /// turn on after modules::nwellWithTap()).
  bool wellEnclosure = false;
};

/// Run all enabled checks; empty result = clean layout.  Pair and cover
/// candidates come from the module's shape index (Module::shapeIndex);
/// violations are reported in shape-id order, identical to the all-pairs
/// oracle in tests/oracle/.
std::vector<Violation> check(const db::Module& m, const CheckOptions& options = {});

/// Convenience: throws DesignRuleError with a summary when check() finds
/// anything (tests use EXPECT_NO_THROW / the error message).
void expectClean(const db::Module& m, const CheckOptions& options = {});

/// The pdiff areas not properly enclosed by n-wells (empty when the
/// wellEnclosure check passes).
std::vector<Box> unenclosedPdiff(const db::Module& m);

/// The temporary guard rectangles of the latch-up rule: one box of
/// side-distance latchUpRadius() around every substrate-tie shape.
std::vector<Box> latchUpGuards(const db::Module& m);

/// The parts of MOS active (LOCOS) areas not covered by the guards, via the
/// 16-case rectangle subtraction of Fig. 1.  Empty = rule fulfilled.
std::vector<Box> uncoveredActive(const db::Module& m);

/// Insert additional substrate contacts (tie diffusion + contact + metal1
/// on net `netName`) until the latch-up rule is fulfilled.  Returns the
/// number of contacts inserted.  Probes go through the module's shape
/// index, which is parked again afterwards for the checks that follow.
/// Throws DesignRuleError when no legal position can be found for a
/// needed contact.
int insertSubstrateContacts(db::Module& m, const std::string& netName = "gnd");

}  // namespace amg::drc
