// The "Sweep" entity: a long column of cheap cells compacted one by one,
// then one parameter-dependent tail cell.  E12 (bench_batch) sweeps its
// tail width at a fixed row count to exercise the cache tiers; E11
// (bench_spatial) grows the row count to measure how cold successive
// compaction scales.
#pragma once

#include <string>

#include "gen/job.h"

namespace amg::bench {

// A cheap-to-build cell (no inner compaction) so the sweep's cost is the
// successive compaction of the growing layout, not object construction —
// exactly the work the prefix tier memoizes.
inline constexpr const char* kSweepLib = R"(
ENT Cell(<W>, <L>)
  TWORECTS("poly", "pdiff", W, L)
  INBOX("metal1")

ENT Sweep(rows, <W>)
  INBOX("pdiff", 4, 4)
  FOR k = 1 TO rows DO
    c = Cell(W = 6, L = 2)
    compact(c, EAST, "poly")
  ENDFOR
  tail = Cell(W = W, L = 2)
  compact(tail, EAST, "poly")
)";

/// One Sweep job of `rows` column cells and a tail cell of width `w`.
inline gen::Job sweepJob(std::string name, int rows, std::string w) {
  gen::Job j;
  j.name = std::move(name);
  j.script = kSweepLib;
  j.scriptPath = "<bench>";
  j.entity = "Sweep";
  j.params = {{"rows", std::to_string(rows)}, {"W", std::move(w)}};
  return j;
}

}  // namespace amg::bench
