// Parallel §2.4 compaction-order search.
//
// The permutation space of a build plan is embarrassingly parallel: the
// subtrees below distinct order prefixes share no state except the
// incumbent bound.  optimizeOrderParallel() enumerates short prefixes
// (depth picked so there are several tasks per worker), fans the subtrees
// out across a util::ThreadPool, and lets every worker run the same DFS as
// the serial engine (opt/search_core.h) with its own thread-local modules
// and best-so-far.  The incumbent score travels through one shared atomic,
// so a bound discovered by any worker immediately tightens the pruning of
// all others.
//
// Determinism: the returned winning order and score are identical to
// optimizeOrder()'s — the lexicographically smallest order among those
// achieving the minimum score — independent of thread count and
// scheduling, provided the search completes within options.search.maxOrders
// (a binding budget cuts the space in a timing-dependent way; the serial
// engine is then the reference).  The `evaluated`/`pruned` counters DO
// depend on timing (a later bound prunes less); only order and score are
// guaranteed.  tests/parallel_test.cpp locks this equivalence down.
#pragma once

#include "opt/optimizer.h"

namespace amg::opt {

struct ParallelOptimizeOptions {
  /// The serial engine's knobs (budget, branch-and-bound) apply unchanged;
  /// maxOrders is a global budget shared by all workers.
  OptimizeOptions search;
  /// Worker threads; 0 = std::thread::hardware_concurrency().  1 runs the
  /// serial engine inline (bit-identical, no pool).
  std::size_t threads = 0;
};

/// Parallel counterpart of optimizeOrder(); see the header comment for the
/// determinism contract.
OptimizeResult optimizeOrderParallel(const BuildPlan& plan,
                                     const RatingWeights& weights = {},
                                     const ParallelOptimizeOptions& options = {});

}  // namespace amg::opt
