// The compactor-prefix cache: step-granular memoization of successive
// compaction (docs/CACHING.md, tier 3).
//
// §2.3 builds a module by compacting "only one new object in each step" —
// a sequence whose state after step k depends only on the starting target
// and the first k (object, direction, options) triples.  Sweep jobs that
// differ in one late parameter therefore share a long common prefix; this
// tier memoizes the compactor's session state at every step so a warm job
// resumes from the first divergent step instead of step 0 (the analog of
// the multi-placement structures of PAPERS.md: precomputed placement
// state, near-constant-time variant instantiation).
//
// Keying.  A rolling FNV-1a chain per module under construction:
//
//   seed    = H(format version, tech fingerprint)
//   chain_0 = H(raw session-state bytes of the starting target | seed)
//   chain_k = H(step_k | chain_{k-1})
//   step_k  = H(raw session-state bytes of the arriving object,
//               direction, canonicalized options: sorted ignore-layer
//               names, variable-edge/auto-connect flags, extra gap)
//
// The module's identity stamp (db::Module::stamp()) guards the
// chain: any out-of-band mutation between steps — a DSL primitive, a
// VARIANT rollback, a reused stack slot — invalidates the session, and
// the next step reseeds from a full content hash.  (module, stamp) pairs
// never recur, so a stale session can never be mistaken for a live one.
//
// Restores are *deferred*: a hit parks the snapshot blob and returns
// without touching the module, so a run of consecutive hits costs one
// hash + one LRU probe per step.  The blob is materialized at the first
// point something reads the module's actual bytes — the exec layer's
// requireSelf(), VARIANT entry/rating, or entity-frame end — via
// prefixSync()/prefixEnd() below.
//
// Counters are published under gen.prefix.* (the tier belongs to the
// generation stack even though the code lives here, below amg_lang, to
// keep the library layering acyclic).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "compact/compactor.h"
#include "util/blob_store.h"

namespace amg::compact {

/// Key -> serialized session-state bytes (io::serializeSessionState), in a
/// util::BlobStore with `<key>.amgp` disk files (docs/CACHING.md, tier 3
/// and "Storage").  Blobs are shared so a parked deferred restore survives
/// eviction.  Thread-safe; instrumented with gen.prefix.* counters.
class PrefixCache {
 public:
  using Blob = util::BlobStore::Blob;

  explicit PrefixCache(util::BlobStoreConfig cfg = {});

  /// BlobStore::get / put plus the gen.prefix.* counters.  nullptr on
  /// miss (the step executes).
  Blob get(std::uint64_t key);
  void put(std::uint64_t key, std::vector<std::uint8_t> bytes);

  /// Counters and occupancy.
  const util::BlobStore& store() const { return store_; }

  // Session-level events, aggregated here so the engine reports one place.
  struct Events {
    std::uint64_t restoredSteps = 0;     ///< steps served from cache
    std::uint64_t materializations = 0;  ///< deferred blobs deserialized
    std::uint64_t reseeds = 0;  ///< chains restarted from a full hash
  };
  Events events() const;
  void noteRestoredStep();
  void noteMaterialization();
  void noteReseed();

 private:
  util::BlobStore store_;
  std::atomic<std::uint64_t> restoredSteps_{0};
  std::atomic<std::uint64_t> materializations_{0};
  std::atomic<std::uint64_t> reseeds_{0};
};

/// One successive-compaction step of `obj` onto `target` through the
/// prefix cache.  On a chain hit the snapshot is parked for deferred
/// restore and the step is skipped; on a miss any parked snapshot is
/// materialized, the step runs through compact::compact() (which reuses
/// the index parked on `target`, or rebuilds it after a materialization)
/// and the new state is recorded.  Returns true when the step was served
/// from cache.  Byte-identical to compact::compact() on every path.
bool prefixStep(PrefixCache& cache, db::Module& target, const db::Module& obj,
                Dir dir, const Options& options);

/// Flush a pending deferred restore so `m`'s bytes match its logical
/// state.  No-op when no session exists, the session is stale, or nothing
/// is pending.  Call before reading `m` outside prefixStep().
void prefixSync(db::Module& m);

/// Frame end: prefixSync() then drop the session bookkeeping for `m`.
void prefixEnd(db::Module& m);

/// Drop bookkeeping without materializing (exception paths: the state is
/// being abandoned).  Never throws.
void prefixAbandon(db::Module& m) noexcept;

}  // namespace amg::compact
