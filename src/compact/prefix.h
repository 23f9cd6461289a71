// The compactor-prefix cache: step-granular memoization of successive
// compaction (docs/CACHING.md, tier 3).
//
// §2.3 builds a module by compacting "only one new object in each step" —
// a sequence whose state after step k depends only on the starting target
// and the first k (object, direction, options) triples.  Sweep jobs that
// differ in one late parameter therefore share a long common prefix; this
// tier memoizes the compactor's session state after every step so a warm
// job resumes from the first divergent step instead of step 0 (the analog
// of the multi-placement structures of PAPERS.md: precomputed placement
// state, near-constant-time variant instantiation).  That only pays when
// storing a step costs far less than executing it, so an entry holds what
// its step changed, not the module.
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
// Entries.  The entry under chain_k is a 40-byte header (PrefixEntryHeader:
// format version, kind, chain_k, chain_{k-1}, payload length, a checksum
// of the payload) and one payload:
//
//   * a snapshot at k = 1, 2, 4, 8, … — the whole module as an AMGS record
//     (io::serializeSessionState);
//   * a delta at every other k — an AMGD record (io::serializeSessionDelta)
//     of the slots, nets, ports and enclosure/array records step k appended
//     plus the slots and array records it rewrote, as reported by the
//     compactor (detail::Edits), never found by diffing.
//
// A cold step therefore writes O(Δ) bytes, and the snapshots of a k-step
// chain sum to about twice the last one: O(n) bytes per job, not O(n²).
// PrefixCache::get() checks the header — version, kind, both chain keys,
// length, checksum — before anything is pinned; a bad entry (a flipped or
// truncated disk file, a colliding key) is a miss that the executed step
// then overwrites.
//
// The module's identity stamp (db::Module::stamp()) guards the
// chain: any out-of-band mutation between steps — a DSL primitive, a
// VARIANT rollback, a reused stack slot — invalidates the session, and
// the next step reseeds from a full content hash (so step 1 of the new
// chain is a snapshot again).  (module, stamp) pairs never recur, so a
// stale session can never be mistaken for a live one.
//
// Restores are *deferred*: a hit pins its entry and returns without
// touching the module, so a run of consecutive hits costs one hash, one
// LRU probe and one header check per step.  A snapshot hit drops the pins
// before it.  The pins are applied at the first point something reads the
// module's actual bytes — the exec layer's requireSelf(), VARIANT
// entry/rating, entity-frame end (prefixSync()/prefixEnd() below) or the
// next miss: deserialize the pinned snapshot if there is one (else start
// from the live module, which is at the state the first pin extends), then
// apply the pinned deltas in order.  That costs one snapshot decode, O(n),
// plus fewer than k/2 delta applications of O(Δ) each.
//
// Counters are published under gen.prefix.* (the tier belongs to the
// generation stack even though the code lives here, below amg_lang, to
// keep the library layering acyclic).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "compact/compactor.h"
#include "util/blob_store.h"

namespace amg::compact {

/// The little-endian header in front of every prefix entry's payload.
struct PrefixEntryHeader {
  enum class Kind : std::uint32_t { Snapshot = 1, Delta = 2 };
  static constexpr std::size_t kBytes = 40;

  std::uint32_t version = 0;  ///< util::kPrefixFormatVersion
  Kind kind = Kind::Snapshot;
  std::uint64_t key = 0;       ///< chain_k, the entry's own key
  std::uint64_t parent = 0;    ///< chain_{k-1}
  std::uint64_t length = 0;    ///< payload bytes after the header
  std::uint64_t checksum = 0;  ///< util::wordHash of the payload
};

/// The header fields of `entry`; nullopt when it is shorter than a header.
/// Checks nothing else.
std::optional<PrefixEntryHeader> readEntryHeader(const std::vector<std::uint8_t>& entry);

/// Chain key -> entry (header + AMGS snapshot or AMGD delta), in a
/// util::BlobStore with `<key>.amgp` disk files (docs/CACHING.md, tier 3
/// and "Storage").  Blobs are shared so a pinned deferred restore survives
/// eviction.  Thread-safe; instrumented with gen.prefix.* counters.
class PrefixCache {
 public:
  using Blob = util::BlobStore::Blob;
  using Kind = PrefixEntryHeader::Kind;

  explicit PrefixCache(util::BlobStoreConfig cfg = {});

  /// The entry under `key` if its header matches (this format version,
  /// `key`, `parent`, its payload's length and checksum); nullptr on a miss
  /// or a rejected entry (the step executes).
  Blob get(std::uint64_t key, std::uint64_t parent);
  /// Store `entry` under `key`: its payload starts at byte
  /// PrefixEntryHeader::kBytes, and put() fills in the header before it.
  void put(std::uint64_t key, std::uint64_t parent, Kind kind,
           std::vector<std::uint8_t> entry);

  /// Counters and occupancy.
  const util::BlobStore& store() const { return store_; }

  // Session-level events, aggregated here so the engine reports one place.
  struct Events {
    std::uint64_t restoredSteps = 0;     ///< steps served from cache
    std::uint64_t materializations = 0;  ///< deferred restores applied
    std::uint64_t reseeds = 0;   ///< chains restarted from a full hash
    std::uint64_t rejected = 0;  ///< stored entries whose header failed
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
  std::atomic<std::uint64_t> rejected_{0};
};

/// One successive-compaction step of `obj` onto `target` through the
/// prefix cache.  On a chain hit the entry is pinned for deferred restore
/// and the step is skipped; on a miss the pins are applied, the step runs
/// through compact::compact() (which reuses the index parked on `target`,
/// or rebuilds it after a restore) and the step's entry is stored.
/// Returns true when the step was served from cache.  Byte-identical to
/// compact::compact() on every path.
bool prefixStep(PrefixCache& cache, db::Module& target, const db::Module& obj,
                Dir dir, const Options& options);

/// Apply pending pinned entries so `m`'s bytes match its logical state.
/// No-op when no session exists, the session is stale, or nothing is
/// pending.  Call before reading `m` outside prefixStep().
void prefixSync(db::Module& m);

/// Frame end: prefixSync() then drop the session bookkeeping for `m`.
void prefixEnd(db::Module& m);

/// Drop bookkeeping without applying anything (exception paths: the state
/// is being abandoned).  Never throws.
void prefixAbandon(db::Module& m) noexcept;

}  // namespace amg::compact
