// Content-addressed blob store: the storage behind the layout and
// compactor-prefix cache tiers (docs/CACHING.md, "Storage").
//
// Two tiers.  The in-memory tier is a byte-budgeted LRU of immutable
// shared blobs; a blob larger than the whole budget skips it.  The
// optional disk tier keeps one `<key-hex><suffix>` file per entry under
// a caller-chosen directory and survives process restarts; a disk hit is
// promoted into the memory tier.  Disk writes go to a unique temp file in
// the same directory and are renamed into place only when the whole write
// succeeded, so a reader never sees a partial entry and stores in several
// processes may share one directory.  Disk I/O runs outside the lock.
//
// The store reports what each call did and leaves counting to its owner,
// so each tier keeps its own literal obs counter names.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/thread_annotations.h"

namespace amg::util {

struct BlobStoreConfig {
  /// Byte budget of the in-memory LRU tier (sum of blob sizes).
  std::size_t maxBytes = 64ull << 20;
  /// Directory of the disk tier; empty disables it.  Created on demand.
  std::string diskDir;
};

class BlobStore {
 public:
  using Blob = std::shared_ptr<const std::vector<std::uint8_t>>;

  /// `suffix` names the owner's file type on disk (".amgl", ".amgp").
  BlobStore(BlobStoreConfig cfg, std::string suffix);

  enum class Found : std::uint8_t { Miss, Memory, Disk };
  struct Lookup {
    Blob blob;  ///< null on a miss
    Found found = Found::Miss;
    std::size_t evicted = 0;  ///< entries a disk-hit promotion evicted
  };

  /// Memory tier first, then disk.  A hit refreshes LRU recency; a disk
  /// hit is promoted into memory (unless oversize).
  Lookup get(std::uint64_t key);

  /// Insert (or replace) an entry in both tiers; returns the number of
  /// least-recently-used entries evicted to keep the byte budget.
  std::size_t put(std::uint64_t key, std::vector<std::uint8_t> bytes);

  struct Stats {
    std::uint64_t hits = 0;       ///< memory-tier hits
    std::uint64_t diskHits = 0;   ///< disk-tier hits
    std::uint64_t misses = 0;     ///< both tiers missed
    std::uint64_t evictions = 0;  ///< memory-tier LRU evictions
    std::uint64_t puts = 0;
  };
  Stats stats() const;
  std::size_t entryCount() const;
  std::size_t byteCount() const;

 private:
  std::size_t insert(std::uint64_t key, Blob blob) AMG_REQUIRES(mu_);
  std::string diskPath(std::uint64_t key) const;
  void writeToDisk(std::uint64_t key, const std::vector<std::uint8_t>& bytes);

  const BlobStoreConfig cfg_;
  const std::string suffix_;
  mutable Mutex mu_;
  /// MRU at front.  The map points into the list for O(1) touch.
  std::list<std::pair<std::uint64_t, Blob>> lru_ AMG_GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, decltype(lru_)::iterator> index_
      AMG_GUARDED_BY(mu_);
  std::size_t bytes_ AMG_GUARDED_BY(mu_) = 0;
  Stats stats_ AMG_GUARDED_BY(mu_);
};

}  // namespace amg::util
