// Content-addressed layout cache: key -> serialized layout bytes.
//
// A util::BlobStore with `<key>.amgl` disk files (docs/CACHING.md, tier 2
// and "Storage").  Storing bytes, not Modules, makes warm results
// byte-identical to cold ones by construction — a hit deserializes the
// very bytes a cold run serialized.
//
// Thread-safe: the batch engine calls get()/put() from every worker.
// Instrumented with gen.cache.{hits,misses,evictions,disk_hits,puts}
// counters (see docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <vector>

#include "util/blob_store.h"

namespace amg::gen {

/// Memory budget + optional disk directory, shared by both cache tiers.
using CacheConfig = util::BlobStoreConfig;

class LayoutCache {
 public:
  explicit LayoutCache(CacheConfig cfg = {});

  /// BlobStore::get / put plus the gen.cache.* counters.  nullptr on miss.
  util::BlobStore::Blob get(std::uint64_t key);
  void put(std::uint64_t key, std::vector<std::uint8_t> bytes);

  /// Counters and occupancy.
  const util::BlobStore& store() const { return store_; }

 private:
  util::BlobStore store_;
};

}  // namespace amg::gen
