#include "gen/cache.h"

#include "obs/obs.h"

namespace amg::gen {

LayoutCache::LayoutCache(CacheConfig cfg) : store_(std::move(cfg), ".amgl") {}

util::BlobStore::Blob LayoutCache::get(std::uint64_t key) {
  util::BlobStore::Lookup got = store_.get(key);
  if (got.found == util::BlobStore::Found::Memory) OBS_COUNT("gen.cache.hits");
  if (got.found == util::BlobStore::Found::Disk) OBS_COUNT("gen.cache.disk_hits");
  if (got.found == util::BlobStore::Found::Miss) OBS_COUNT("gen.cache.misses");
  if (got.evicted) OBS_COUNT_N("gen.cache.evictions", got.evicted);
  return std::move(got.blob);
}

void LayoutCache::put(std::uint64_t key, std::vector<std::uint8_t> bytes) {
  OBS_COUNT("gen.cache.puts");
  const std::size_t evicted = store_.put(key, std::move(bytes));
  if (evicted) OBS_COUNT_N("gen.cache.evictions", evicted);
}

}  // namespace amg::gen
