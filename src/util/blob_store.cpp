#include "util/blob_store.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <optional>

#include "util/hash.h"

namespace amg::util {
namespace {

std::optional<std::vector<std::uint8_t>> readFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                                  std::istreambuf_iterator<char>());
  if (f.bad()) return std::nullopt;
  return bytes;
}

}  // namespace

BlobStore::BlobStore(BlobStoreConfig cfg, std::string suffix)
    : cfg_(std::move(cfg)), suffix_(std::move(suffix)) {}

std::string BlobStore::diskPath(std::uint64_t key) const {
  return cfg_.diskDir + "/" + keyHex(key) + suffix_;
}

BlobStore::Lookup BlobStore::get(std::uint64_t key) {
  {
    MutexLock lock(mu_);
    if (const auto it = index_.find(key); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // touch
      ++stats_.hits;
      return {it->second->second, Found::Memory, 0};
    }
    if (cfg_.diskDir.empty()) {
      ++stats_.misses;
      return {};
    }
  }
  std::optional<std::vector<std::uint8_t>> bytes = readFile(diskPath(key));
  MutexLock lock(mu_);
  if (!bytes) {
    ++stats_.misses;
    return {};
  }
  ++stats_.diskHits;
  Blob blob = std::make_shared<const std::vector<std::uint8_t>>(std::move(*bytes));
  const std::size_t evicted = insert(key, blob);
  return {std::move(blob), Found::Disk, evicted};
}

std::size_t BlobStore::put(std::uint64_t key, std::vector<std::uint8_t> bytes) {
  const Blob blob =
      std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
  std::size_t evicted = 0;
  {
    MutexLock lock(mu_);
    ++stats_.puts;
    evicted = insert(key, blob);
  }
  if (!cfg_.diskDir.empty()) writeToDisk(key, *blob);
  return evicted;
}

std::size_t BlobStore::insert(std::uint64_t key, Blob blob) {
  if (const auto it = index_.find(key); it != index_.end()) {
    bytes_ -= it->second->second->size();
    lru_.erase(it->second);
    index_.erase(it);
  }
  if (blob->size() > cfg_.maxBytes) return 0;  // disk-only oversize blob
  bytes_ += blob->size();
  lru_.emplace_front(key, std::move(blob));
  index_[key] = lru_.begin();
  std::size_t evicted = 0;
  while (bytes_ > cfg_.maxBytes) {
    const auto& victim = lru_.back();
    bytes_ -= victim.second->size();
    index_.erase(victim.first);
    lru_.pop_back();
    ++evicted;
  }
  stats_.evictions += evicted;
  return evicted;
}

void BlobStore::writeToDisk(std::uint64_t key,
                            const std::vector<std::uint8_t>& bytes) {
  // Unique across threads, stores and processes sharing the directory.
  static std::atomic<std::uint64_t> serial{0};
  const std::string path = diskPath(key);
  const std::string tmp = path + "." + std::to_string(::getpid()) + "." +
                          std::to_string(serial.fetch_add(1)) + ".tmp";
  std::error_code ec;
  std::ofstream f(tmp, std::ios::binary);
  if (!f) {  // first write, or the directory was removed
    std::filesystem::create_directories(cfg_.diskDir, ec);
    f.open(tmp, std::ios::binary);
    if (!f) return;  // unwritable: the store stays memory-only
  }
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  f.close();
  // Writers of one key write the same bytes, so a lost rename race is
  // harmless; a failed write never replaces the entry.
  if (!f.fail()) std::filesystem::rename(tmp, path, ec);
  if (f.fail() || ec) std::filesystem::remove(tmp, ec);
}

BlobStore::Stats BlobStore::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

std::size_t BlobStore::entryCount() const {
  MutexLock lock(mu_);
  return lru_.size();
}

std::size_t BlobStore::byteCount() const {
  MutexLock lock(mu_);
  return bytes_;
}

}  // namespace amg::util
