// util::BlobStore, the storage behind the layout and prefix cache tiers:
// LRU recency and byte accounting, the oversize and disk-promotion rules,
// atomic disk writes shared between stores, degradation on an unwritable
// directory, and concurrent put/get.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "util/blob_store.h"
#include "util/hash.h"

namespace amg::util {
namespace {

namespace fs = std::filesystem;
using Found = BlobStore::Found;

std::vector<std::uint8_t> blobOf(std::uint64_t key, std::size_t size) {
  std::vector<std::uint8_t> bytes(size);
  for (std::size_t i = 0; i < size; ++i)
    bytes[i] = static_cast<std::uint8_t>(key * 31 + i);
  return bytes;
}

/// A fresh, empty directory under the test temp dir.
std::string freshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "amg_blob_store_" + name;
  fs::remove_all(dir);
  return dir;
}

std::vector<std::string> filesIn(const std::string& dir) {
  std::vector<std::string> names;
  for (const fs::directory_entry& e : fs::directory_iterator(dir))
    names.push_back(e.path().filename().string());
  return names;
}

TEST(BlobStore, GetRefreshesRecencySoTheLeastRecentlyUsedIsEvicted) {
  BlobStore store({30, ""}, ".blob");
  EXPECT_EQ(store.put(1, blobOf(1, 10)), 0u);
  EXPECT_EQ(store.put(2, blobOf(2, 10)), 0u);
  EXPECT_EQ(store.put(3, blobOf(3, 10)), 0u);
  EXPECT_EQ(store.get(1).found, Found::Memory);  // 1 is now most recent
  EXPECT_EQ(store.put(4, blobOf(4, 10)), 1u);
  EXPECT_EQ(store.get(2).found, Found::Miss);  // least recently used
  EXPECT_EQ(store.get(1).found, Found::Memory);
  EXPECT_EQ(store.get(3).found, Found::Memory);
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_EQ(store.byteCount(), 30u);
}

TEST(BlobStore, ReplacingAKeyDoesNotDoubleCountItsBytes) {
  BlobStore store({100, ""}, ".blob");
  store.put(7, blobOf(7, 10));
  store.put(7, blobOf(7, 25));
  EXPECT_EQ(store.entryCount(), 1u);
  EXPECT_EQ(store.byteCount(), 25u);
  EXPECT_EQ(*store.get(7).blob, blobOf(7, 25));
  EXPECT_EQ(store.stats().puts, 2u);
}

TEST(BlobStore, OversizeBlobReachesDiskButNotMemory) {
  const std::string dir = freshDir("oversize");
  BlobStore store({8, dir}, ".blob");
  store.put(5, blobOf(5, 16));
  EXPECT_EQ(store.entryCount(), 0u);
  EXPECT_EQ(store.byteCount(), 0u);
  const BlobStore::Lookup got = store.get(5);
  EXPECT_EQ(got.found, Found::Disk);
  ASSERT_TRUE(got.blob);
  EXPECT_EQ(*got.blob, blobOf(5, 16));
  EXPECT_EQ(store.entryCount(), 0u);  // still too big to promote
}

TEST(BlobStore, DiskHitIsPromotedAndCountedOnce) {
  const std::string dir = freshDir("promote");
  BlobStore writer({1024, dir}, ".blob");
  writer.put(9, blobOf(9, 40));

  BlobStore reader({1024, dir}, ".blob");
  EXPECT_EQ(reader.get(9).found, Found::Disk);
  EXPECT_EQ(reader.entryCount(), 1u);
  EXPECT_EQ(reader.byteCount(), 40u);
  EXPECT_EQ(reader.get(9).found, Found::Memory);
  const BlobStore::Stats s = reader.stats();
  EXPECT_EQ(s.diskHits, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 0u);
}

TEST(BlobStore, StoresSharingADirectorySeeEachOthersEntries) {
  const std::string dir = freshDir("shared");
  BlobStore a({1024, dir}, ".blob");
  BlobStore b({1024, dir}, ".blob");
  a.put(1, blobOf(1, 12));
  b.put(2, blobOf(2, 14));
  const BlobStore::Lookup fromA = a.get(2);
  const BlobStore::Lookup fromB = b.get(1);
  EXPECT_EQ(fromA.found, Found::Disk);
  EXPECT_EQ(fromB.found, Found::Disk);
  ASSERT_TRUE(fromA.blob && fromB.blob);
  EXPECT_EQ(*fromA.blob, blobOf(2, 14));
  EXPECT_EQ(*fromB.blob, blobOf(1, 12));
}

TEST(BlobStore, PutsLeaveOneFilePerKeyAndNoTempFiles) {
  const std::string dir = freshDir("files");
  BlobStore store({1024, dir}, ".blob");
  for (std::uint64_t key = 0; key < 8; ++key) store.put(key, blobOf(key, 20));
  for (std::uint64_t key = 0; key < 8; key += 2) store.put(key, blobOf(key, 20));
  std::vector<std::string> names = filesIn(dir);
  std::sort(names.begin(), names.end());
  std::vector<std::string> want;
  for (std::uint64_t key = 0; key < 8; ++key) want.push_back(keyHex(key) + ".blob");
  EXPECT_EQ(names, want);
}

TEST(BlobStore, UnwritableDirectoryDegradesToMemoryOnly) {
  // A directory below a regular file can be neither created nor written.
  const std::string parent = freshDir("unwritable");
  std::ofstream(parent) << "not a directory";
  const std::string dir = parent + "/tier";
  BlobStore store({1024, dir}, ".blob");
  store.put(3, blobOf(3, 10));
  EXPECT_EQ(store.get(3).found, Found::Memory);
  EXPECT_FALSE(fs::exists(dir));
  EXPECT_TRUE(fs::is_regular_file(parent));
  BlobStore other({1024, dir}, ".blob");
  EXPECT_EQ(other.get(3).found, Found::Miss);
  fs::remove(parent);
}

TEST(BlobStore, FourThreadsRacePutAndGet) {
  // Content-addressed use: one key always maps to the same bytes, so any
  // hit, from memory or disk, must return exactly those bytes.
  const std::string dir = freshDir("race");
  BlobStore store({600, dir}, ".blob");
  constexpr int kThreads = 4;
  constexpr int kRounds = 300;
  constexpr std::uint64_t kKeys = 24;
  std::vector<std::thread> workers;
  std::vector<int> wrong(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>(i * (t + 1)) % kKeys;
        const std::size_t size = 10 + key * 3;
        if ((i + t) % 3 == 0) {
          store.put(key, blobOf(key, size));
        } else if (const BlobStore::Blob b = store.get(key).blob) {
          if (*b != blobOf(key, size)) ++wrong[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(wrong[static_cast<std::size_t>(t)], 0);
  EXPECT_LE(store.byteCount(), 600u);
  const BlobStore::Stats s = store.stats();
  EXPECT_EQ(s.hits + s.diskHits + s.misses + s.puts,
            static_cast<std::uint64_t>(kThreads * kRounds));
  for (const std::string& name : filesIn(dir))
    EXPECT_EQ(name.size(), 16u + 5u) << name;  // "<key-hex>.blob" only
}

}  // namespace
}  // namespace amg::util
