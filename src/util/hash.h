// Shared FNV-1a hashing for the caching tiers.
//
// One definition of the chained 64-bit FNV-1a digest used by every
// content-addressed cache in the flow: the whole-layout cache and source
// canonicalizer (gen/fingerprint.h), the VM's chunk cache, and the
// compactor-prefix cache (compact/prefix.h).  It lives in util so layers
// below gen can hash without a dependency cycle (amg_gen links amg_lang
// links amg_compact; the prefix cache hashes from inside amg_compact).
//
// The chaining convention: feed the previous digest back in as `seed`.
// Byte-sequence hashes mix the length first, so field boundaries are
// unambiguous — ("ab","c") and ("a","bc") chain differently.
//
// WordHash digests a whole record eight bytes per mixing step, where
// byte-wise FNV-1a mixes one; the prefix tier fingerprints every arriving
// object and checksums every entry with it.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace amg::util {

/// FNV-1a offset basis; pass as `seed` to start a fresh hash chain.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Chain a raw integer into a hash (little-endian bytes).
constexpr std::uint64_t fnv1a(std::uint64_t value, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

/// 64-bit FNV-1a over `data`, chained (length-prefixed, see above).
constexpr std::uint64_t fnv1a(std::string_view data,
                              std::uint64_t seed = kFnvBasis) {
  std::uint64_t h = fnv1a(static_cast<std::uint64_t>(data.size()), seed);
  for (const char c : data) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// Streaming 64-bit digest of a byte sequence fed as little-endian 8-byte
/// words (MurmurHash64A's mixing; the caller zero-pads the last word) and
/// finished with the byte length.  Every input bit reaches every digest
/// bit, so flipped high bits do not cancel as they can in word-wise
/// FNV-1a.
class WordHash {
 public:
  void word(std::uint64_t k) {
    k *= kM;
    k ^= k >> 47;
    k *= kM;
    h_ = (h_ ^ k) * kM;
  }
  std::uint64_t digest(std::uint64_t length) const {
    std::uint64_t h = (h_ ^ length) * kM;
    h ^= h >> 47;
    h *= kM;
    return h ^ (h >> 47);
  }

 private:
  static constexpr std::uint64_t kM = 0xc6a4a7935bd1e995ull;
  std::uint64_t h_ = kFnvBasis;
};

/// Little-endian load of `n` <= 8 bytes at `p` (zero-extended).
inline std::uint64_t loadLE(const std::uint8_t* p, std::size_t n) {
  std::uint64_t w = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&w, p, n);
  } else {
    for (std::size_t b = 0; b < n; ++b) w |= static_cast<std::uint64_t>(p[b]) << (8 * b);
  }
  return w;
}

/// WordHash over `n` bytes at `p`.
inline std::uint64_t wordHash(const std::uint8_t* p, std::size_t n) {
  WordHash h;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) h.word(loadLE(p + i, 8));
  if (i < n) h.word(loadLE(p + i, n - i));
  return h.digest(n);
}

/// Fixed-width lowercase hex form of a key (disk-cache file stem).
inline std::string keyHex(std::uint64_t key) {
  const char* hex = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = hex[key & 0xF];
    key >>= 4;
  }
  return s;
}

}  // namespace amg::util
