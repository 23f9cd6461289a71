// Little-endian wire primitives shared by every versioned binary format
// in the repo (AMGL layouts, AMGS session snapshots, AMGT request traces).
//
// Writer appends to a growable byte vector; Hasher takes the same calls and
// keeps only a digest of the bytes; Reader is bounds-checked and throws a
// util::DiagError with a caller-supplied diagnostic the moment a read
// would run past the end, so each format keeps its own stable truncation
// code (AMG-IO-003 for layouts, AMG-OBS-003 for traces).
//
// Both sides agree on the encoding: fixed-width integers little-endian,
// strings as u32 length + raw bytes, f64 as the IEEE-754 bit pattern in a
// u64.  No alignment, no padding — a format is exactly the sequence of
// calls made against it.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/diag.h"
#include "util/hash.h"

namespace amg::util {

class WireWriter {
 public:
  /// Starts after `headroom` zero bytes the caller fills in later (a
  /// header in front of the record).
  explicit WireWriter(std::size_t headroom = 0) : n_(headroom) {
    out_.reserve(headroom + 256);
    out_.resize(headroom);
  }

  void u8(std::uint8_t v) { le(v, 1); }
  void u16(std::uint16_t v) { le(v, 2); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void i64(std::int64_t v) { le(static_cast<std::uint64_t>(v), 8); }
  void f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    room(s.size());
    std::memcpy(out_.data() + n_, s.data(), s.size());
    n_ += s.size();
  }
  /// Room for `n` more bytes without reallocating.
  void reserve(std::size_t n) { room(n); }
  std::vector<std::uint8_t> take() {
    out_.resize(n_);
    return std::move(out_);
  }

 private:
  /// The buffer is kept at least `n` bytes past the write position;
  /// take() trims it.
  void room(std::size_t n) {
    if (out_.size() - n_ < n) out_.resize(n_ + std::max(n, out_.size()));
  }
  void le(std::uint64_t v, int bytes) {
    room(8);
    std::uint8_t* p = out_.data() + n_;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(p, &v, 8);  // the bytes past `bytes` are overwritten later
    } else {
      for (int i = 0; i < bytes; ++i) p[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
    }
    n_ += static_cast<std::size_t>(bytes);
  }
  std::vector<std::uint8_t> out_;
  std::size_t n_;  ///< bytes written (out_ may run ahead)
};

/// The bytes a WireWriter would hold after the same calls, hashed instead
/// of kept: digest() is their util::wordHash.  Lets a format fingerprint a
/// record without building it.
class WireHasher {
 public:
  void u8(std::uint8_t v) { le(v, 1); }
  void u16(std::uint16_t v) { le(v, 2); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void i64(std::int64_t v) { le(static_cast<std::uint64_t>(v), 8); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    for (std::size_t at = 0; at < s.size();) {
      if (fill_ > sizeof buf_ - 8) flush();
      const std::size_t n = std::min(s.size() - at, sizeof buf_ - fill_);
      std::memcpy(buf_ + fill_, s.data() + at, n);
      fill_ += n;
      at += n;
    }
  }
  void reserve(std::size_t) {}
  std::uint64_t digest() const {
    WordHash h = h_;
    std::size_t i = 0;
    for (; i + 8 <= fill_; i += 8) h.word(loadLE(buf_ + i, 8));
    if (i < fill_) h.word(loadLE(buf_ + i, fill_ - i));
    return h.digest(length_ + fill_);
  }

 private:
  /// Bytes gather in a small buffer; whole words are hashed when it fills.
  void le(std::uint64_t v, int bytes) {
    if (fill_ > sizeof buf_ - 8) flush();
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(buf_ + fill_, &v, 8);
    } else {
      for (int i = 0; i < 8; ++i)
        buf_[fill_ + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    fill_ += static_cast<std::size_t>(bytes);
  }
  void flush() {
    std::size_t i = 0;
    for (; i + 8 <= fill_; i += 8) h_.word(loadLE(buf_ + i, 8));
    std::memmove(buf_, buf_ + i, fill_ - i);
    length_ += i;
    fill_ -= i;
  }
  WordHash h_;
  std::uint8_t buf_[64 + 8] = {};
  std::size_t fill_ = 0;  ///< bytes gathered in buf_, not yet hashed
  std::uint64_t length_ = 0;  ///< bytes hashed so far
};

class WireReader {
 public:
  /// `onTruncation` is thrown (as util::DiagError) whenever a read would
  /// pass the end of the buffer; fill in the owning format's stable code.
  /// Reading starts at byte `start` (a record behind a header).
  WireReader(const std::vector<std::uint8_t>& b, util::Diag onTruncation,
             std::size_t start = 0)
      : b_(b), truncDiag_(std::move(onTruncation)), pos_(start) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(le(8)); }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (pos_ + n > b_.size()) truncated();
    std::string s(b_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  b_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return s;
  }
  bool done() const { return pos_ == b_.size(); }
  std::size_t position() const { return pos_; }

 private:
  [[noreturn]] void truncated() { throw util::DiagError(truncDiag_); }
  std::uint64_t le(int bytes) {
    if (pos_ + static_cast<std::size_t>(bytes) > b_.size()) truncated();
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
      v |= static_cast<std::uint64_t>(b_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    pos_ += static_cast<std::size_t>(bytes);
    return v;
  }
  const std::vector<std::uint8_t>& b_;
  util::Diag truncDiag_;
  std::size_t pos_ = 0;
};

}  // namespace amg::util
