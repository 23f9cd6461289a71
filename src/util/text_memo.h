// A bounded, thread-safe memo from a script's full text to something
// derived from that text alone: the compiled chunks (lang::compileCached)
// and the batch engine's static analysis and canonical form
// (gen::BatchEngine).
//
// Keyed on the text itself, not a digest, so a hit is the same text by
// construction: no collision can hand one script another script's value.
// At most `capacity` entries, least recently used out first; an evicted
// value lives on for whoever still holds it.  Values are computed outside
// the lock, so two callers may race to derive the same text; the first
// one published wins and both get an equivalent value.
//
// The memo reports what each call did and leaves counting to its owner,
// so each keeps its own literal obs counter names.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "util/thread_annotations.h"

namespace amg::util {

template <class T>
class TextMemo {
 public:
  using Value = std::shared_ptr<const T>;

  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;  ///< values published
    std::size_t evictions = 0;
    std::size_t entries = 0;
  };

  explicit TextMemo(std::size_t capacity) : capacity_(capacity) {}

  /// The value held for exactly `text`, or null.  A hit becomes the most
  /// recently used entry.
  Value find(std::string_view text) AMG_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    const auto it = map_.find(text);
    if (it == map_.end()) return nullptr;
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }

  /// Publish `value` for `text` and count a miss.  Returns the value now
  /// held: an earlier publication for the same text wins.  `evicted` says
  /// whether the least recently used entry was dropped to make room.
  Value insert(std::string_view text, Value value, bool& evicted)
      AMG_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    ++stats_.misses;
    evicted = false;
    if (const auto it = map_.find(text); it != map_.end())
      return it->second->second;
    lru_.emplace_front(std::string(text), std::move(value));
    // Keys view the text held by the list node.
    map_.emplace(lru_.front().first, lru_.begin());
    if (lru_.size() > capacity_) {
      map_.erase(lru_.back().first);
      lru_.pop_back();
      ++stats_.evictions;
      evicted = true;
    }
    return lru_.front().second;
  }

  Stats stats() const AMG_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    Stats s = stats_;
    s.entries = map_.size();
    return s;
  }

  /// Drop every entry and zero the stats.
  void clear() AMG_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    map_.clear();
    lru_.clear();
    stats_ = {};
  }

 private:
  using Entry = std::pair<std::string, Value>;

  const std::size_t capacity_;
  mutable Mutex mu_;
  std::list<Entry> lru_ AMG_GUARDED_BY(mu_);  // most recently used first
  std::unordered_map<std::string_view, typename std::list<Entry>::iterator>
      map_ AMG_GUARDED_BY(mu_);
  Stats stats_ AMG_GUARDED_BY(mu_);
};

}  // namespace amg::util
