#include "compact/prefix.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "io/layout.h"
#include "obs/obs.h"
#include "util/hash.h"
#include "util/version.h"

namespace amg::compact {
namespace {

/// Keyed into every chain seed so stale disk tiers can never resurrect;
/// bump rules live with the constant (util/version.h).
constexpr std::uint64_t kPrefixFormatVersion = util::kPrefixFormatVersion;

std::string_view view(const std::vector<std::uint8_t>& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

/// One live chain per module under construction.  Thread-local: a module
/// is only ever built by one thread (the batch engine gives each job its
/// own interpreter), so sessions need no locking and cannot alias across
/// workers.
struct Sess {
  PrefixCache* cache = nullptr;
  const tech::Technology* tech = nullptr;
  std::uint64_t chain = 0;  ///< hash of the module's *logical* state
  std::uint64_t stamp = 0;  ///< module stamp the chain was recorded at
  /// Parked snapshot of the logical state (deferred restore); non-null
  /// means the module's bytes lag the chain.
  PrefixCache::Blob pending;
  /// Persistent compaction session (incremental spatial index); only kept
  /// while the module's bytes are current.
  std::unique_ptr<Compactor> session;
};

std::unordered_map<const db::Module*, Sess>& tlsSessions() {
  thread_local std::unordered_map<const db::Module*, Sess> sessions;
  return sessions;
}

/// Deserialize the parked snapshot into `m` and re-validate the session.
void materialize(Sess& s, db::Module& m) {
  obs::Span span("gen.prefix.materialize");
  span.arg("bytes", static_cast<std::uint64_t>(s.pending->size()));
  m = io::deserializeSessionState(*s.pending, *s.tech);
  s.pending.reset();
  s.session.reset();  // the index described the replaced store
  s.stamp = m.stamp();
  s.cache->noteMaterialization();
}

/// Fingerprint of one (object, direction, options) step.
std::uint64_t stepFingerprint(const db::Module& target, const db::Module& obj,
                              Dir dir, const Options& options) {
  std::uint64_t h = util::fnv1a(view(io::serializeSessionState(obj)));
  h = util::fnv1a(static_cast<std::uint64_t>(dir), h);
  std::vector<std::string> ignored;
  ignored.reserve(options.ignoreLayers.size());
  for (const tech::LayerId l : options.ignoreLayers)
    ignored.push_back(target.technology().info(l).name);
  std::sort(ignored.begin(), ignored.end());
  ignored.erase(std::unique(ignored.begin(), ignored.end()), ignored.end());
  h = util::fnv1a(static_cast<std::uint64_t>(ignored.size()), h);
  for (const std::string& name : ignored) h = util::fnv1a(name, h);
  h = util::fnv1a(static_cast<std::uint64_t>(
                      (options.enableVariableEdges ? 1u : 0u) |
                      (options.autoConnect ? 2u : 0u)),
                  h);
  h = util::fnv1a(static_cast<std::uint64_t>(options.extraGap), h);
  return h;
}

}  // namespace

PrefixCache::PrefixCache(PrefixCacheConfig cfg) : cfg_(std::move(cfg)) {}

std::string PrefixCache::diskPath(std::uint64_t key) const {
  return cfg_.diskDir + "/" + util::keyHex(key) + ".amgp";
}

PrefixCache::Blob PrefixCache::get(std::uint64_t key) {
  util::MutexLock lock(mu_);
  if (const auto it = index_.find(key); it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // touch
    ++stats_.hits;
    OBS_COUNT("gen.prefix.hits");
    return it->second->second;
  }
  if (!cfg_.diskDir.empty()) {
    std::ifstream f(diskPath(key), std::ios::binary);
    if (f) {
      auto blob = std::make_shared<const std::vector<std::uint8_t>>(
          std::vector<std::uint8_t>((std::istreambuf_iterator<char>(f)),
                                    std::istreambuf_iterator<char>()));
      ++stats_.diskHits;
      OBS_COUNT("gen.prefix.disk_hits");
      if (blob->size() <= cfg_.maxBytes) {
        bytes_ += blob->size();
        lru_.emplace_front(key, blob);
        index_[key] = lru_.begin();
        evictToFit();
      }
      return blob;
    }
  }
  ++stats_.misses;
  OBS_COUNT("gen.prefix.misses");
  return nullptr;
}

void PrefixCache::put(std::uint64_t key, std::vector<std::uint8_t> bytes) {
  util::MutexLock lock(mu_);
  ++stats_.puts;
  OBS_COUNT("gen.prefix.puts");
  OBS_COUNT_N("gen.prefix.bytes_put", bytes.size());
  if (!cfg_.diskDir.empty()) {
    if (!diskDirReady_) {
      std::error_code ec;
      std::filesystem::create_directories(cfg_.diskDir, ec);
      diskDirReady_ = true;  // try once; a bad dir degrades to memory-only
    }
    std::ofstream f(diskPath(key), std::ios::binary | std::ios::trunc);
    if (f)
      f.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  if (const auto it = index_.find(key); it != index_.end()) {
    bytes_ -= it->second->second->size();
    lru_.erase(it->second);
    index_.erase(it);
  }
  if (bytes.size() > cfg_.maxBytes) return;  // disk-only oversize blob
  auto blob =
      std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
  bytes_ += blob->size();
  lru_.emplace_front(key, std::move(blob));
  index_[key] = lru_.begin();
  evictToFit();
}

void PrefixCache::evictToFit() {
  while (bytes_ > cfg_.maxBytes && !lru_.empty()) {
    const auto& victim = lru_.back();
    bytes_ -= victim.second->size();
    index_.erase(victim.first);
    lru_.pop_back();
    ++stats_.evictions;
    OBS_COUNT("gen.prefix.evictions");
  }
}

PrefixCache::Stats PrefixCache::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

std::size_t PrefixCache::entryCount() const {
  util::MutexLock lock(mu_);
  return lru_.size();
}

std::size_t PrefixCache::byteCount() const {
  util::MutexLock lock(mu_);
  return bytes_;
}

void PrefixCache::noteRestoredStep() {
  util::MutexLock lock(mu_);
  ++stats_.restoredSteps;
  OBS_COUNT("gen.prefix.restored_steps");
}

void PrefixCache::noteMaterialization() {
  util::MutexLock lock(mu_);
  ++stats_.materializations;
  OBS_COUNT("gen.prefix.materializations");
}

void PrefixCache::noteReseed() {
  util::MutexLock lock(mu_);
  ++stats_.reseeds;
  OBS_COUNT("gen.prefix.reseeds");
}

bool prefixCacheEnvEnabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("AMG_PREFIX_CACHE");
    return !(v && v[0] == '0' && v[1] == '\0');
  }();
  return enabled;
}

bool prefixStep(PrefixCache& cache, db::Module& target, const db::Module& obj,
                Dir dir, const Options& options) {
  auto& sessions = tlsSessions();
  auto it = sessions.find(&target);
  if (it != sessions.end() &&
      (it->second.cache != &cache || it->second.stamp != target.stamp())) {
    // Out-of-band mutation (DSL primitive, VARIANT rollback, reused stack
    // slot) or a different cache instance: the chain no longer describes
    // this module.  Any parked snapshot belongs to the dead history.
    sessions.erase(it);
    it = sessions.end();
  }
  if (it == sessions.end()) {
    Sess s;
    s.cache = &cache;
    s.tech = &target.technology();
    const std::uint64_t seed =
        util::fnv1a(s.tech->contentFingerprint(),
                    util::fnv1a(kPrefixFormatVersion, util::kFnvBasis));
    s.chain = util::fnv1a(view(io::serializeSessionState(target)), seed);
    s.stamp = target.stamp();
    cache.noteReseed();
    it = sessions.emplace(&target, std::move(s)).first;
  }
  Sess& s = it->second;

  const std::uint64_t next =
      util::fnv1a(stepFingerprint(target, obj, dir, options), s.chain);
  if (PrefixCache::Blob hit = cache.get(next)) {
    // Deferred restore: park the snapshot, leave the module untouched (so
    // the recorded stamp stays valid) and skip the step entirely.
    s.pending = std::move(hit);
    s.chain = next;
    s.session.reset();
    cache.noteRestoredStep();
    return true;
  }
  try {
    if (s.pending) materialize(s, target);
    if (!s.session) s.session = std::make_unique<Compactor>(target, options);
    s.session->compact(obj, dir, options);
    s.stamp = target.stamp();
    s.chain = next;
    cache.put(next, io::serializeSessionState(target));
  } catch (...) {
    // The step may have half-applied; the stale stamp would catch it, but
    // drop the session eagerly so the blob is not pinned.
    sessions.erase(&target);
    throw;
  }
  return false;
}

void prefixSync(db::Module& m) {
  auto& sessions = tlsSessions();
  const auto it = sessions.find(&m);
  if (it == sessions.end()) return;
  Sess& s = it->second;
  if (s.stamp != m.stamp()) {
    sessions.erase(it);  // stale: the pending state was abandoned
    return;
  }
  if (s.pending) materialize(s, m);
}

void prefixEnd(db::Module& m) {
  prefixSync(m);
  tlsSessions().erase(&m);
}

void prefixAbandon(db::Module& m) noexcept { tlsSessions().erase(&m); }

}  // namespace amg::compact
