#include "compact/prefix.h"

#include <algorithm>
#include <string>
#include <unordered_map>

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

PrefixCache::PrefixCache(util::BlobStoreConfig cfg)
    : store_(std::move(cfg), ".amgp") {}

PrefixCache::Blob PrefixCache::get(std::uint64_t key) {
  util::BlobStore::Lookup got = store_.get(key);
  if (got.found == util::BlobStore::Found::Memory) OBS_COUNT("gen.prefix.hits");
  if (got.found == util::BlobStore::Found::Disk) OBS_COUNT("gen.prefix.disk_hits");
  if (got.found == util::BlobStore::Found::Miss) OBS_COUNT("gen.prefix.misses");
  if (got.evicted) OBS_COUNT_N("gen.prefix.evictions", got.evicted);
  return std::move(got.blob);
}

void PrefixCache::put(std::uint64_t key, std::vector<std::uint8_t> bytes) {
  OBS_COUNT("gen.prefix.puts");
  OBS_COUNT_N("gen.prefix.bytes_put", bytes.size());
  const std::size_t evicted = store_.put(key, std::move(bytes));
  if (evicted) OBS_COUNT_N("gen.prefix.evictions", evicted);
}

PrefixCache::Events PrefixCache::events() const {
  return {restoredSteps_.load(std::memory_order_relaxed),
          materializations_.load(std::memory_order_relaxed),
          reseeds_.load(std::memory_order_relaxed)};
}

void PrefixCache::noteRestoredStep() {
  restoredSteps_.fetch_add(1, std::memory_order_relaxed);
  OBS_COUNT("gen.prefix.restored_steps");
}

void PrefixCache::noteMaterialization() {
  materializations_.fetch_add(1, std::memory_order_relaxed);
  OBS_COUNT("gen.prefix.materializations");
}

void PrefixCache::noteReseed() {
  reseeds_.fetch_add(1, std::memory_order_relaxed);
  OBS_COUNT("gen.prefix.reseeds");
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
    cache.noteRestoredStep();
    return true;
  }
  try {
    if (s.pending) materialize(s, target);
    compact(target, obj, dir, options);
    s.stamp = target.stamp();
    s.chain = next;
    cache.put(next, io::serializeSessionState(target));
  } catch (...) {
    // The step may have half-applied; the stale stamp would catch it, but
    // drop the bookkeeping eagerly so the blob is not pinned.
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
