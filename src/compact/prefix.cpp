#include "compact/prefix.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "compact/detail.h"
#include "io/layout.h"
#include "obs/obs.h"
#include "util/hash.h"
#include "util/version.h"

namespace amg::compact {
namespace {

/// Keyed into every chain seed so stale disk tiers can never resurrect;
/// bump rules live with the constant (util/version.h).
constexpr std::uint64_t kPrefixFormatVersion = util::kPrefixFormatVersion;

constexpr std::size_t kHeaderBytes = PrefixEntryHeader::kBytes;

void storeLE(std::uint8_t* p, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t payloadChecksum(const std::vector<std::uint8_t>& entry) {
  return util::wordHash(entry.data() + kHeaderBytes, entry.size() - kHeaderBytes);
}

/// The chain step k writes a full snapshot at: 1, 2, 4, 8, …
bool snapshotStep(std::uint64_t k) { return (k & (k - 1)) == 0; }

/// One live chain per module under construction.  Thread-local: a module
/// is only ever built by one thread (the batch engine gives each job its
/// own interpreter), so sessions need no locking and cannot alias across
/// workers.
struct Sess {
  PrefixCache* cache = nullptr;
  const tech::Technology* tech = nullptr;
  std::uint64_t chain = 0;  ///< hash of the module's *logical* state
  std::uint64_t step = 0;   ///< k of chain_k: steps since the seed
  std::uint64_t stamp = 0;  ///< module stamp the chain was recorded at
  /// Pinned hits not yet applied, oldest first: at most one snapshot (the
  /// first), then deltas.  Non-empty means the module's bytes lag the
  /// chain.
  std::vector<PrefixCache::Blob> pending;
};

std::unordered_map<const db::Module*, Sess>& tlsSessions() {
  thread_local std::unordered_map<const db::Module*, Sess> sessions;
  return sessions;
}

/// Bring `m` to the chain's state: the pinned snapshot (if any) replaces
/// it, then each pinned delta applies in order.  Re-validates the session.
void materialize(Sess& s, db::Module& m) {
  obs::Span span("gen.prefix.materialize");
  std::uint64_t bytes = 0, deltas = 0;
  for (const PrefixCache::Blob& entry : s.pending) {
    bytes += entry->size();
    if (readEntryHeader(*entry)->kind == PrefixCache::Kind::Snapshot) {
      m = io::deserializeSessionState(*entry, *s.tech, kHeaderBytes);
    } else {
      io::applySessionDelta(m, *entry, kHeaderBytes);
      ++deltas;
    }
  }
  span.arg("bytes", bytes).arg("deltas", deltas);
  OBS_COUNT_N("gen.prefix.replayed_deltas", deltas);
  s.pending.clear();
  s.stamp = m.stamp();
  s.cache->noteMaterialization();
}

/// Fingerprint of one (object, direction, options) step.
std::uint64_t stepFingerprint(const db::Module& target, const db::Module& obj,
                              Dir dir, const Options& options) {
  std::uint64_t h = io::sessionStateDigest(obj);
  h = util::fnv1a(static_cast<std::uint64_t>(dir), h);
  // The ignore layers as a set of names: their order and repeats in the
  // call do not matter, so each distinct name's hash is summed.
  const std::vector<tech::LayerId>& ignored = options.ignoreLayers;
  std::uint64_t distinct = 0, names = 0;
  for (auto it = ignored.begin(); it != ignored.end(); ++it) {
    if (std::find(ignored.begin(), it, *it) != it) continue;
    ++distinct;
    names += util::fnv1a(target.technology().info(*it).name);
  }
  h = util::fnv1a(names, util::fnv1a(distinct, h));
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

std::optional<PrefixEntryHeader> readEntryHeader(const std::vector<std::uint8_t>& entry) {
  if (entry.size() < kHeaderBytes) return std::nullopt;
  const std::uint8_t* p = entry.data();
  PrefixEntryHeader h;
  h.version = static_cast<std::uint32_t>(util::loadLE(p, 4));
  h.kind = static_cast<PrefixEntryHeader::Kind>(util::loadLE(p + 4, 4));
  h.key = util::loadLE(p + 8, 8);
  h.parent = util::loadLE(p + 16, 8);
  h.length = util::loadLE(p + 24, 8);
  h.checksum = util::loadLE(p + 32, 8);
  return h;
}

PrefixCache::Blob PrefixCache::get(std::uint64_t key, std::uint64_t parent) {
  util::BlobStore::Lookup got = store_.get(key);
  if (got.evicted) OBS_COUNT_N("gen.prefix.evictions", got.evicted);
  if (got.found != util::BlobStore::Found::Miss) {
    const std::optional<PrefixEntryHeader> h = readEntryHeader(*got.blob);
    const bool valid =
        h && h->version == kPrefixFormatVersion &&
        (h->kind == Kind::Snapshot || h->kind == Kind::Delta) && h->key == key &&
        h->parent == parent && h->length == got.blob->size() - kHeaderBytes &&
        h->checksum == payloadChecksum(*got.blob);
    if (!valid) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      OBS_COUNT("gen.prefix.rejected");
      got.found = util::BlobStore::Found::Miss;
      got.blob.reset();
    }
  }
  if (got.found == util::BlobStore::Found::Memory) OBS_COUNT("gen.prefix.hits");
  if (got.found == util::BlobStore::Found::Disk) OBS_COUNT("gen.prefix.disk_hits");
  if (got.found == util::BlobStore::Found::Miss) OBS_COUNT("gen.prefix.misses");
  return std::move(got.blob);
}

void PrefixCache::put(std::uint64_t key, std::uint64_t parent, Kind kind,
                      std::vector<std::uint8_t> entry) {
  if (entry.size() < kHeaderBytes)
    throw std::invalid_argument("prefix entry has no room for its header");
  std::uint8_t* h = entry.data();
  storeLE(h, kPrefixFormatVersion, 4);
  storeLE(h + 4, static_cast<std::uint32_t>(kind), 4);
  storeLE(h + 8, key, 8);
  storeLE(h + 16, parent, 8);
  storeLE(h + 24, entry.size() - kHeaderBytes, 8);
  storeLE(h + 32, payloadChecksum(entry), 8);

  OBS_COUNT("gen.prefix.puts");
  if (kind == Kind::Snapshot)
    OBS_COUNT("gen.prefix.snapshot_puts");
  else
    OBS_COUNT("gen.prefix.delta_puts");
  OBS_COUNT_N("gen.prefix.bytes_put", entry.size());
  OBS_HIST("gen.prefix.put_bytes", entry.size());
  const std::size_t evicted = store_.put(key, std::move(entry));
  if (evicted) OBS_COUNT_N("gen.prefix.evictions", evicted);
}

PrefixCache::Events PrefixCache::events() const {
  return {restoredSteps_.load(std::memory_order_relaxed),
          materializations_.load(std::memory_order_relaxed),
          reseeds_.load(std::memory_order_relaxed),
          rejected_.load(std::memory_order_relaxed)};
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
    // this module.  Any pinned entry belongs to the dead history.
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
    s.chain = util::fnv1a(io::sessionStateDigest(target), seed);
    s.stamp = target.stamp();
    cache.noteReseed();
    it = sessions.emplace(&target, std::move(s)).first;
  }
  Sess& s = it->second;

  const std::uint64_t next =
      util::fnv1a(stepFingerprint(target, obj, dir, options), s.chain);
  if (PrefixCache::Blob hit = cache.get(next, s.chain)) {
    // Deferred restore: pin the entry, leave the module untouched (so the
    // recorded stamp stays valid) and skip the step entirely.  A snapshot
    // supersedes every pin before it.
    if (readEntryHeader(*hit)->kind == PrefixCache::Kind::Snapshot) s.pending.clear();
    s.pending.push_back(std::move(hit));
    s.chain = next;
    ++s.step;
    cache.noteRestoredStep();
    return true;
  }
  try {
    if (!s.pending.empty()) materialize(s, target);
    io::SessionDelta delta = io::SessionDelta::startingAt(target);
    detail::Edits edits;
    detail::compact(target, obj, dir, options, edits);
    s.stamp = target.stamp();
    const std::uint64_t parent = s.chain;
    s.chain = next;
    if (snapshotStep(++s.step)) {
      cache.put(next, parent, PrefixCache::Kind::Snapshot,
                io::serializeSessionState(target, kHeaderBytes));
    } else {
      delta.editedShapes = std::move(edits.shapes);
      delta.editedArrays = std::move(edits.arrays);
      cache.put(next, parent, PrefixCache::Kind::Delta,
                io::serializeSessionDelta(target, std::move(delta), kHeaderBytes));
    }
  } catch (...) {
    // The step may have half-applied; the stale stamp would catch it, but
    // drop the bookkeeping eagerly so the pins are released.
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
  if (!s.pending.empty()) materialize(s, m);
}

void prefixEnd(db::Module& m) {
  prefixSync(m);
  tlsSessions().erase(&m);
}

void prefixAbandon(db::Module& m) noexcept { tlsSessions().erase(&m); }

}  // namespace amg::compact
