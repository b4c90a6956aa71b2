#include "chunk/tiered_chunk_store.h"

#include <algorithm>
#include <optional>

namespace forkbase {

namespace {
// One promotion per distinct chunk: duplicate ids in a batch each produce
// their own cold-hit slot, but the hot tier stores (and the promotions
// counter reports) one copy.
void DedupByHash(std::vector<Chunk>* chunks) {
  std::unordered_set<Hash256, Hash256Hasher> seen;
  size_t w = 0;
  for (auto& chunk : *chunks) {
    if (seen.insert(chunk.hash()).second) (*chunks)[w++] = std::move(chunk);
  }
  chunks->resize(w);
}
}  // namespace

TieredChunkStore::TieredChunkStore(std::shared_ptr<ChunkStore> hot,
                                   std::shared_ptr<ChunkStore> cold)
    : TieredChunkStore(std::move(hot), std::move(cold), Options{}) {}

TieredChunkStore::TieredChunkStore(std::shared_ptr<ChunkStore> hot,
                                   std::shared_ptr<ChunkStore> cold,
                                   Options options)
    : hot_(std::move(hot)),
      cold_(std::move(cold)),
      options_(std::move(options)),
      meta_(kMetaShards),
      demote_pool_(1) {
  // Restore the dirty set a previous incarnation left behind. With a
  // manifest that replayed an existing journal, its word is authoritative:
  // demotion resumes exactly where the crash left it. With a manifest whose
  // file was missing (first open, or the journal was lost with the disk),
  // fall back to reconciling the tiers: anything hot-resident the cold tier
  // lacks is an undemoted write-back chunk.
  std::vector<Hash256> restored;
  if (options_.policy == TierPolicy::kWriteBack && options_.dirty_manifest) {
    DirtyManifest& manifest = *options_.dirty_manifest;
    if (manifest.existed()) {
      restored = manifest.DirtyIds();
    } else {
      hot_->ForEachId([&](const Hash256& id, uint64_t size) {
        (void)size;
        if (!cold_->Contains(id)) restored.push_back(id);
      });
      if (!restored.empty()) (void)manifest.MarkDirty(restored);
    }
  }
  std::unordered_set<Hash256, Hash256Hasher> restored_set(restored.begin(),
                                                          restored.end());
  // Seed the eviction tracker from the hot tier's index (an id walk, no
  // chunk reads): restored-dirty chunks enter pinned, the rest clean.
  if (tracking()) {
    hot_->ForEachId([&](const Hash256& id, uint64_t size) {
      NoteHot(id, size, restored_set.count(id) > 0);
    });
  }
  if (!restored.empty()) QueueDirty(restored);
  EnforceHotBudget();
}

TieredChunkStore::~TieredChunkStore() {
  (void)FlushColdTier();  // best effort; failures leave chunks hot-only
  demote_pool_.Shutdown();
}

// ---- hot-residency tracker ------------------------------------------------

TieredChunkStore::MetaShard& TieredChunkStore::MetaShardFor(
    const Hash256& id) const {
  return meta_[id.bytes[1] % kMetaShards];
}

bool TieredChunkStore::NoteHot(const Hash256& id, uint64_t size,
                               bool dirty) const {
  if (!tracking()) return dirty;  // untracked: every write-back put queues
  MetaShard& shard = MetaShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(id);
  if (it != shard.map.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    // Never clean -> dirty: a clean entry is cold-resident (same id, same
    // bytes — the demotion already happened), and a dirty entry is already
    // queued or riding an in-flight drain.
    return false;
  }
  shard.lru.push_front(MetaEntry{id, size, dirty});
  shard.map.emplace(id, shard.lru.begin());
  hot_bytes_.fetch_add(size, std::memory_order_relaxed);
  if (dirty) pinned_dirty_bytes_.fetch_add(size, std::memory_order_relaxed);
  return dirty;
}

void TieredChunkStore::TouchHot(const Hash256& id) const {
  if (!tracking()) return;
  MetaShard& shard = MetaShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(id);
  if (it != shard.map.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  }
}

void TieredChunkStore::MarkCleanMeta(std::span<const Hash256> ids) const {
  if (!tracking()) return;
  for (const Hash256& id : ids) {
    MetaShard& shard = MetaShardFor(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(id);
    if (it == shard.map.end() || !it->second->dirty) continue;
    it->second->dirty = false;
    pinned_dirty_bytes_.fetch_sub(it->second->size,
                                  std::memory_order_relaxed);
  }
}

void TieredChunkStore::ForgetHot(std::span<const Hash256> ids) const {
  if (!tracking()) return;
  for (const Hash256& id : ids) {
    MetaShard& shard = MetaShardFor(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(id);
    if (it == shard.map.end()) continue;
    hot_bytes_.fetch_sub(it->second->size, std::memory_order_relaxed);
    if (it->second->dirty) {
      pinned_dirty_bytes_.fetch_sub(it->second->size,
                                    std::memory_order_relaxed);
    }
    shard.lru.erase(it->second);
    shard.map.erase(it);
  }
}

std::vector<std::pair<Hash256, uint64_t>> TieredChunkStore::CollectVictims(
    size_t max_n) const {
  std::vector<std::pair<Hash256, uint64_t>> victims;
  // Rotate the starting shard so repeated passes spread wear instead of
  // draining shard 0 first.
  const size_t start =
      evict_cursor_.fetch_add(1, std::memory_order_relaxed) % kMetaShards;
  for (size_t s = 0; s < kMetaShards && victims.size() < max_n; ++s) {
    MetaShard& shard = meta_[(start + s) % kMetaShards];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.lru.end();
    while (it != shard.lru.begin() && victims.size() < max_n) {
      --it;
      if (it->dirty) continue;  // pinned until demotion lands
      victims.emplace_back(it->id, it->size);
      hot_bytes_.fetch_sub(it->size, std::memory_order_relaxed);
      shard.map.erase(it->id);
      it = shard.lru.erase(it);
    }
  }
  return victims;
}

void TieredChunkStore::EnforceHotBudget() const {
  if (!tracking() || !hot_->SupportsErase()) return;
  // One pass at a time; a racing caller's over-budget state is this pass's
  // to fix.
  if (!evict_mu_.try_lock()) return;
  std::lock_guard<std::mutex> lock(evict_mu_, std::adopt_lock);
  const uint64_t budget = options_.hot_bytes_budget;
  const uint64_t space = hot_->space_used();
  if (space <= budget) return;
  // Evict as if each erase frees its chunk immediately; the hot tier's own
  // reclamation (segment rewrite) catches up, and the next pass re-reads
  // the real footprint. Estimating by chunk size (without framing overhead)
  // under-counts, which errs toward evicting slightly more — the safe side
  // of a budget.
  uint64_t need = space - budget;
  uint64_t freed = 0;
  while (freed < need) {
    auto victims = CollectVictims(options_.evict_batch);
    if (victims.empty()) break;  // everything left is pinned dirty
    std::vector<Hash256> confirmed;
    std::vector<uint64_t> confirmed_sizes;
    confirmed.reserve(victims.size());
    confirmed_sizes.reserve(victims.size());
    for (const auto& [id, size] : victims) {
      // Final safety check: only erase what the cold tier provably holds.
      // A clean entry whose chunk the cold tier lacks (a lost manifest, a
      // cold tier swapped out from under us) re-enters the dirty pipeline
      // instead of being dropped.
      if (cold_->Contains(id)) {
        confirmed.push_back(id);
        confirmed_sizes.push_back(size);
        freed += size;
      } else {
        NoteHot(id, size, true);
        std::lock_guard<std::mutex> dirty_lock(dirty_mu_);
        dirty_.insert(id);
      }
    }
    if (confirmed.empty()) continue;
    if (!hot_->Erase(confirmed).ok()) {
      // The erase may have partially applied (FileChunkStore's in-memory
      // erase stands even when its tombstone journal fails), so put the
      // victims back in the tracker as clean rather than losing them from
      // the budget's books: a still-resident chunk stays evictable, and a
      // tracker entry for one that did go is harmless (the next eviction
      // pass forgets it again via an idempotent erase).
      for (size_t i = 0; i < confirmed.size(); ++i) {
        NoteHot(confirmed[i], confirmed_sizes[i], false);
      }
      break;
    }
    evictions_.fetch_add(confirmed.size(), std::memory_order_relaxed);
  }
}

// ---- writes ---------------------------------------------------------------

Status TieredChunkStore::PutImpl(const Chunk& chunk) {
  const Chunk* one = &chunk;
  return PutManyImpl(std::span<const Chunk>(one, 1));
}

Status TieredChunkStore::PutManyImpl(std::span<const Chunk> chunks) {
  FB_RETURN_IF_ERROR(hot_->PutMany(chunks));
  if (options_.policy == TierPolicy::kWriteThrough) {
    // Track hot residency before attempting the cold write: the chunks
    // occupy hot-tier space whether or not the cold tier accepts them, and
    // an untracked chunk is invisible to the budget until reopen. Marking
    // them clean is safe even when the cold write then fails — the
    // evictor's final cold_->Contains check refuses to drop a chunk the
    // cold tier does not hold.
    for (const Chunk& chunk : chunks) {
      NoteHot(chunk.hash(), chunk.size(), /*dirty=*/false);
    }
    Status cold_status = cold_->PutMany(chunks);
    EnforceHotBudget();
    return cold_status;
  }
  Status status = MarkDirty(chunks);
  EnforceHotBudget();
  return status;
}

Status TieredChunkStore::MarkDirty(std::span<const Chunk> chunks) {
  // The tracker decides which chunks truly need demotion: re-puts of clean
  // (already-demoted) chunks and of already-queued dirty ones are skipped.
  std::vector<Hash256> newly_dirty;
  newly_dirty.reserve(chunks.size());
  for (const Chunk& chunk : chunks) {
    if (NoteHot(chunk.hash(), chunk.size(), /*dirty=*/true)) {
      newly_dirty.push_back(chunk.hash());
    }
  }
  // Journal before acknowledging: an id must be recoverable as dirty the
  // instant its Put returns. On journal failure the in-memory pipeline
  // still runs (this process will demote), but the caller learns its
  // durability guarantee degraded.
  Status journal;
  if (!newly_dirty.empty() && options_.dirty_manifest) {
    journal = options_.dirty_manifest->MarkDirty(newly_dirty);
  }
  QueueDirty(newly_dirty);
  return journal;
}

void TieredChunkStore::QueueDirty(std::span<const Hash256> ids) {
  std::vector<Hash256> batch;
  {
    std::lock_guard<std::mutex> lock(dirty_mu_);
    dirty_.insert(ids.begin(), ids.end());
    // One drain in flight at a time; the set keeps absorbing new ids while
    // the previous drain runs, and the drain's completion re-checks the
    // watermark itself (ScheduleDemotion), so a burst that outruns one
    // drain still demotes without waiting for the next Put.
    if (!options_.background_demotion ||
        dirty_.size() < options_.write_back_watermark ||
        demotions_in_flight_ > 0) {
      return;
    }
    batch.assign(dirty_.begin(), dirty_.end());
    dirty_.clear();
    ++demotions_in_flight_;
  }
  ScheduleDemotion(std::move(batch));
}

void TieredChunkStore::ScheduleDemotion(std::vector<Hash256> batch) {
  // Precondition: the caller holds one demotions_in_flight_ slot.
  demote_pool_.Submit([this, batch = std::move(batch)]() mutable {
    const bool drained = DemoteIds(std::move(batch)).ok();
    std::vector<Hash256> next;
    {
      std::lock_guard<std::mutex> lock(dirty_mu_);
      // Chain into the ids that accumulated during this drain — but only
      // after a clean drain: a failure re-marked its ids dirty, and
      // re-submitting immediately would spin against a down cold tier
      // (the next Put or FlushColdTier retries instead).
      if (drained && dirty_.size() >= options_.write_back_watermark) {
        next.assign(dirty_.begin(), dirty_.end());
        dirty_.clear();
      } else {
        --demotions_in_flight_;
      }
      demote_cv_.notify_all();
    }
    if (!next.empty()) ScheduleDemotion(std::move(next));
  });
}

Status TieredChunkStore::DemoteIds(std::vector<Hash256> ids) {
  for (size_t start = 0; start < ids.size();) {
    const size_t n = std::min(options_.demote_batch, ids.size() - start);
    std::span<const Hash256> sub(ids.data() + start, n);
    auto slots = hot_->GetMany(sub);
    std::vector<Chunk> chunks;
    chunks.reserve(n);
    Status read_error;
    for (auto& slot : slots) {
      if (slot.ok()) {
        chunks.push_back(std::move(*slot));
      } else if (read_error.ok() && !slot.status().IsNotFound()) {
        read_error = slot.status();
      }
      // kNotFound: the chunk left the hot tier (evicted after its earlier
      // demotion, or external cleanup); there is nothing to copy, so it is
      // dropped rather than retried forever.
    }
    Status status = read_error;
    if (status.ok() && !chunks.empty()) {
      status = cold_->PutMany(chunks);  // skip the round trip for a batch
                                        // of vanished ids
    }
    if (!status.ok()) {
      // Nothing from this run landed (PutMany faults before applying, and a
      // read error skips the cold write): everything from `start` on stays
      // dirty for the next drain. Chunks remain readable from the hot tier.
      std::lock_guard<std::mutex> lock(dirty_mu_);
      dirty_.insert(ids.begin() + static_cast<ptrdiff_t>(start), ids.end());
      return status;
    }
    // The whole sub-batch is settled: landed chunks are cold-resident, and
    // vanished ids have nothing left to demote. Clear the journal, unpin
    // the tracker entries, and let the evictor reclaim what the drain just
    // made evictable.
    if (options_.dirty_manifest) {
      (void)options_.dirty_manifest->MarkClean(sub);
    }
    MarkCleanMeta(sub);
    demotions_.fetch_add(chunks.size(), std::memory_order_relaxed);
    EnforceHotBudget();
    start += n;
  }
  return Status::OK();
}

Status TieredChunkStore::FlushColdTier() {
  if (options_.policy == TierPolicy::kWriteThrough) return Status::OK();
  std::vector<Hash256> ids;
  {
    std::unique_lock<std::mutex> lock(dirty_mu_);
    demote_cv_.wait(lock, [&] { return demotions_in_flight_ == 0; });
    ids.assign(dirty_.begin(), dirty_.end());
    dirty_.clear();
  }
  return DemoteIds(std::move(ids));
}

Status TieredChunkStore::Erase(std::span<const Hash256> ids) {
  // An erased chunk must not come back as a demotion: wait out any
  // in-flight drain (its batch snapshot may hold these ids and would
  // re-write them to the cold tier — or, on failure, re-queue them —
  // after our erase), then clear the pipeline, then the tiers. Erase is
  // an administrative operation; pausing it behind a drain is fine.
  //
  // The dirty-set membership captured here is the tier policy for garbage:
  // a dirty id that never reached the cold tier is evicted from the hot
  // tier and unpinned from the manifest without ever touching the cold
  // backend — demoting garbage just to delete it remotely would be a
  // wasted round trip (and wasted cold-tier writes). A dirty id CAN have a
  // cold copy (re-put of an already-demoted chunk re-marks it dirty), so
  // the hot-only shortcut applies only when the cold tier confirms the id
  // is absent; everything else joins the cold erase below.
  std::vector<Hash256> dirty_garbage;
  {
    std::unique_lock<std::mutex> lock(dirty_mu_);
    demote_cv_.wait(lock, [&] { return demotions_in_flight_ == 0; });
    for (const Hash256& id : ids) {
      if (dirty_.erase(id) > 0) dirty_garbage.push_back(id);
    }
  }
  if (options_.dirty_manifest && !dirty_garbage.empty()) {
    // Unpin exactly the erased dirty ids — clean ids would only bloat the
    // manifest journal with no-op records.
    (void)options_.dirty_manifest->MarkClean(dirty_garbage);
  }
  // Hot-only candidates: dirty ids the cold tier has never seen. The
  // Contains probe is an index lookup on file-backed cold tiers; for the
  // handful of re-put ids it rejects, the cold erase below keeps the
  // both-tiers-cleared contract.
  std::unordered_set<Hash256, Hash256Hasher> hot_only;
  for (const Hash256& id : dirty_garbage) {
    if (!cold_->Contains(id)) hot_only.insert(id);
  }
  ForgetHot(ids);
  Status status;
  if (hot_->SupportsErase()) {
    Status hot_status = hot_->Erase(ids);
    if (status.ok()) status = hot_status;
  }
  hot_only_erases_.fetch_add(hot_only.size(), std::memory_order_relaxed);
  if (cold_->SupportsErase() && hot_only.size() < ids.size()) {
    std::vector<Hash256> cold_ids;
    if (hot_only.empty()) {
      cold_ids.assign(ids.begin(), ids.end());
    } else {
      cold_ids.reserve(ids.size() - hot_only.size());
      for (const Hash256& id : ids) {
        if (!hot_only.count(id)) cold_ids.push_back(id);
      }
    }
    Status cold_status = cold_->Erase(cold_ids);
    if (status.ok()) status = cold_status;
  }
  return status;
}

// ---- reads ----------------------------------------------------------------

StatusOr<Chunk> TieredChunkStore::Get(const Hash256& id) const {
  return std::move(GetMany({&id, 1})[0]);
}

std::vector<StatusOr<Chunk>> TieredChunkStore::GetMany(
    std::span<const Hash256> ids) const {
  Partition split = Split(ids);
  auto read = [](const ChunkStore& tier, const std::vector<Hash256>& share) {
    return share.empty() ? std::vector<StatusOr<Chunk>>() : tier.GetMany(share);
  };
  std::vector<StatusOr<Chunk>> hot = read(*hot_, split.hot_ids);
  std::vector<StatusOr<Chunk>> cold = read(*cold_, split.cold_ids);
  return MergeTiers(split, ids.size(), std::move(hot), std::move(cold));
}

TieredChunkStore::Partition TieredChunkStore::Split(
    std::span<const Hash256> ids) const {
  // The per-id Contains probe (an index lookup) sends each id to the one
  // tier that holds it. Races the probe can lose are healed in MergeTiers
  // (hot-miss → cold retry, cold-miss → hot retry).
  Partition partition;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (hot_->Contains(ids[i])) {
      partition.hot_ids.push_back(ids[i]);
      partition.hot_slots.push_back(i);
    } else {
      partition.cold_ids.push_back(ids[i]);
      partition.cold_slots.push_back(i);
    }
  }
  return partition;
}

std::vector<StatusOr<Chunk>> TieredChunkStore::MergeTiers(
    const Partition& split, size_t total,
    std::vector<StatusOr<Chunk>> hot_slots,
    std::vector<StatusOr<Chunk>> cold_slots) const {
  std::vector<std::optional<StatusOr<Chunk>>> out(total);
  uint64_t hot_hits = 0;
  uint64_t cold_hits = 0;
  // A hot-probed id whose read came back kNotFound lost its hot copy after
  // the probe (eviction races do exactly this): the misses get one batched
  // cold retry, so no read reports absent for a chunk the cold tier holds.
  std::vector<Hash256> miss_ids;
  std::vector<size_t> miss_slots;
  for (size_t i = 0; i < hot_slots.size(); ++i) {
    if (hot_slots[i].ok()) {
      ++hot_hits;
      TouchHot(split.hot_ids[i]);
    } else if (hot_slots[i].status().IsNotFound()) {
      miss_ids.push_back(split.hot_ids[i]);
      miss_slots.push_back(split.hot_slots[i]);
      continue;
    }
    out[split.hot_slots[i]] = std::move(hot_slots[i]);
  }
  std::vector<Chunk> promoted;
  auto settle_cold = [&](StatusOr<Chunk>& slot, const Hash256& id,
                         size_t at) {
    if (slot.ok()) {
      ++cold_hits;
      if (options_.promote_on_read) promoted.push_back(*slot);
    } else if (slot.status().IsNotFound()) {
      // A concurrent Put may have landed in the hot tier after the probe;
      // one local re-probe closes the race. A hot-tier error on it surfaces
      // too — "unreachable" must never collapse into cold's "absent".
      auto retry = hot_->Get(id);
      if (retry.ok()) ++hot_hits;
      if (retry.ok() || !retry.status().IsNotFound()) slot = std::move(retry);
    }
    // Any other cold error (timeout, transient, short read) stays in its
    // slot: a caller, or the cache above, must tell "absent" from
    // "unreachable".
    out[at] = std::move(slot);
  };
  for (size_t j = 0; j < cold_slots.size(); ++j) {
    settle_cold(cold_slots[j], split.cold_ids[j], split.cold_slots[j]);
  }
  if (!miss_ids.empty()) {
    auto retried = cold_->GetMany(miss_ids);
    for (size_t j = 0; j < retried.size(); ++j) {
      settle_cold(retried[j], miss_ids[j], miss_slots[j]);
    }
  }
  // Promotion is advisory: a hot-tier hiccup must not fail a read the cold
  // tier already served.
  DedupByHash(&promoted);
  if (!promoted.empty() && hot_->PutMany(promoted).ok()) {
    promotions_.fetch_add(promoted.size(), std::memory_order_relaxed);
    for (const Chunk& chunk : promoted) {
      NoteHot(chunk.hash(), chunk.size(), /*dirty=*/false);
    }
    EnforceHotBudget();
  }
  hot_hits_.fetch_add(hot_hits, std::memory_order_relaxed);
  cold_hits_.fetch_add(cold_hits, std::memory_order_relaxed);

  std::vector<StatusOr<Chunk>> result;
  result.reserve(total);
  for (auto& slot : out) result.push_back(std::move(*slot));
  return result;
}

// ---- bookkeeping ----------------------------------------------------------

bool TieredChunkStore::Contains(const Hash256& id) const {
  return hot_->Contains(id) || cold_->Contains(id);
}

ChunkStoreStats TieredChunkStore::stats() const {
  ChunkStoreStats s = hot_->stats();
  s.physical_bytes += cold_->stats().physical_bytes;
  // The exact distinct-chunk union, through ForEachId's two index walks (no
  // chunk reads). It is stable under racing drains and evictions: a chunk
  // mid-demotion or mid-promotion is resident in at least one walked tier
  // for the whole walk, and the seen-set collapses double residency.
  s.chunk_count = 0;
  ForEachId([&s](const Hash256&, uint64_t) { ++s.chunk_count; });
  return s;
}

void TieredChunkStore::ForEach(
    const std::function<void(const Hash256&, const Chunk&)>& fn) const {
  std::unordered_set<Hash256, Hash256Hasher> seen;
  hot_->ForEach([&](const Hash256& id, const Chunk& chunk) {
    seen.insert(id);
    fn(id, chunk);
  });
  cold_->ForEach([&](const Hash256& id, const Chunk& chunk) {
    if (!seen.count(id)) fn(id, chunk);
  });
}

void TieredChunkStore::ForEachId(
    const std::function<void(const Hash256&, uint64_t)>& fn) const {
  std::unordered_set<Hash256, Hash256Hasher> seen;
  hot_->ForEachId([&](const Hash256& id, uint64_t size) {
    seen.insert(id);
    fn(id, size);
  });
  cold_->ForEachId([&](const Hash256& id, uint64_t size) {
    if (!seen.count(id)) fn(id, size);
  });
}

TieredChunkStore::TierStats TieredChunkStore::tier_stats() const {
  TierStats stats;
  stats.hot_hits = hot_hits_.load(std::memory_order_relaxed);
  stats.cold_hits = cold_hits_.load(std::memory_order_relaxed);
  stats.promotions = promotions_.load(std::memory_order_relaxed);
  stats.demotions = demotions_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.hot_only_erases = hot_only_erases_.load(std::memory_order_relaxed);
  stats.hot_bytes = hot_bytes_.load(std::memory_order_relaxed);
  stats.pinned_dirty_bytes =
      pinned_dirty_bytes_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(dirty_mu_);
  stats.dirty_pending = dirty_.size();
  return stats;
}

}  // namespace forkbase
