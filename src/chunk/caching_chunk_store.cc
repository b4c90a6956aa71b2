#include "chunk/caching_chunk_store.h"

#include <optional>

namespace forkbase {

namespace {
uint32_t NormalizeShardCount(uint32_t requested, size_t capacity_bytes) {
  if (requested == 0) {
    uint64_t auto_shards = capacity_bytes / (256u << 10);
    requested = static_cast<uint32_t>(
        auto_shards < 1 ? 1 : (auto_shards > 16 ? 16 : auto_shards));
  }
  uint32_t n = 1;
  while (n < requested && n < 1024) n <<= 1;
  return n;
}
}  // namespace

CachingChunkStore::CachingChunkStore(std::shared_ptr<ChunkStore> base,
                                     size_t capacity_bytes, uint32_t shards)
    : base_(std::move(base)),
      shards_(NormalizeShardCount(shards, capacity_bytes)) {
  shard_capacity_bytes_ = capacity_bytes / shards_.size();
  if (shard_capacity_bytes_ == 0) shard_capacity_bytes_ = 1;
}

CachingChunkStore::Shard& CachingChunkStore::ShardFor(
    const Hash256& id) const {
  // Different digest bytes than FileChunkStore's stripe selector, so the
  // two layers do not share contention patterns; two bytes cover the full
  // 1024-stripe range NormalizeShardCount permits.
  const size_t v = static_cast<size_t>(id.bytes[1]) |
                   (static_cast<size_t>(id.bytes[3]) << 8);
  return shards_[v & (shards_.size() - 1)];
}

void CachingChunkStore::InsertLocked(Shard& shard, const Hash256& id,
                                     const Chunk& chunk) const {
  auto it = shard.map.find(id);
  if (it != shard.map.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(id, chunk);
  shard.map[id] = shard.lru.begin();
  shard.stats.resident_bytes += chunk.size();
  while (shard.stats.resident_bytes > shard_capacity_bytes_ &&
         shard.lru.size() > 1) {
    auto& back = shard.lru.back();
    shard.stats.resident_bytes -= back.second.size();
    shard.map.erase(back.first);
    shard.lru.pop_back();
    ++shard.stats.evictions;
  }
}

StatusOr<Chunk> CachingChunkStore::Get(const Hash256& id) const {
  Shard& shard = ShardFor(id);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(id);
    if (it != shard.map.end()) {
      ++shard.stats.hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->second;
    }
    ++shard.stats.misses;
  }
  auto result = base_->Get(id);
  if (result.ok()) {
    std::lock_guard<std::mutex> lock(shard.mu);
    InsertLocked(shard, id, *result);
  }
  return result;
}

CachingChunkStore::BatchProbe CachingChunkStore::ProbeShards(
    std::span<const Hash256> ids) const {
  BatchProbe probe;
  probe.slots.resize(ids.size());
  // Maps a pending miss id to its index in miss_ids, so a duplicate id
  // later in the batch is served by the same base fetch. Its hit/miss is
  // accounted in GetMany once the fetch outcome is known — exactly as
  // the scalar sequence Get(x); Get(x) would count it (a successful first
  // call fills the cache so the second hits; a NotFound fills nothing, so
  // the second misses again).
  std::unordered_map<Hash256, size_t, Hash256Hasher> pending;
  for (size_t i = 0; i < ids.size(); ++i) {
    auto seen = pending.find(ids[i]);
    if (seen != pending.end()) {
      probe.miss_slots[seen->second].push_back(i);
      continue;
    }
    Shard& shard = ShardFor(ids[i]);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(ids[i]);
    if (it != shard.map.end()) {
      ++shard.stats.hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      probe.slots[i] = StatusOr<Chunk>(it->second->second);
    } else {
      ++shard.stats.misses;
      pending.emplace(ids[i], probe.miss_ids.size());
      probe.miss_ids.push_back(ids[i]);
      probe.miss_slots.push_back({i});
    }
  }
  return probe;
}

std::vector<StatusOr<Chunk>> CachingChunkStore::GetMany(
    std::span<const Hash256> ids) const {
  BatchProbe probe = ProbeShards(ids);
  std::vector<StatusOr<Chunk>> fetched;
  if (!probe.miss_ids.empty()) fetched = base_->GetMany(probe.miss_ids);
  // Fill the cache from the fetch and scatter each result into every slot
  // that requested it.
  for (size_t j = 0; j < fetched.size(); ++j) {
    const auto& targets = probe.miss_slots[j];
    {
      Shard& shard = ShardFor(probe.miss_ids[j]);
      std::lock_guard<std::mutex> lock(shard.mu);
      // Invariant (tiered-store contract): only an ok() fetch enters the
      // cache. kNotFound caches nothing (no negative caching — a later Put
      // must become visible), and a transient cold-tier error (timeout,
      // connection reset) caches nothing AND keeps its error status in
      // every slot it feeds — it must surface to the caller, never be
      // remembered as "absent". Covered by the CacheErrorPropagation tests.
      if (fetched[j].ok()) {
        InsertLocked(shard, probe.miss_ids[j], *fetched[j]);
      }
      // Deferred accounting for intra-batch duplicates (slots past the
      // first): a successful fetch means the duplicate would have hit the
      // just-filled cache; a failure means it would have missed again.
      if (fetched[j].ok()) {
        shard.stats.hits += targets.size() - 1;
      } else {
        shard.stats.misses += targets.size() - 1;
      }
    }
    for (size_t k = 0; k + 1 < targets.size(); ++k) {
      probe.slots[targets[k]] = fetched[j];
    }
    probe.slots[targets.back()] = std::move(fetched[j]);
  }
  std::vector<StatusOr<Chunk>> out;
  out.reserve(probe.slots.size());
  for (auto& slot : probe.slots) out.push_back(std::move(*slot));
  return out;
}

Status CachingChunkStore::PutImpl(const Chunk& chunk) {
  FB_RETURN_IF_ERROR(base_->Put(chunk));
  Shard& shard = ShardFor(chunk.hash());
  std::lock_guard<std::mutex> lock(shard.mu);
  InsertLocked(shard, chunk.hash(), chunk);
  return Status::OK();
}

Status CachingChunkStore::PutManyImpl(std::span<const Chunk> chunks) {
  FB_RETURN_IF_ERROR(base_->PutMany(chunks));
  for (const Chunk& chunk : chunks) {
    Shard& shard = ShardFor(chunk.hash());
    std::lock_guard<std::mutex> lock(shard.mu);
    InsertLocked(shard, chunk.hash(), chunk);
  }
  return Status::OK();
}

bool CachingChunkStore::Contains(const Hash256& id) const {
  Shard& shard = ShardFor(id);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.map.count(id)) return true;
  }
  return base_->Contains(id);
}

Status CachingChunkStore::Erase(std::span<const Hash256> ids) {
  // Drop cached copies first so no reader refills a hit for a chunk the
  // base is about to reclaim, then erase below.
  for (const Hash256& id : ids) {
    Shard& shard = ShardFor(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(id);
    if (it == shard.map.end()) continue;
    shard.stats.resident_bytes -= it->second->second.size();
    shard.lru.erase(it->second);
    shard.map.erase(it);
  }
  return base_->Erase(ids);
}

ChunkStoreStats CachingChunkStore::stats() const { return base_->stats(); }

void CachingChunkStore::ForEach(
    const std::function<void(const Hash256&, const Chunk&)>& fn) const {
  base_->ForEach(fn);
}

CachingChunkStore::CacheStats CachingChunkStore::cache_stats() const {
  CacheStats total;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.evictions += shard.stats.evictions;
    total.resident_bytes += shard.stats.resident_bytes;
  }
  return total;
}

}  // namespace forkbase
