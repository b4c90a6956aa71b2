// Sharded LRU read-cache decorator over any ChunkStore.
//
// POS-Tree operations repeatedly touch upper-level index chunks; the cache
// keeps the hot working set in memory above a slow backend (FileChunkStore).
// Chunks are immutable, so the cache never needs invalidation — the single
// reason this decorator is trivially correct.
//
// The cache is striped into N independent LRU shards, each with its own
// mutex, list, and byte budget (capacity_bytes / N). Concurrent readers on
// different shards never contend, and a batched miss fill (GetMany) fetches
// every absent chunk from the backend in one call before distributing the
// results across shards.
#ifndef FORKBASE_CHUNK_CACHING_CHUNK_STORE_H_
#define FORKBASE_CHUNK_CACHING_CHUNK_STORE_H_

#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "chunk/chunk_store.h"

namespace forkbase {

class CachingChunkStore : public ChunkStore {
 public:
  /// @param base      the underlying store (shared; must outlive the cache)
  /// @param capacity_bytes  max bytes of cached chunks (LRU eviction)
  /// @param shards    LRU stripes (rounded up to a power of two). 0 = auto:
  ///                  one stripe per 256 KiB of capacity, capped at 16, so
  ///                  small caches keep the strict single-LRU byte bound
  ///                  while large ones gain concurrency. Each shard always
  ///                  retains its most recent chunk, so with S stripes the
  ///                  resident total may overshoot capacity by up to S-1
  ///                  max-sized chunks.
  CachingChunkStore(std::shared_ptr<ChunkStore> base, size_t capacity_bytes,
                    uint32_t shards = 0);

  StatusOr<Chunk> Get(const Hash256& id) const override;
  std::vector<StatusOr<Chunk>> GetMany(
      std::span<const Hash256> ids) const override;
  bool Contains(const Hash256& id) const override;
  /// Erase passes through to the base store after dropping any cached
  /// copies, so the decorator never serves a chunk its backend reclaimed.
  bool SupportsErase() const override { return base_->SupportsErase(); }
  Status Erase(std::span<const Hash256> ids) override;
  /// Physical-representation probes pass through: the cache holds logical
  /// chunks only, the backend owns the stored form.
  bool GetDeltaBase(const Hash256& id, Hash256* base) const override {
    return base_->GetDeltaBase(id, base);
  }
  bool GetPhysicalRecord(const Hash256& id,
                         PhysicalRecord* rec) const override {
    return base_->GetPhysicalRecord(id, rec);
  }
  uint64_t space_used() const override { return base_->space_used(); }
  ChunkStoreStats stats() const override;
  void ForEach(const std::function<void(const Hash256&, const Chunk&)>& fn)
      const override;
  void ForEachId(
      const std::function<void(const Hash256&, uint64_t)>& fn) const override {
    base_->ForEachId(fn);
  }

  struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t resident_bytes = 0;
  };
  /// Aggregated over all shards.
  CacheStats cache_stats() const;

  size_t shard_count() const { return shards_.size(); }

 protected:
  Status PutImpl(const Chunk& chunk) override;
  Status PutManyImpl(std::span<const Chunk> chunks) override;

 private:
  struct Shard {
    mutable std::mutex mu;
    // LRU: list front = most recent. Map values point into the list.
    std::list<std::pair<Hash256, Chunk>> lru;
    std::unordered_map<Hash256,
                       std::list<std::pair<Hash256, Chunk>>::iterator,
                       Hash256Hasher>
        map;
    CacheStats stats;
  };

  Shard& ShardFor(const Hash256& id) const;
  /// Inserts (or refreshes) under the shard lock, evicting past the shard's
  /// byte budget.
  void InsertLocked(Shard& shard, const Hash256& id, const Chunk& chunk) const;

  /// GetMany's shard probe: resolved hit slots plus the deduplicated miss
  /// set with the slots each miss id must fill.
  struct BatchProbe {
    std::vector<std::optional<StatusOr<Chunk>>> slots;
    std::vector<Hash256> miss_ids;               // unique, in first-seen order
    std::vector<std::vector<size_t>> miss_slots; // parallel to miss_ids
  };
  BatchProbe ProbeShards(std::span<const Hash256> ids) const;

  std::shared_ptr<ChunkStore> base_;
  size_t shard_capacity_bytes_;
  mutable std::vector<Shard> shards_;
};

}  // namespace forkbase

#endif  // FORKBASE_CHUNK_CACHING_CHUNK_STORE_H_
