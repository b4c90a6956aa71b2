// In-memory chunk store (hash map), thread-safe.
//
// The map holds Chunk handles, which share their bytes (and their cached
// hash) with every copy: a read holds the store mutex only for the lookup
// and hands out a copy of the handle, never of the bytes.
//
// Doubles as the "possibly malicious storage provider" of the §II-D threat
// model: TamperForTesting() mutates stored bytes in place without touching
// the index, exactly what a dishonest provider could do. Clients detect this
// through ForkBase::Verify (Merkle recomputation), not through the store.
#ifndef FORKBASE_CHUNK_MEM_CHUNK_STORE_H_
#define FORKBASE_CHUNK_MEM_CHUNK_STORE_H_

#include <mutex>
#include <unordered_map>

#include "chunk/chunk_store.h"

namespace forkbase {

class MemChunkStore : public ChunkStore {
 public:
  MemChunkStore() = default;

  StatusOr<Chunk> Get(const Hash256& id) const override;
  std::vector<StatusOr<Chunk>> GetMany(
      std::span<const Hash256> ids) const override;
  bool Contains(const Hash256& id) const override;
  /// Erase support (the former test-only hook, promoted to the interface so
  /// capacity managers can reclaim memory): drops each present id and its
  /// bytes; absent ids are no-ops.
  bool SupportsErase() const override { return true; }
  Status Erase(std::span<const Hash256> ids) override;
  ChunkStoreStats stats() const override;
  void ForEach(const std::function<void(const Hash256&, const Chunk&)>& fn)
      const override;
  void ForEachId(
      const std::function<void(const Hash256&, uint64_t)>& fn) const override;

  /// Malicious-provider simulation: XORs `xor_mask` into byte `offset` of the
  /// chunk stored under `id`, leaving the index untouched. The entry gets a
  /// fresh chunk with no cached hash, so a re-hash sees the change; handles
  /// already read keep the old bytes. Returns false if the chunk is absent
  /// or the offset out of range.
  bool TamperForTesting(const Hash256& id, size_t offset, uint8_t xor_mask);

 protected:
  Status PutImpl(const Chunk& chunk) override;
  Status PutManyImpl(std::span<const Chunk> chunks) override;

 private:
  mutable std::mutex mu_;
  std::unordered_map<Hash256, Chunk, Hash256Hasher> chunks_;
  ChunkStoreStats stats_;
};

}  // namespace forkbase

#endif  // FORKBASE_CHUNK_MEM_CHUNK_STORE_H_
