#include "chunk/mem_chunk_store.h"

namespace forkbase {

StatusOr<Chunk> MemChunkStore::Get(const Hash256& id) const {
  Chunk chunk;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++const_cast<ChunkStoreStats&>(stats_).get_calls;
    auto it = chunks_.find(id);
    if (it != chunks_.end()) chunk = it->second;
  }
  if (!chunk.valid()) return Status::NotFound("chunk " + id.ToBase32());
  return chunk;
}

std::vector<StatusOr<Chunk>> MemChunkStore::GetMany(
    std::span<const Hash256> ids) const {
  std::vector<Chunk> found(ids.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    const_cast<ChunkStoreStats&>(stats_).get_calls += ids.size();
    for (size_t i = 0; i < ids.size(); ++i) {
      auto it = chunks_.find(ids[i]);
      if (it != chunks_.end()) found[i] = it->second;
    }
  }
  std::vector<StatusOr<Chunk>> out;
  out.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    if (found[i].valid()) {
      out.push_back(std::move(found[i]));
    } else {
      out.push_back(Status::NotFound("chunk " + ids[i].ToBase32()));
    }
  }
  return out;
}

Status MemChunkStore::PutImpl(const Chunk& chunk) {
  if (!chunk.valid()) return Status::InvalidArgument("invalid chunk");
  chunk.hash();  // computed outside the lock
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.put_calls;
  stats_.logical_bytes += chunk.size();
  auto [it, inserted] = chunks_.try_emplace(chunk.hash(), chunk);
  (void)it;
  if (!inserted) {
    ++stats_.dedup_hits;
    return Status::OK();
  }
  ++stats_.chunk_count;
  stats_.physical_bytes += chunk.size();
  return Status::OK();
}

Status MemChunkStore::PutManyImpl(std::span<const Chunk> chunks) {
  for (const Chunk& chunk : chunks) {
    if (!chunk.valid()) return Status::InvalidArgument("invalid chunk");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const Chunk& chunk : chunks) {
    ++stats_.put_calls;
    stats_.logical_bytes += chunk.size();
    auto [it, inserted] = chunks_.try_emplace(chunk.hash(), chunk);
    (void)it;
    if (!inserted) {
      ++stats_.dedup_hits;
      continue;
    }
    ++stats_.chunk_count;
    stats_.physical_bytes += chunk.size();
  }
  return Status::OK();
}

bool MemChunkStore::Contains(const Hash256& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return chunks_.count(id) > 0;
}

ChunkStoreStats MemChunkStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void MemChunkStore::ForEach(
    const std::function<void(const Hash256&, const Chunk&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, chunk] : chunks_) fn(id, chunk);
}

bool MemChunkStore::TamperForTesting(const Hash256& id, size_t offset,
                                     uint8_t xor_mask) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = chunks_.find(id);
  if (it == chunks_.end() || offset >= it->second.size()) return false;
  std::string bytes = it->second.bytes().ToString();
  bytes[offset] = static_cast<char>(static_cast<uint8_t>(bytes[offset]) ^
                                    xor_mask);
  it->second = Chunk::FromBytes(std::move(bytes));
  return true;
}

void MemChunkStore::ForEachId(
    const std::function<void(const Hash256&, uint64_t)>& fn) const {
  // Snapshot first: fn runs outside the lock so it may call back into the
  // store — the same re-entrancy contract FileChunkStore::ForEachId gives.
  std::vector<std::pair<Hash256, uint64_t>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.reserve(chunks_.size());
    for (const auto& [id, chunk] : chunks_) {
      snapshot.emplace_back(id, chunk.size());
    }
  }
  for (const auto& [id, size] : snapshot) fn(id, size);
}

Status MemChunkStore::Erase(std::span<const Hash256> ids) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Hash256& id : ids) {
    auto it = chunks_.find(id);
    if (it == chunks_.end()) continue;
    stats_.physical_bytes -= it->second.size();
    --stats_.chunk_count;
    chunks_.erase(it);
  }
  return Status::OK();
}

}  // namespace forkbase
