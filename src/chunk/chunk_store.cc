#include "chunk/chunk_store.h"

#include "util/worker_pool.h"

namespace forkbase {

std::vector<StatusOr<Chunk>> ChunkStore::GetMany(
    std::span<const Hash256> ids) const {
  std::vector<StatusOr<Chunk>> out;
  out.reserve(ids.size());
  for (const Hash256& id : ids) {
    out.push_back(Get(id));
  }
  return out;
}

Status ChunkStore::PutManyImpl(std::span<const Chunk> chunks) {
  for (const Chunk& chunk : chunks) {
    // PutImpl, not Put: the public wrapper already recorded the whole batch
    // into any active pin.
    FB_RETURN_IF_ERROR(PutImpl(chunk));
  }
  return Status::OK();
}

void ChunkStore::RecordPinnedPuts(std::span<const Chunk> chunks) {
  std::lock_guard<std::mutex> lock(pin_mu_);
  for (PutPin* pin : pins_) {
    for (const Chunk& chunk : chunks) pin->ids_.insert(chunk.hash());
  }
}

Status ChunkStore::Erase(std::span<const Hash256> ids) {
  (void)ids;
  return Status::Unimplemented("this chunk store cannot erase chunks");
}

namespace {

// A batched sweep reads its ids in runs of kSweepRunIds (one GetMany
// each), kSweepRoundRuns runs per round of the ordered fan-out.
constexpr size_t kSweepRunIds = 64;
constexpr size_t kSweepRoundRuns = 8;

}  // namespace

Status ForEachChunkBatch(
    const ChunkStore& store, std::span<const Hash256> ids,
    const std::function<Status(size_t index, StatusOr<Chunk>& slot)>& fn,
    BatchHashing hashing) {
  using Slots = std::vector<StatusOr<Chunk>>;
  return OrderedFanOut<Slots>(
      SharedHashPool(), (ids.size() + kSweepRunIds - 1) / kSweepRunIds,
      kSweepRoundRuns,
      [&](size_t r, Slots* slots) {
        const size_t begin = r * kSweepRunIds;
        *slots = store.GetMany(
            ids.subspan(begin, std::min(kSweepRunIds, ids.size() - begin)));
        if (hashing == BatchHashing::kPrecompute) {
          for (const auto& slot : *slots) {
            if (slot.ok()) slot->hash();
          }
        }
      },
      [&](size_t r, Slots& slots) -> Status {
        for (size_t k = 0; k < slots.size(); ++k) {
          FB_RETURN_IF_ERROR(fn(r * kSweepRunIds + k, slots[k]));
        }
        return Status::OK();
      });
}

void ChunkStore::ForEachId(
    const std::function<void(const Hash256&, uint64_t)>& fn) const {
  ForEach([&](const Hash256& id, const Chunk& chunk) { fn(id, chunk.size()); });
}

}  // namespace forkbase
