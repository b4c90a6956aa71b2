#include "testing/remote_chunk_store.h"

#include <chrono>
#include <string>
#include <thread>

namespace forkbase {

RemoteChunkStore::RemoteChunkStore(std::shared_ptr<ChunkStore> backend,
                                   Options options)
    : backend_(std::move(backend)),
      options_(std::move(options)),
      connection_pool_(options_.connections) {}

RemoteChunkStore::~RemoteChunkStore() {
  // Run out in-flight round trips before the backend reference drops.
  connection_pool_.Shutdown();
}

void RemoteChunkStore::SimulateTransfer(uint64_t payload_bytes) const {
  uint64_t delay_us = options_.batch_latency_us;
  if (options_.bandwidth_bytes_per_sec > 0 && payload_bytes > 0) {
    delay_us += payload_bytes * 1'000'000 / options_.bandwidth_bytes_per_sec;
  }
  if (delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
  }
}

Status RemoteChunkStore::MaybeFault(FaultSchedule::Op op,
                                    uint64_t read_bytes) const {
  if (!options_.faults) return Status::OK();
  auto fault = options_.faults->Draw(op);
  if (!fault) return Status::OK();
  const bool is_read = op == FaultSchedule::Op::kGet ||
                       op == FaultSchedule::Op::kGetBatch;
  switch (fault->kind) {
    case FaultSchedule::Kind::kTransient:
      return Status::IOError("remote: transient error (connection reset)");
    case FaultSchedule::Kind::kTimeout:
      // The caller blocks for the full timeout before learning anything —
      // the latency spike the prefetch pipeline has to absorb.
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.timeout_us));
      return Status::IOError("remote: timeout after " +
                             std::to_string(options_.timeout_us) + "us");
    case FaultSchedule::Kind::kShortRead:
      if (is_read) {
        // The wire closed mid-payload. The truncation is detected against
        // the record length, so the error surfaces as a Status — a caller
        // never receives a silently truncated chunk.
        return Status::IOError(
            "remote: short read (" +
            std::to_string(read_bytes > 0 ? read_bytes - 1 : 0) + " of " +
            std::to_string(read_bytes) + " bytes)");
      }
      return Status::IOError("remote: connection closed mid-write");
    case FaultSchedule::Kind::kStall:
    case FaultSchedule::Kind::kSlowDrip:
    case FaultSchedule::Kind::kDisconnectMidFrame:
      // Transport-level fault classes; a storage backend has no wire to
      // stall, so they degrade to the timeout behavior.
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.timeout_us));
      return Status::IOError("remote: transport fault (stalled connection)");
  }
  return Status::IOError("remote: unknown fault");
}

StatusOr<Chunk> RemoteChunkStore::Get(const Hash256& id) const {
  auto result = backend_->Get(id);
  const uint64_t bytes = result.ok() ? result->size() : 0;
  SimulateTransfer(bytes);
  Status fault = MaybeFault(FaultSchedule::Op::kGet, bytes);
  if (!fault.ok()) return fault;
  return result;
}

std::vector<StatusOr<Chunk>> RemoteChunkStore::GetMany(
    std::span<const Hash256> ids) const {
  auto slots = backend_->GetMany(ids);
  uint64_t bytes = 0;
  for (const auto& slot : slots) {
    if (slot.ok()) bytes += slot->size();
  }
  SimulateTransfer(bytes);
  Status fault = MaybeFault(FaultSchedule::Op::kGetBatch, bytes);
  if (!fault.ok()) {
    // One ranged fetch, one failure: every slot of the round trip errors.
    // Slot values already read from the backend are dropped, exactly like
    // response bytes that never arrived.
    for (auto& slot : slots) slot = StatusOr<Chunk>(fault);
  }
  return slots;
}

AsyncChunkBatch RemoteChunkStore::GetManyAsync(
    std::span<const Hash256> ids) const {
  if (options_.connections == 0) return ChunkStore::GetManyAsync(ids);
  return AsyncChunkBatch::OnPool(
      connection_pool_,
      [this, owned = std::vector<Hash256>(ids.begin(), ids.end())] {
        return GetMany(owned);
      });
}

Status RemoteChunkStore::PutImpl(const Chunk& chunk) {
  SimulateTransfer(chunk.size());
  FB_RETURN_IF_ERROR(MaybeFault(FaultSchedule::Op::kPut, chunk.size()));
  return backend_->Put(chunk);
}

Status RemoteChunkStore::PutManyImpl(std::span<const Chunk> chunks) {
  uint64_t bytes = 0;
  for (const Chunk& chunk : chunks) bytes += chunk.size();
  SimulateTransfer(bytes);
  // A faulted batch write never reaches the backend: the caller retries the
  // whole batch (idempotent under content addressing).
  FB_RETURN_IF_ERROR(MaybeFault(FaultSchedule::Op::kPutBatch, bytes));
  return backend_->PutMany(chunks);
}

bool RemoteChunkStore::Contains(const Hash256& id) const {
  return backend_->Contains(id);
}

void RemoteChunkStore::ForEach(
    const std::function<void(const Hash256&, const Chunk&)>& fn) const {
  backend_->ForEach(fn);
}

}  // namespace forkbase
