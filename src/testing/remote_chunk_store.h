// RemoteChunkStore — a simulated network backend over any local store.
//
// A test double (built into forkbase_testing, not the library): the
// simulated cold tier for TieredChunkStore tests, and the engine of the
// fault-injection test harness. It decorates a real ChunkStore (a
// FileChunkStore for a persistent "remote", a MemChunkStore for tests) with
// the three properties that make a network backend different from a disk:
//
//   * latency  — every round trip (scalar op or whole batch) pays a fixed
//     per-batch delay, so batched calls amortize it exactly like a ranged
//     remote fetch would;
//   * bandwidth — an optional byte-rate cap adds transfer time proportional
//     to the payload moved;
//   * faults   — an injectable FaultSchedule decides per round trip whether
//     the operation fails: transient errors (a retry succeeds), timeouts
//     (the full timeout elapses before the failure surfaces), and short
//     reads (the simulated wire delivers fewer bytes than the record holds;
//     the store detects the truncation and surfaces kIOError — never a
//     silently truncated chunk).
//
// Failed writes leave the backend untouched (the "request never reached the
// server" model), so a caller that saw an error can always retry the whole
// batch — the same contract PutMany already documents.
//
// Round trips from different threads overlap: the simulated server serves
// any number at once, so a caller's ordered fan-out hides the latency of
// several batches behind one.
#ifndef FORKBASE_TESTING_REMOTE_CHUNK_STORE_H_
#define FORKBASE_TESTING_REMOTE_CHUNK_STORE_H_

#include <memory>

#include "chunk/chunk_store.h"
#include "testing/fault_schedule.h"

namespace forkbase {

class RemoteChunkStore : public ChunkStore {
 public:
  struct Options {
    /// Fixed cost of one round trip (request + response headers), paid once
    /// per scalar call and once per batch — the reason cold-tier reads must
    /// be batched and overlapped.
    unsigned batch_latency_us = 0;
    /// Payload transfer rate cap in bytes/second; 0 = unlimited.
    uint64_t bandwidth_bytes_per_sec = 0;
    /// How long a timed-out operation blocks before failing.
    unsigned timeout_us = 2000;
    /// Fault source, shared with the test harness. May be null (no faults).
    std::shared_ptr<FaultSchedule> faults;
  };

  RemoteChunkStore(std::shared_ptr<ChunkStore> backend, Options options);

  StatusOr<Chunk> Get(const Hash256& id) const override;
  std::vector<StatusOr<Chunk>> GetMany(
      std::span<const Hash256> ids) const override;
  /// Local index probe (the client-side manifest); no round trip simulated.
  bool Contains(const Hash256& id) const override;
  /// Administrative space reclamation (a server-side delete); bypasses the
  /// network sim like ForEach.
  bool SupportsErase() const override { return backend_->SupportsErase(); }
  Status Erase(std::span<const Hash256> ids) override {
    return backend_->Erase(ids);
  }
  uint64_t space_used() const override { return backend_->space_used(); }
  /// Physical-representation probes reach the backend directly (GC and
  /// export planning run server-side); no round trip simulated.
  bool GetDeltaBase(const Hash256& id, Hash256* base) const override {
    return backend_->GetDeltaBase(id, base);
  }
  bool GetPhysicalRecord(const Hash256& id,
                         PhysicalRecord* rec) const override {
    return backend_->GetPhysicalRecord(id, rec);
  }
  ChunkStoreStats stats() const override { return backend_->stats(); }
  /// Administrative sweep (GC, integrity checks); bypasses the network sim.
  void ForEach(const std::function<void(const Hash256&, const Chunk&)>& fn)
      const override;
  void ForEachId(
      const std::function<void(const Hash256&, uint64_t)>& fn) const override {
    backend_->ForEachId(fn);
  }

 protected:
  Status PutImpl(const Chunk& chunk) override;
  Status PutManyImpl(std::span<const Chunk> chunks) override;

 private:
  /// Sleeps out the round-trip latency plus the transfer time of
  /// `payload_bytes` under the bandwidth cap.
  void SimulateTransfer(uint64_t payload_bytes) const;
  /// Consults the fault schedule for `op`. Returns the error to surface
  /// (after sleeping out a timeout), or OK to proceed. `read_bytes` sizes
  /// the short-read message.
  Status MaybeFault(FaultSchedule::Op op, uint64_t read_bytes) const;

  std::shared_ptr<ChunkStore> backend_;
  const Options options_;
};

}  // namespace forkbase

#endif  // FORKBASE_TESTING_REMOTE_CHUNK_STORE_H_
