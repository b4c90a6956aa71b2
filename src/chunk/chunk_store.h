// ChunkStore — the physical storage interface (§II, bottom layer of Fig. 1).
//
// A chunk store is a content-addressed key-value store: Put is idempotent and
// deduplicating (a chunk already present costs nothing), Get returns the
// immutable chunk for a hash. All higher layers (POS-Tree, FNodes) talk only
// to this interface, so swapping memory / file / distributed backends does
// not affect any semantics.
#ifndef FORKBASE_CHUNK_CHUNK_STORE_H_
#define FORKBASE_CHUNK_CHUNK_STORE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "chunk/chunk.h"
#include "util/status.h"

namespace forkbase {

/// A batched read's result slots behind a handle. No library code issues or
/// serves one: the library reads with GetMany, and reads ahead of a caller
/// come from the ordered fan-out (ForEachChunkBatch, PosTree's leaf walk). The type is kept only because the perfbench
/// harness's TimedStore decorator names it; delete it with that harness's
/// override.
class AsyncChunkBatch {
 public:
  using Slots = std::vector<StatusOr<Chunk>>;

  AsyncChunkBatch() = default;
  AsyncChunkBatch(AsyncChunkBatch&&) = default;
  AsyncChunkBatch& operator=(AsyncChunkBatch&&) = default;

  static AsyncChunkBatch Ready(Slots slots) {
    AsyncChunkBatch batch;
    batch.ready_ = std::move(slots);
    batch.valid_ = true;
    return batch;
  }
  static AsyncChunkBatch Deferred(std::future<Slots> future) {
    AsyncChunkBatch batch;
    batch.future_ = std::move(future);
    batch.valid_ = true;
    return batch;
  }

  bool valid() const { return valid_; }

  /// Blocks until the slots are ready and surrenders them (one per
  /// requested id, in request order). Invalidates the handle.
  Slots Take() {
    valid_ = false;
    if (ready_) {
      Slots slots = std::move(*ready_);
      ready_.reset();
      return slots;
    }
    return future_.get();
  }

 private:
  std::optional<Slots> ready_;
  std::future<Slots> future_;
  bool valid_ = false;
};

/// Storage-efficiency counters (drive Fig. 4 / Table I reporting).
struct ChunkStoreStats {
  uint64_t chunk_count = 0;     ///< distinct chunks resident
  uint64_t physical_bytes = 0;  ///< bytes actually stored (after dedup)
  uint64_t put_calls = 0;       ///< total Put invocations
  uint64_t dedup_hits = 0;      ///< Puts that found the chunk already present
  uint64_t logical_bytes = 0;   ///< sum of sizes over all Put calls
  uint64_t get_calls = 0;

  /// logical/physical ratio; 1.0 when nothing deduplicated.
  double DedupRatio() const {
    return physical_bytes == 0
               ? 1.0
               : static_cast<double>(logical_bytes) /
                     static_cast<double>(physical_bytes);
  }
};

/// Abstract content-addressed store. Implementations must be thread-safe.
///
/// Writes follow the non-virtual-interface pattern: the public Put/PutMany
/// are thin wrappers that record the written ids into any registered PutPin
/// (see below) before dispatching to the virtual PutImpl/PutManyImpl that
/// backends implement. The wrapper costs one relaxed atomic load when no
/// pin is active, so the hot path is unaffected outside a GC sweep.
class ChunkStore {
 public:
  virtual ~ChunkStore() = default;

  /// Fetches a chunk by id. kNotFound if absent; kCorruption if the stored
  /// bytes no longer match the id (tampering — §II-D threat model).
  virtual StatusOr<Chunk> Get(const Hash256& id) const = 0;

  /// Stores a chunk. Idempotent; counts a dedup hit when already present.
  Status Put(const Chunk& chunk) {
    if (pin_count_.load(std::memory_order_acquire) > 0) {
      RecordPinnedPuts(std::span<const Chunk>(&chunk, 1));
    }
    return PutImpl(chunk);
  }

  /// Batched fetch: one result slot per id, in request order. A missing id
  /// yields kNotFound in its slot (it does not fail the whole batch), so a
  /// caller can probe speculatively. Backends override this to amortize
  /// locking and file I/O across the batch; the default loops over Get.
  virtual std::vector<StatusOr<Chunk>> GetMany(
      std::span<const Hash256> ids) const;

  /// Ignored by the library, which never calls it: GetMany(ids) behind a
  /// ready handle. Kept, with SupportsAsyncGet, only because the perfbench
  /// harness's TimedStore overrides both; delete them with that override.
  virtual AsyncChunkBatch GetManyAsync(std::span<const Hash256> ids) const {
    return AsyncChunkBatch::Ready(GetMany(ids));
  }
  /// Always false in the library; see GetManyAsync.
  virtual bool SupportsAsyncGet() const { return false; }

  /// Batched store with Put semantics per element: idempotent, and
  /// duplicates — whether already resident or repeated within the batch —
  /// count as dedup hits. Not atomic: on an I/O error a prefix of the batch
  /// may have been applied (harmless under content addressing; retry the
  /// whole batch). Backends override PutManyImpl to write one segment run
  /// per batch instead of one record per chunk.
  Status PutMany(std::span<const Chunk> chunks) {
    // Batch the identity computation up front (fanned across the shared
    // hash pool) so pin recording and every backend's per-chunk hash()
    // lookups below hit the cache instead of serially digesting.
    Chunk::PrecomputeHashes(chunks, SharedHashPool());
    if (pin_count_.load(std::memory_order_acquire) > 0) {
      RecordPinnedPuts(chunks);
    }
    return PutManyImpl(chunks);
  }

  /// RAII registration of a put pin: while alive, every id written through
  /// the store's Put/PutMany — dedup hits included — is recorded. The
  /// in-place GC sweep registers one before taking its mark snapshot, so a
  /// chunk a racing commit (re-)puts after the snapshot is provably in the
  /// pin set and is never erased, even when the mark walk cannot reach it
  /// yet. Ids are recorded BEFORE the backend write runs: a pin may name a
  /// chunk whose write later failed, which errs on the safe side (skipping
  /// an erase), never the reverse.
  class PutPin {
   public:
    explicit PutPin(ChunkStore& store) : store_(store) {
      std::lock_guard<std::mutex> lock(store_.pin_mu_);
      store_.pins_.push_back(this);
      store_.pin_count_.store(static_cast<int>(store_.pins_.size()),
                              std::memory_order_release);
    }
    ~PutPin() {
      std::lock_guard<std::mutex> lock(store_.pin_mu_);
      std::erase(store_.pins_, this);
      store_.pin_count_.store(static_cast<int>(store_.pins_.size()),
                              std::memory_order_release);
    }
    PutPin(const PutPin&) = delete;
    PutPin& operator=(const PutPin&) = delete;

    /// True when `id` was put since this pin was registered.
    bool Contains(const Hash256& id) const {
      std::lock_guard<std::mutex> lock(store_.pin_mu_);
      return ids_.count(id) > 0;
    }
    size_t size() const {
      std::lock_guard<std::mutex> lock(store_.pin_mu_);
      return ids_.size();
    }

   private:
    friend class ChunkStore;
    ChunkStore& store_;
    std::unordered_set<Hash256, Hash256Hasher> ids_;  // guarded by pin_mu_
  };

  /// True when `id` is recorded in ANY registered pin. The GC sweep checks
  /// this (not just its own pin) before erasing, which turns every live
  /// PutPin into a quarantine: a bundle upload that holds a pin across
  /// "import chunks, then publish the head" keeps its not-yet-reachable
  /// chunks safe from a sweep that starts mid-upload.
  bool PutPinned(const Hash256& id) const {
    std::lock_guard<std::mutex> lock(pin_mu_);
    for (const PutPin* pin : pins_) {
      if (pin->ids_.count(id) > 0) return true;
    }
    return false;
  }

  /// Records `ids` into every registered pin, as if they had just been put.
  /// No-op when no pin is alive. This is how already-present chunks get the
  /// same quarantine as fresh writes: a negotiation that answers "don't
  /// send X, I have it" pins X, because the peer will publish a head whose
  /// closure relies on X staying put. Callers racing a sweep must hold the
  /// database write lease so the pin lands before the sweep's erase check.
  void PinIds(std::span<const Hash256> ids) {
    if (pin_count_.load(std::memory_order_acquire) == 0) return;
    std::lock_guard<std::mutex> lock(pin_mu_);
    for (PutPin* pin : pins_) {
      pin->ids_.insert(ids.begin(), ids.end());
    }
  }

  virtual bool Contains(const Hash256& id) const = 0;

  /// How a backend physically transforms a chunk's payload on its medium.
  /// Logical identity (the content address) never changes — Get always
  /// returns the original bytes — but a store may hold them transformed.
  /// Bytes held verbatim have no transformed form (see GetPhysicalRecord).
  enum class Encoding : uint8_t {
    kCompressed = 1,  ///< LZ block (util/compress.h)
    kDelta = 2,       ///< copy/insert delta against another resident chunk
  };

  /// One chunk's stored form: the physical payload plus what is needed to
  /// rebuild the logical bytes from it. `delta_base` is meaningful only for
  /// Encoding::kDelta. The bundle exporter ships these verbatim so a
  /// chain-resident chunk crosses the wire at its (smaller) disk footprint.
  struct PhysicalRecord {
    Encoding encoding = Encoding::kCompressed;
    uint64_t logical_length = 0;  ///< bytes Get would return
    Hash256 delta_base{};
    std::string payload;  ///< the physical bytes as stored
  };

  /// When `id` is stored as a delta against another chunk, fills `*base`
  /// with the predecessor's id and returns true; false for raw/compressed/
  /// absent chunks. GC expands its live set with these physical
  /// dependencies (MarkLive), so a delta base is never erased from under a
  /// live dependent. Decorators forward to the backend that holds the id.
  virtual bool GetDeltaBase(const Hash256& id, Hash256* base) const {
    (void)id;
    (void)base;
    return false;
  }

  /// Fills `*rec` with `id`'s stored form and returns true; false when the
  /// id is absent or the backend has no transformed representation (callers
  /// then fall back to Get's logical bytes, which may hit a cache this
  /// probe must not bypass — a verbatim record is reported without being
  /// read). Never performs chain resolution — the point is the physical
  /// record.
  virtual bool GetPhysicalRecord(const Hash256& id,
                                 PhysicalRecord* rec) const {
    (void)id;
    (void)rec;
    return false;
  }

  /// True when Erase() actually reclaims space. The base interface is
  /// append-only (content addressing never requires deletion); stores that
  /// can give space back — the memory store, the segment-file store — opt
  /// in, and capacity managers (a bounded hot tier) probe this before
  /// planning eviction.
  virtual bool SupportsErase() const { return false; }

  /// Drops `ids` from the store, releasing their space. Erasing an absent
  /// id is a no-op (mirroring Put's idempotence); the call fails only on
  /// I/O errors. Erase is a capacity operation, not a consistency one: a
  /// crash may resurrect chunks whose erase was in flight (harmless under
  /// content addressing — identical bytes, and an evictor simply erases
  /// them again). Default: kUnimplemented — see SupportsErase().
  virtual Status Erase(std::span<const Hash256> ids);

  /// Bytes this store currently occupies, as its capacity manager should
  /// count them. For in-memory stores this equals stats().physical_bytes
  /// (the default); stores with on-disk framing or not-yet-reclaimed dead
  /// space (FileChunkStore tombstones awaiting segment rewrite) report
  /// their real footprint so budgets bound actual disk usage.
  virtual uint64_t space_used() const { return stats().physical_bytes; }

  virtual ChunkStoreStats stats() const = 0;

  /// Visits every resident chunk (diagnostics, GC, integrity sweeps).
  virtual void ForEach(
      const std::function<void(const Hash256&, const Chunk&)>& fn) const = 0;

  /// Visits every resident chunk id with its byte size, WITHOUT reading the
  /// chunk bytes — an index walk, not an I/O sweep. This is what makes
  /// reopen-time reconciliation and eviction bookkeeping affordable over a
  /// large store. The default adapts ForEach (and so does pay the reads);
  /// every index-backed store overrides it.
  virtual void ForEachId(
      const std::function<void(const Hash256&, uint64_t)>& fn) const;

 protected:
  /// Backend write, called by Put after pin recording.
  virtual Status PutImpl(const Chunk& chunk) = 0;
  /// Backend batched write; the default loops over PutImpl.
  virtual Status PutManyImpl(std::span<const Chunk> chunks);

 private:
  void RecordPinnedPuts(std::span<const Chunk> chunks);

  /// Mirrors pins_.size(); lets Put/PutMany skip the mutex when no sweep
  /// is active.
  std::atomic<int> pin_count_{0};
  mutable std::mutex pin_mu_;
  std::vector<PutPin*> pins_;  // guarded by pin_mu_
};

/// Default batch size for memory-capped batched writes and erases over many
/// chunks (GC copies and erases, bundle import).
inline constexpr size_t kChunkSweepBatch = 256;

/// Whether ForEachChunkBatch should compute chunk identities before
/// handing a run to the callback. Sweeps that re-hash every chunk (deep
/// verification, bundle export) opt in so the digests are computed by the
/// thread that reads the run, in parallel with the other runs, instead of
/// one at a time inside the callback; sweeps that never look at hashes (GC
/// marking, diff) keep the default and pay nothing.
enum class BatchHashing : uint8_t { kNone = 0, kPrecompute = 1 };

/// Reads `ids` and invokes `fn(index, slot)` for every id, in order, on the
/// calling thread (`slot` is the id's StatusOr<Chunk>, movable). Stops and
/// propagates the first non-OK status `fn` returns; slot errors are `fn`'s
/// to judge. The reads run on the ordered fan-out (OrderedFanOut in
/// util/worker_pool.h): runs of ids are read, and hashed under kPrecompute,
/// by the caller and SharedHashPool() helpers, at most two rounds ahead of
/// `fn`, so a sweep over a huge id set never buffers every chunk at once.
/// A sweep of one run uses no helper. When `fn` stops the sweep, reads
/// already issued for the rounds in flight are wasted; no others are made.
/// `ids` must not be modified while the sweep runs: helpers read it.
Status ForEachChunkBatch(
    const ChunkStore& store, std::span<const Hash256> ids,
    const std::function<Status(size_t index, StatusOr<Chunk>& slot)>& fn,
    BatchHashing hashing = BatchHashing::kNone);

}  // namespace forkbase

#endif  // FORKBASE_CHUNK_CHUNK_STORE_H_
