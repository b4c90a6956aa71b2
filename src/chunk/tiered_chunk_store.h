// TieredChunkStore — two-level store: a bounded hot local tier over a cold
// backend.
//
// The multi-backend milestone: any ChunkStore can be the hot tier (a
// FileChunkStore on local disk, a MemChunkStore in tests) and any other the
// cold tier (ForkBase::Open puts a FileChunkStore over a second directory
// there; tests use the simulated RemoteChunkStore of src/testing; S3 or an
// io_uring-backed store would only need the ChunkStore interface).
// Chunk immutability keeps tiering trivially coherent: a chunk resident in
// both tiers is bit-identical in both, so there is no invalidation, only
// placement.
//
// Write policies:
//   * write-through — Put lands in the hot tier, then in the cold tier,
//     before returning. An error from either tier surfaces (the chunk may
//     be resident in one tier only; retrying the batch is idempotent).
//   * write-back — Put lands in the hot tier only and the chunk id joins
//     the dirty set. Demotion copies dirty chunks to the cold tier in
//     batches of `demote_batch` (one ranged cold PutMany per batch): a
//     background drain on a 1-thread WorkerPool fires when the dirty set
//     passes `write_back_watermark`, FlushColdTier() drains synchronously,
//     and the destructor makes a best-effort final flush. A failed demotion
//     returns its ids to the dirty set — chunks stay readable from the hot
//     tier and the next drain retries them, so a crash mid-demotion loses
//     no data that Put acknowledged (the hot tier's own durability covers
//     it).
//
// Durability of the dirty set: with Options::dirty_manifest attached, every
// id that becomes dirty is journaled (append-on-Put, compact-on-drain,
// torn-tail tolerant — see chunk/dirty_manifest.h) before Put returns, and
// demotions clear their ids once the cold write lands. A reopened store
// replays the manifest and resumes demotion exactly where the crash left
// it. When the manifest file is missing (first open with a manifest, or the
// file was lost), the store falls back to reconciling the tiers: every
// hot-resident id the cold tier lacks is marked dirty, restoring the
// write-back contract from the tiers' actual contents.
//
// Bounded hot tier: with Options::hot_bytes_budget set (and a hot tier that
// SupportsErase), the store tracks every hot-resident chunk in a sharded
// LRU and evicts past the budget — *cold-resident, clean* chunks only.
// Dirty chunks are pinned (tier_stats().pinned_dirty_bytes) until their
// demotion succeeds; a drain's completion both unpins its chunks and runs
// the evictor, so a write burst that outruns the budget drains down to it.
// The budget bounds hot_->space_used() — for a FileChunkStore hot tier that
// is real disk usage, dead bytes included, which segment rewrite reclaims.
// Eviction is safe against every race by construction: only chunks the cold
// tier provably holds are erased (the evictor re-probes cold Contains as
// its final check), and content addressing makes a lost race merely re-read
// identical bytes from the cold tier.
//
// Reads take one path: Get is a one-id GetMany. A read splits its batch by
// tier with a hot Contains probe per id (an index lookup, no I/O), then
// reads the hot share and the cold share with one GetMany each (an empty
// share reads nothing). Reads ahead of a caller come from the caller's
// ordered fan-out, which runs several such reads at once on the hash pool.
// One merge then heals the probe's races: a hot slot that came back
// kNotFound (the copy was evicted after the probe) is retried against the
// cold tier in one batch, and a cold kNotFound is re-probed against the hot
// tier once (a concurrent Put may have landed there). Cold hits are
// promoted into the hot tier in one batched put per read
// (`promote_on_read`), so a working set migrates to local disk as it is
// touched (and cycles through it under a budget). An error from either
// tier (timeout, transient) surfaces in its slot as a Status — it is never
// converted to kNotFound and never promoted.
#ifndef FORKBASE_CHUNK_TIERED_CHUNK_STORE_H_
#define FORKBASE_CHUNK_TIERED_CHUNK_STORE_H_

#include <atomic>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chunk/chunk_store.h"
#include "chunk/dirty_manifest.h"
#include "util/worker_pool.h"

namespace forkbase {

/// When a written chunk reaches the cold tier.
enum class TierPolicy {
  kWriteThrough,  ///< on Put, before it returns
  kWriteBack,     ///< later: watermark drain, FlushColdTier, or destructor
};

class TieredChunkStore : public ChunkStore {
 public:
  struct Options {
    TierPolicy policy = TierPolicy::kWriteThrough;
    /// Copy cold hits into the hot tier (one batched put per read).
    bool promote_on_read = true;
    /// Chunks per cold PutMany during demotion (batch-grouped demotion).
    size_t demote_batch = 64;
    /// Dirty-set size that triggers a background drain (write-back only).
    size_t write_back_watermark = 256;
    /// Drain at the watermark on a background thread. Off = dirty chunks
    /// move only on FlushColdTier() / destruction (deterministic tests).
    bool background_demotion = true;
    /// Hot-tier space budget in bytes (bounds hot_->space_used()); 0 =
    /// unbounded (placement-only tiering, the pre-budget behavior).
    /// Requires a hot tier with SupportsErase() to have any effect.
    uint64_t hot_bytes_budget = 0;
    /// Chunks per hot Erase call while evicting.
    size_t evict_batch = 64;
    /// Persistent journal of the dirty set (write-back only). Null keeps
    /// the dirty set in-memory: a reopened store only rediscovers
    /// undemoted chunks via a manifest or this store's reconcile fallback.
    std::shared_ptr<DirtyManifest> dirty_manifest;
  };

  /// Both tiers are shared and must be thread-safe; the hot tier is assumed
  /// cheap to probe (Contains) — it is consulted once per id to split every
  /// batch. Construction replays the dirty manifest (or reconciles the
  /// tiers when the manifest file is missing) and seeds the eviction
  /// tracker from the hot tier's index, so a reopened stack resumes the
  /// write-back contract and the budget immediately.
  TieredChunkStore(std::shared_ptr<ChunkStore> hot,
                   std::shared_ptr<ChunkStore> cold);
  TieredChunkStore(std::shared_ptr<ChunkStore> hot,
                   std::shared_ptr<ChunkStore> cold, Options options);
  /// Best-effort FlushColdTier(); a failure leaves the remaining dirty
  /// chunks hot-only. They stay readable through the hot tier, and with a
  /// dirty manifest attached a reopened store resumes demoting them; with
  /// no manifest the dirty set dies with this object (see Options).
  ~TieredChunkStore() override;

  StatusOr<Chunk> Get(const Hash256& id) const override;
  std::vector<StatusOr<Chunk>> GetMany(
      std::span<const Hash256> ids) const override;
  bool Contains(const Hash256& id) const override;
  bool SupportsErase() const override {
    return hot_->SupportsErase() || cold_->SupportsErase();
  }
  /// Erases from both tiers (where supported), the dirty set, the manifest
  /// and the eviction tracker — an erased chunk is neither demoted nor
  /// counted again.
  Status Erase(std::span<const Hash256> ids) override;
  /// Physical-representation probes ask the tier that holds the id's
  /// record, hot first (the same precedence Get uses). Note a chunk the
  /// hot tier stores raw may be chain-resident cold — callers asking
  /// "what does THIS stack depend on" get the hot answer, which is the
  /// copy reads resolve against.
  bool GetDeltaBase(const Hash256& id, Hash256* base) const override {
    if (hot_->Contains(id)) return hot_->GetDeltaBase(id, base);
    return cold_->GetDeltaBase(id, base);
  }
  bool GetPhysicalRecord(const Hash256& id,
                         PhysicalRecord* rec) const override {
    if (hot_->Contains(id) && hot_->GetPhysicalRecord(id, rec)) return true;
    return cold_->GetPhysicalRecord(id, rec);
  }
  uint64_t space_used() const override {
    return hot_->space_used() + cold_->space_used();
  }
  /// Put/Get counters come from the hot tier; chunk_count is the exact
  /// distinct-chunk union of the tiers (cold count + hot-only count via a
  /// hot index walk — affordable because ForEachId never touches chunk
  /// bytes); physical_bytes sums both tiers — the true cross-tier
  /// footprint.
  ChunkStoreStats stats() const override;
  /// Visits the union of both tiers once per chunk (hot copy preferred).
  /// The cold-only pass matters after reopening a stack whose hot tier is
  /// fresh (or lost) while the cold backend holds the history.
  void ForEach(const std::function<void(const Hash256&, const Chunk&)>& fn)
      const override;
  void ForEachId(
      const std::function<void(const Hash256&, uint64_t)>& fn) const override;

  /// Demotes every dirty chunk to the cold tier and waits for background
  /// drains. On failure the undemoted ids stay dirty for the next attempt.
  /// No-op (OK) under write-through.
  Status FlushColdTier();

  /// Runs one eviction pass if the hot tier is over budget (also runs
  /// automatically after puts, promotions and drains). Exposed for
  /// operational tooling and tests. Const because eviction changes only
  /// placement, never logical content — read paths (which promote) run it
  /// too.
  void EnforceHotBudget() const;

  struct TierStats {
    uint64_t hot_hits = 0;     ///< slots served by the hot tier
    uint64_t cold_hits = 0;    ///< slots served by the cold tier
    uint64_t promotions = 0;   ///< cold hits copied into the hot tier
    uint64_t demotions = 0;    ///< chunks copied to the cold tier by drains
    /// Chunks still awaiting demotion. Excludes ids snapshotted by an
    /// in-flight background drain (which may yet fail and re-mark them),
    /// so 0 here does not mean "everything reached the cold tier" — call
    /// FlushColdTier(), which waits out drains, before relying on that.
    uint64_t dirty_pending = 0;
    /// Chunks erased from the hot tier by the budget evictor.
    uint64_t evictions = 0;
    /// Erased ids that were dirty (never demoted): reclaimed from the hot
    /// tier alone, no cold round trip — GC's evict-over-demote policy.
    uint64_t hot_only_erases = 0;
    /// Tracked bytes of hot-resident chunks (0 when no budget is set —
    /// tracking only runs for bounded tiers).
    uint64_t hot_bytes = 0;
    /// Bytes of hot-resident chunks pinned because they are dirty: the
    /// part of the hot tier the evictor must not touch until drains land.
    uint64_t pinned_dirty_bytes = 0;
  };
  TierStats tier_stats() const;

  ChunkStore* hot() { return hot_.get(); }
  ChunkStore* cold() { return cold_.get(); }
  DirtyManifest* manifest() { return options_.dirty_manifest.get(); }

 protected:
  Status PutImpl(const Chunk& chunk) override;
  Status PutManyImpl(std::span<const Chunk> chunks) override;

 private:
  /// Batch split: every id goes to exactly one tier's fetch, and each
  /// pending list remembers which result slots it fills.
  struct Partition {
    std::vector<Hash256> hot_ids;
    std::vector<size_t> hot_slots;
    std::vector<Hash256> cold_ids;
    std::vector<size_t> cold_slots;
  };
  Partition Split(std::span<const Hash256> ids) const;
  /// Scatters both tiers' fetch results into request order, retries hot
  /// misses against the cold tier in one batch (the hot copy vanished after
  /// the probe — e.g. evicted) and cold misses against the hot tier (a
  /// concurrent Put), promotes cold hits and counts every slot.
  std::vector<StatusOr<Chunk>> MergeTiers(
      const Partition& split, size_t total,
      std::vector<StatusOr<Chunk>> hot_slots,
      std::vector<StatusOr<Chunk>> cold_slots) const;

  /// Marks freshly written chunks dirty (journal, tracker, drain queue)
  /// and schedules a watermark drain. Returns the manifest's status —
  /// in-memory state is updated even when journaling failed.
  Status MarkDirty(std::span<const Chunk> chunks);
  /// Adds `ids` to the dirty set; at the watermark, with background
  /// demotion on and no drain in flight, takes the in-flight slot and
  /// schedules a drain of the whole set.
  void QueueDirty(std::span<const Hash256> ids);
  /// Runs one background drain over `batch` (caller holds the in-flight
  /// slot) and chains into ids that crossed the watermark meanwhile.
  void ScheduleDemotion(std::vector<Hash256> batch);
  /// Copies `ids` from hot to cold in demote_batch-sized PutMany runs.
  /// On error, re-marks the unfinished remainder dirty and returns it.
  /// Each landed batch clears its ids from the manifest, unpins them in
  /// the tracker, and runs the evictor.
  Status DemoteIds(std::vector<Hash256> ids);

  // ---- hot-residency tracker (sharded LRU; active when budget > 0) -------
  struct MetaEntry {
    Hash256 id;
    uint64_t size = 0;
    bool dirty = false;
  };
  struct MetaShard {
    mutable std::mutex mu;
    std::list<MetaEntry> lru;  ///< front = most recently touched
    std::unordered_map<Hash256, std::list<MetaEntry>::iterator, Hash256Hasher>
        map;
  };
  static constexpr size_t kMetaShards = 8;
  bool tracking() const { return options_.hot_bytes_budget > 0; }
  MetaShard& MetaShardFor(const Hash256& id) const;
  /// Upserts a hot-resident entry (refreshing recency). Returns true when
  /// the chunk newly needs demotion — an existing clean entry is never
  /// re-dirtied (clean implies cold-resident: identical bytes are already
  /// demoted), and an existing dirty entry is already queued or in flight.
  bool NoteHot(const Hash256& id, uint64_t size, bool dirty) const;
  /// Moves a read-hit entry to the front of its shard's LRU.
  void TouchHot(const Hash256& id) const;
  /// Transitions entries dirty -> clean after a landed demotion.
  void MarkCleanMeta(std::span<const Hash256> ids) const;
  /// Removes entries (evicted / erased) from the tracker.
  void ForgetHot(std::span<const Hash256> ids) const;
  /// Pops up to `max_n` clean entries, LRU-first, across shards; the
  /// entries leave the tracker immediately.
  std::vector<std::pair<Hash256, uint64_t>> CollectVictims(
      size_t max_n) const;

  std::shared_ptr<ChunkStore> hot_;
  std::shared_ptr<ChunkStore> cold_;
  const Options options_;

  mutable std::mutex dirty_mu_;
  std::condition_variable demote_cv_;
  // Mutable: the (const) evictor re-queues a clean-marked chunk it found
  // missing from the cold tier instead of dropping it.
  mutable std::unordered_set<Hash256, Hash256Hasher> dirty_;
  size_t demotions_in_flight_ = 0;

  mutable std::vector<MetaShard> meta_;
  mutable std::mutex evict_mu_;  ///< one eviction pass at a time
  mutable std::atomic<size_t> evict_cursor_{0};
  mutable std::atomic<uint64_t> hot_bytes_{0};
  mutable std::atomic<uint64_t> pinned_dirty_bytes_{0};
  mutable std::atomic<uint64_t> evictions_{0};
  mutable std::atomic<uint64_t> hot_only_erases_{0};

  mutable std::atomic<uint64_t> hot_hits_{0};
  mutable std::atomic<uint64_t> cold_hits_{0};
  mutable std::atomic<uint64_t> promotions_{0};
  mutable std::atomic<uint64_t> demotions_{0};

  // Declared last; explicitly shut down first in the destructor so no drain
  // outlives the dirty set or the tiers.
  WorkerPool demote_pool_;
};

}  // namespace forkbase

#endif  // FORKBASE_CHUNK_TIERED_CHUNK_STORE_H_
