// Persistent chunk store backed by append-only segment files.
//
// On-disk layout (per directory):
//   segment-<n>.fbc : sequence of records, two generations mixed freely:
//       FBC1 (raw):  [magic u32][hash 32B][len u32][chunk bytes (tag+payload)]
//       FBC2 (coded):[magic u32][hash 32B][payload_len u32][enc u8]
//                    [logical_len u32][payload bytes]
//       tombstone:   [tombstone-magic u32][hash 32B][len=0]
// An FBC2 payload is the chunk's bytes transformed per `enc`: 0 = verbatim,
// 1 = LZ block (util/compress.h), 2 = a copy/insert delta
// (util/delta_codec.h) whose payload leads with the 32-byte id of the base
// chunk the delta applies against. The content address always hashes the
// LOGICAL bytes — encoding is a storage detail, invisible to Get.
// Writers only emit FBC2 when an encoding knob is on (Options::compression
// or delta_chain_depth); a store with the defaults writes byte-identical
// FBC1 segments, and replay sniffs the magic per record, so pre-FBC2
// directories open unchanged and mixed segments are normal.
//
// Delta chains: PutMany keeps a small recency window of just-written chunks
// and stores a new chunk as a delta against the window entry that encodes
// smallest (bounded chain depth). Reads resolve chains transparently,
// memoizing materialized bases in a small cache. Three things keep chains
// from going wrong:
//   - GC marks delta bases live while dependents live (gc.cc expands the
//     live set with GetDeltaBase), so collection never strands a chain.
//   - Erase flattens live dependents of the dying id first (re-appending
//     them raw/compressed), so arbitrary eviction is safe.
//   - Segment rewrite materializes delta records as it copies, so
//     compaction naturally shortens chains to zero.
//
// Space reclamation (the Erase capability): erasing a chunk removes its
// index entry and appends a tombstone record, so the erase survives reopen
// (replay drops tombstoned ids in append order). The chunk's bytes become
// dead space in their segment; per-segment live-byte accounting notices
// when a closed segment's live ratio falls below Options::compact_live_ratio
// and rewrites it — live records are streamed in batches into the active
// segment (the same batch streaming GC's CopyLive uses), their index
// entries are repointed, and the old segment file is truncated to zero. A
// crash mid-rewrite leaves duplicate records; replay keeps the LAST copy of
// an id (append order — later records supersede earlier ones, which is also
// what lets a flattened record shadow the delta it replaced) and the
// rewrite simply runs again. Readers race rewrites benignly: a read that
// loses the location it looked up re-checks the index once and retries at
// the chunk's new home.
//
// Accounting is split logical vs physical: per-segment live counters track
// both the bytes on disk (what compaction ratios and space_used() bound)
// and the bytes Get would return (what cache budgets and users reason in).
// Encoded stores make the two diverge; conflating them is how a tiered
// budget silently over- or under-evicts.
//
// Concurrency: the hash->location index is striped across 16 shards, each
// behind its own mutex, so lookups (Get/Contains) from different threads
// rarely contend. Appends are serialized by a single append mutex — there is
// one active segment — but PutMany batches an entire record run into a
// single fwrite+fflush under that mutex, amortizing both the lock and the
// syscalls. Put/PutMany flush to the OS before publishing index entries, so
// a reader can never observe an index entry whose bytes are still trapped in
// the stdio buffer, and every Put that returned OK survives a process crash
// (though not a power failure — there is no fsync).
//
// Lock order (where several are held): append_mu_ before any shard mutex
// before seg_mu_ (the per-segment accounting lock is innermost and never
// calls out). delta_mu_ and cache_mu_ are leaves: taken briefly, never held
// while acquiring another store lock or doing I/O.
#ifndef FORKBASE_CHUNK_FILE_CHUNK_STORE_H_
#define FORKBASE_CHUNK_FILE_CHUNK_STORE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "chunk/chunk_store.h"
#include "util/file_io.h"
#include "util/worker_pool.h"

namespace forkbase {

class FileChunkStore : public ChunkStore {
 public:
  /// Block codec applied to record payloads (delta encoding is controlled
  /// separately by delta_chain_depth).
  enum class Compression : uint8_t {
    kNone = 0,  ///< payloads verbatim (FBC1 records, the legacy format)
    kLz = 1,    ///< util/compress.h LZ block when it actually shrinks
  };

  struct Options {
    uint64_t segment_bytes = 64ull << 20;  ///< roll segments at 64 MiB
    bool verify_on_get = false;  ///< recompute hash on every read
    /// Ignored: the store reads only on its callers' threads. Kept only
    /// because the perfbench harness sets it; delete it with that line.
    uint32_t prefetch_threads = 0;
    /// fsync the segment after every flushed append run. Upgrades Put's
    /// durability from crash-safe (survives the process dying) to
    /// power-loss-safe, at one disk sync per Put/PutMany — the cost the
    /// group-commit queue exists to amortize (N commits, one sync).
    bool fsync_on_flush = false;
    /// Rewrite a closed segment once its live bytes fall below this fraction
    /// of its file size (erases and tombstones are dead space). 0 disables
    /// compaction: Erase still drops index entries and appends tombstones,
    /// but disk space is never given back.
    double compact_live_ratio = 0.5;
    /// Maintenance pool width: how many segment rewrites run concurrently
    /// on background threads (spawned lazily on the first rewrite; each
    /// rewrite is a work item, excess queue). Rewrites block on cold device
    /// reads and the pre-truncate fsync, so >1 pays off even on a single
    /// core. 0 runs rewrites inline inside the Erase/PutMany call that
    /// crossed the threshold — deterministic for tests, and what keeps
    /// space_used() exact for tight budget loops.
    uint32_t maintenance_threads = 1;
    /// Benchmark/testing hook: extra latency added to each pre-truncate
    /// segment sync a rewrite performs, modeling a device with non-trivial
    /// sync cost. The SlowDevice scan benches inject latency the same way
    /// at the store API; this knob reaches the maintenance path, which a
    /// wrapping store cannot. Must stay zero in production configurations.
    std::chrono::microseconds rewrite_sync_delay_for_testing{0};
    /// Payload compression for newly written records. Off by default: the
    /// legacy FBC1 format stays byte-for-byte what it was, and the CPU per
    /// Put stays zero. kLz writes a record compressed only when the block
    /// actually shrinks by >= 1/16 — incompressible payloads stay raw.
    Compression compression = Compression::kNone;
    /// Maximum delta-chain length for newly written records. 0 (default)
    /// disables delta encoding entirely. n > 0 lets PutMany store a chunk
    /// as a delta against a recently written chunk when the chain through
    /// that base stays <= n hops and the delta is materially smaller
    /// (<= 7/8 of raw). Reads pay one base materialization per hop (cached),
    /// so keep this small — 2..4 captures most versioned-data savings.
    uint32_t delta_chain_depth = 0;
    /// How many recently written chunks PutMany considers as delta bases.
    /// Only consulted when delta_chain_depth > 0. The window holds chunk
    /// copies in memory, so its cost is window * chunk size.
    uint32_t delta_window = 8;
  };

  /// Opens (creating if needed) a store rooted at `dir`.
  static StatusOr<std::unique_ptr<FileChunkStore>> Open(
      const std::string& dir);
  static StatusOr<std::unique_ptr<FileChunkStore>> Open(
      const std::string& dir, Options options);

  ~FileChunkStore() override;

  StatusOr<Chunk> Get(const Hash256& id) const override;
  std::vector<StatusOr<Chunk>> GetMany(
      std::span<const Hash256> ids) const override;
  bool Contains(const Hash256& id) const override;
  bool SupportsErase() const override { return true; }
  /// Tombstoned erase: drops each id's index entry and journals a tombstone
  /// so the erase survives reopen. Live delta dependents of an erased id
  /// are flattened (re-appended self-contained) first, so no chain ever
  /// dangles; if that flattening cannot be persisted the erase fails
  /// without dropping anything. Dead bytes are reclaimed by segment rewrite
  /// once a segment's live ratio crosses the threshold.
  Status Erase(std::span<const Hash256> ids) override;
  bool GetDeltaBase(const Hash256& id, Hash256* base) const override;
  bool GetPhysicalRecord(const Hash256& id,
                         PhysicalRecord* rec) const override;
  ChunkStoreStats stats() const override;
  /// Actual disk footprint: the sum of all segment file sizes, dead bytes
  /// included (what a hot-tier budget must bound).
  uint64_t space_used() const override;
  void ForEach(const std::function<void(const Hash256&, const Chunk&)>& fn)
      const override;
  /// Reports each id with its PHYSICAL payload length (bytes on disk, not
  /// bytes Get returns) — the number eviction and budget bookkeeping want.
  void ForEachId(
      const std::function<void(const Hash256&, uint64_t)>& fn) const override;

  /// Flushes buffered writes to the OS. (Put/PutMany already flush before
  /// returning; this remains for explicit barriers and tests.)
  Status Flush();

  /// Blocks until every scheduled background segment rewrite has completed.
  /// No-op with maintenance_threads = 0. Tests (and budget-sensitive
  /// callers about to measure disk) use this as the quiesce barrier.
  void WaitForMaintenance();

  /// Administrative compaction sweep: queues a rewrite for every closed
  /// segment whose live ratio is below `live_ratio`, regardless of the
  /// configured compact_live_ratio (so it works on stores opened with
  /// compaction disabled). live_ratio >= 1.0 rewrites every closed segment
  /// with any dead space. Returns the number of rewrites queued; pair with
  /// WaitForMaintenance() to run them out. Because rewrites flatten delta
  /// records, CompactBelow(1.0) + WaitForMaintenance() is also the "undo
  /// all chains" maintenance verb.
  size_t CompactBelow(double live_ratio);

  struct MaintenanceStats {
    uint64_t erased_chunks = 0;      ///< ids dropped by Erase
    uint64_t tombstone_records = 0;  ///< tombstones appended (journal size)
    uint64_t segments_rewritten = 0;
    uint64_t rewritten_bytes = 0;    ///< live bytes moved by rewrites
    uint64_t reclaimed_bytes = 0;    ///< file bytes released by rewrites
    uint64_t pending_compactions = 0;  ///< rewrites queued or running now
    uint64_t delta_records = 0;       ///< records written delta-encoded
    uint64_t compressed_records = 0;  ///< records written LZ-compressed
    /// Base materializations performed by reads (one per chain hop not
    /// served from the delta cache). A store whose chains were flattened
    /// stops accruing these.
    uint64_t delta_chain_hops = 0;
    uint64_t flattened_chains = 0;  ///< delta records rewritten self-contained
    /// Live-record footprint, both ways: what the records' chunks measure
    /// (logical) and what their stored form occupies on disk, headers
    /// included (physical). physical/logical is the realized storage ratio.
    uint64_t live_logical_bytes = 0;
    uint64_t live_physical_bytes = 0;

    /// Field-wise sum (ForkBase::Stat folds a tiered stack's two stores).
    MaintenanceStats& operator+=(const MaintenanceStats& o);
  };
  MaintenanceStats maintenance_stats() const;

 protected:
  Status PutImpl(const Chunk& chunk) override;
  Status PutManyImpl(std::span<const Chunk> chunks) override;

 private:
  struct Location {
    uint32_t segment = 0;
    uint64_t offset = 0;   ///< offset of the payload bytes (past the header)
    uint32_t length = 0;   ///< physical payload length on disk
    uint32_t logical = 0;  ///< chunk byte length Get returns
    uint8_t enc = 0;       ///< record encoding (kEncRaw for FBC1 records)
    uint8_t header = 0;    ///< header bytes preceding the payload (40 or 45)
  };

  /// Per-segment space accounting. `total_bytes` tracks the file size (every
  /// record appended, live or dead); `live_bytes` the physical footprint of
  /// records the index still points at (headers included);
  /// `live_logical_bytes` the chunk bytes those records decode to. Guarded
  /// by seg_mu_.
  struct SegmentSpace {
    uint64_t total_bytes = 0;
    uint64_t live_bytes = 0;
    uint64_t live_logical_bytes = 0;
    bool compaction_scheduled = false;
  };

  class SegmentReader;

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Hash256, Location, Hash256Hasher> index;
  };

  /// Delta-chain bookkeeping for a chain-resident id. Guarded by delta_mu_.
  /// `depth` is the chain length through this record at write time (1 =
  /// delta against a self-contained base); it is an upper bound after the
  /// base is flattened, which only makes future chains shorter.
  struct DeltaInfo {
    Hash256 base;
    uint32_t depth = 1;
  };

  /// Recency window entry PutMany picks delta bases from. Guarded by
  /// append_mu_ (only the append path touches the window).
  struct WindowEntry {
    Hash256 id;
    Chunk chunk;
    uint32_t depth = 0;  ///< chain depth of the stored record for id
  };

  /// A record serialized and pending index publication (accumulated under
  /// append_mu_, published after the flush succeeds).
  struct PendingEntry {
    Hash256 id;
    Location loc;
    Hash256 base;        ///< meaningful when loc.enc == kDelta
    uint32_t depth = 0;  ///< chain depth when loc.enc == kDelta
  };

  FileChunkStore(std::string dir, Options options);
  Status Recover();
  Status OpenSegmentForAppend(uint32_t seg_no);
  std::string SegmentPath(uint32_t seg_no) const;
  size_t ShardIndexOf(const Hash256& id) const;
  Shard& ShardFor(const Hash256& id) const;
  /// Looks up `id` in its shard. Returns true and fills `loc` when present.
  bool Lookup(const Hash256& id, Location* loc) const;
  /// Reads the payload of `id` at `*loc` (through `reader` when it has that
  /// segment open) and returns `decode(loc, payload)`. If either step
  /// fails, heals the read-vs-rewrite race: re-resolves `id` — gone means
  /// NotFound (erased mid-read), moved means one retry at the new location
  /// (updating `*loc`), unchanged means the original error.
  template <typename Decode>
  auto ReadHealed(const Hash256& id, Location* loc, SegmentReader* reader,
                  Decode decode) const -> decltype(decode(*loc, std::string()));
  /// ReadHealed to the logical chunk (resolving delta chains through the
  /// index), re-verified when configured.
  StatusOr<Chunk> ReadChunk(const Hash256& id, Location loc,
                            SegmentReader* reader) const;
  /// Decodes a physical payload to the logical chunk bytes. `depth` guards
  /// against runaway chains (cycles cannot occur, but corruption could
  /// manufacture one).
  StatusOr<std::string> DecodePayload(const Hash256& id, const Location& loc,
                                      std::string payload, int depth) const;
  /// Returns the logical bytes of `id`, resolving its record (and any chain
  /// under it) through the index. Consults/populates the delta cache.
  StatusOr<std::string> MaterializeLogical(const Hash256& id,
                                           int depth) const;
  /// Delta-cache accessors (cache_mu_ inside).
  bool CacheGet(const Hash256& id, std::string* bytes) const;
  void CachePut(const Hash256& id, const std::string& bytes) const;

  /// Appends `bytes` as a self-contained record of `id` to `buffer`: LZ
  /// when the store compresses and the block saves >= 1/16, else raw FBC1.
  /// Fills loc's enc, header, length and logical.
  void EncodeSelfContained(const Hash256& id, Slice bytes,
                           std::string* buffer, Location* loc) const;
  /// Chooses the stored form of `chunk` under append_mu_: a delta against
  /// the recency window when it beats EncodeSelfContained's form. Appends
  /// header+payload to `buffer` and fills `entry` (loc.segment/offset set
  /// by the caller). Returns the record's total appended bytes.
  uint64_t SerializeRecord(const Chunk& chunk, std::string* buffer,
                           PendingEntry* entry);
  /// The one append run (caller holds append_mu_): AppendFile::Append of
  /// `buffer` to the active segment (fsynced when `sync`); a failed run
  /// also drops the recency window.
  Status AppendRun(const std::string& buffer, bool sync);
  /// Starts the next segment when the active one has reached segment_bytes
  /// (caller holds append_mu_; a failed stream stays failed). Adds the
  /// closed segment to `rolled` when given.
  Status RollIfFull(std::vector<uint32_t>* rolled);
  /// Pushes a freshly serialized chunk into the recency window (caller
  /// holds append_mu_).
  void WindowPush(const Hash256& id, const Chunk& chunk, uint32_t depth);

  /// Records `appended` flushed bytes against `segment` (`live` of them
  /// index-reachable, decoding to `live_logical` chunk bytes) under seg_mu_.
  void NoteAppend(uint32_t segment, uint64_t appended, uint64_t live,
                  uint64_t live_logical);
  /// Subtracts a dropped record's bytes from its segment's live counts.
  void NoteDead(uint32_t segment, uint64_t record_bytes,
                uint64_t logical_bytes);
  /// Drops `id`'s chain bookkeeping (delta_mu_ inside). No-op for ids that
  /// are not chain-resident.
  void ForgetDelta(const Hash256& id);
  /// True when `space` is rewrite-worthy (dead-heavy). Caller holds seg_mu_.
  bool BelowLiveRatio(const SegmentSpace& space) const;
  /// Queues `segment` for rewrite if it is closed, dead-heavy, and not
  /// already queued. Caller must hold NO store locks.
  void MaybeScheduleCompaction(uint32_t segment);
  /// Runs CompactSegment on the maintenance pool (inline with
  /// maintenance_threads = 0) for a segment the caller marked scheduled.
  /// Caller must hold NO store locks.
  void SubmitCompaction(uint32_t segment);
  /// Points `id` at its copy `fresh` if the index still names `old_loc`,
  /// moving the record's accounting over (and dropping its chain edge when
  /// the old record was a delta). False when the id moved or left the
  /// index meanwhile: the copy is dead bytes.
  bool Repoint(const Hash256& id, const Location& old_loc,
               const Location& fresh);
  /// Streams the live records of `segment` into the active segment
  /// (flattening delta records and re-compressing per the current options),
  /// repoints their index entries, truncates the old file.
  void CompactSegment(uint32_t segment);
  /// Re-appends the live delta dependents of the ids about to be erased as
  /// self-contained records, so the erase cannot strand a chain. Returns
  /// non-OK (and performs no erase-visible mutation beyond the re-appends,
  /// which are harmless duplicates) when persisting a flattened record
  /// fails.
  Status FlattenDependentsOf(std::span<const Hash256> ids);

  const std::string dir_;
  const Options options_;

  mutable std::vector<Shard> shards_;

  std::mutex append_mu_;  ///< serializes all segment appends and rolls
  AppendFile append_;  ///< the active segment
  uint32_t append_segment_ = 0;
  /// Recency window for delta-base selection; lives under append_mu_ with
  /// the rest of the append state. Cleared on flush failure (its entries
  /// may reference records that never reached the file).
  std::deque<WindowEntry> window_;
  /// Mirror of append_segment_ readable without append_mu_ (the compaction
  /// scheduler must never rewrite the active segment).
  std::atomic<uint32_t> active_segment_{0};

  mutable std::mutex seg_mu_;  ///< innermost: per-segment space accounting
  std::unordered_map<uint32_t, SegmentSpace> segments_;
  std::condition_variable compact_cv_;
  size_t compactions_pending_ = 0;

  /// Chain bookkeeping: which live records are deltas (and against what),
  /// and the reverse edges Erase needs to find dependents. Guarded by
  /// delta_mu_ (a leaf lock).
  mutable std::mutex delta_mu_;
  std::unordered_map<Hash256, DeltaInfo, Hash256Hasher> delta_info_;
  std::unordered_multimap<Hash256, Hash256, Hash256Hasher> delta_children_;

  /// Small LRU of materialized logical bytes, keyed by chunk id. Content
  /// addressing makes entries immortal-correct (an id's bytes never
  /// change), so there is no invalidation — only capacity eviction.
  mutable std::mutex cache_mu_;
  mutable std::list<std::pair<Hash256, std::string>> cache_lru_;
  mutable std::unordered_map<
      Hash256, std::list<std::pair<Hash256, std::string>>::iterator,
      Hash256Hasher>
      cache_map_;
  mutable uint64_t cache_bytes_ = 0;

  // Runs segment rewrites; shut down before the append stream closes.
  WorkerPool compact_pool_;

  // Stats are plain atomics so hot paths never take a dedicated stats lock.
  mutable std::atomic<uint64_t> chunk_count_{0};
  mutable std::atomic<uint64_t> physical_bytes_{0};
  mutable std::atomic<uint64_t> put_calls_{0};
  mutable std::atomic<uint64_t> dedup_hits_{0};
  mutable std::atomic<uint64_t> logical_bytes_{0};
  mutable std::atomic<uint64_t> get_calls_{0};
  std::atomic<uint64_t> erased_chunks_{0};
  std::atomic<uint64_t> tombstone_records_{0};
  std::atomic<uint64_t> segments_rewritten_{0};
  std::atomic<uint64_t> rewritten_bytes_{0};
  std::atomic<uint64_t> reclaimed_bytes_{0};
  std::atomic<uint64_t> delta_records_{0};
  std::atomic<uint64_t> compressed_records_{0};
  mutable std::atomic<uint64_t> delta_chain_hops_{0};
  std::atomic<uint64_t> flattened_chains_{0};
};

}  // namespace forkbase

#endif  // FORKBASE_CHUNK_FILE_CHUNK_STORE_H_
