// ForkBase — the public facade: Git-like version & branch management over an
// extended key-value model (Fig. 1, "Data Access APIs").
//
// Every object is addressed by a key; a key has branches; each branch head
// is the uid of an FNode whose bases chain is the branch history. All verbs
// of the paper's API surface are here: Put, Get, Branch, Merge, Diff, Head,
// Latest, Meta, Rename, List, Stat, Export (CSV via FTable), plus Verify for
// tamper evidence.
#ifndef FORKBASE_STORE_FORKBASE_H_
#define FORKBASE_STORE_FORKBASE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "chunk/caching_chunk_store.h"
#include "chunk/file_chunk_store.h"
#include "chunk/tiered_chunk_store.h"
#include "postree/diff.h"
#include "postree/merge.h"
#include "store/branch_table.h"
#include "store/commit_graph.h"
#include "store/commit_queue.h"
#include "store/fnode.h"
#include "types/blob.h"
#include "types/list.h"
#include "types/map.h"
#include "types/set.h"
#include "types/table.h"
#include "util/file_io.h"

namespace forkbase {

/// Commit metadata attached to Put/Merge.
struct PutMeta {
  std::string author = "anonymous";
  std::string message;
};

/// Descriptive record of one version (the demo's Meta view, Fig. 6).
struct VersionInfo {
  Hash256 uid;
  std::string key;
  ValueType type = ValueType::kNull;
  std::vector<Hash256> bases;
  std::string author;
  std::string message;
  uint64_t logical_time = 0;

  std::string uid_base32() const { return uid.ToBase32(); }
};

/// Typed result of ForkBase::Diff, populated by value type.
struct ObjectDiff {
  ValueType type = ValueType::kNull;
  bool identical = false;
  /// map/set diffs.
  std::vector<KeyDelta> keyed;
  /// table diffs.
  std::vector<RowDelta> rows;
  /// list/blob diff (nullopt = identical region-wise).
  std::optional<SeqDelta> sequence;
  /// primitive values on both sides (set when type is non-container).
  Value left, right;
  DiffMetrics metrics;
};

/// Aggregate storage statistics (the demo's Stat view) — the single stats
/// surface of a ForkBase instance. The commit-queue section is always
/// present; the other per-layer sections (read cache, file-store
/// maintenance, tier) hold the layers' own structs and are present exactly
/// when the instance has that layer. The CLI `stat` command and the
/// server's STAT verb both render the one ToKeyValues() serialization.
struct ForkBaseStats {
  ChunkStoreStats chunks;
  uint64_t keys = 0;
  uint64_t branches = 0;
  uint64_t commits = 0;  ///< FNodes written by this instance
  /// In-place GC accounting (all zero until the first SweepInPlace).
  uint64_t gc_sweeps = 0;
  uint64_t gc_swept_chunks = 0;
  uint64_t gc_swept_bytes = 0;
  CommitQueue::Stats commit_queue;
  std::optional<CachingChunkStore::CacheStats> cache;
  /// Hot and cold file stores summed: the operator question is how much
  /// reclamation happened or is queued, not which tier did it.
  std::optional<FileChunkStore::MaintenanceStats> maintenance;
  std::optional<TieredChunkStore::TierStats> tier;
  uint64_t tier_hot_space = 0;   ///< hot-tier disk bytes in use
  uint64_t tier_hot_budget = 0;  ///< configured budget (0 = unbounded)

  /// Flat, ordered (key, value) rendering of every section present. This
  /// is the wire form of the server's STAT verb and the line format of the
  /// CLI's `stat` command: one serialization, two consumers.
  std::vector<std::pair<std::string, std::string>> ToKeyValues() const;
};

class ForkBase {
 public:
  static constexpr const char* kDefaultBranch = "master";

  /// Unified configuration of a ForkBase instance — the one set of knobs
  /// behind Open(), with the layer-specific sections nested.
  struct Config {
    size_t cache_bytes = 64ull << 20;  ///< sharded LRU read-cache budget
    /// Background readers in the FileChunkStore (async scan prefetch);
    /// 0 = fully synchronous I/O.
    uint32_t prefetch_threads = 1;
    /// fsync every append run (power-loss durability). Concurrent writers
    /// share one sync per commit group.
    bool fsync = false;
    /// Worker threads for background segment rewrites, per file store
    /// (hot and cold each get their own pool). Segment rewrites are
    /// I/O-bound — cold device reads and the pre-truncate fsync — so
    /// extra threads overlap blocked time even on one core. 0 = inline
    /// (deterministic; what unit tests use).
    uint32_t maintenance_threads = 1;
    /// Segment roll size for the file store(s); 0 keeps the store default
    /// (64 MiB; a bounded hot tier derives its own). Small segments make
    /// GC reclaim fine-grained — space comes back per rewritten segment —
    /// at the price of more files.
    uint64_t segment_bytes = 0;

    /// Storage-representation section (see docs/storage.md). All three
    /// default off/0, which keeps every segment record in the legacy raw
    /// FBC1 form — byte-identical to what older builds wrote. The knobs
    /// apply to hot and cold file stores alike; chunk ids and reads are
    /// unaffected either way (content addresses hash logical bytes).
    ///
    /// LZ-compress record payloads that shrink by at least 1/16.
    bool compression = false;
    /// Max delta-chain length. 0 disables delta encoding entirely; N > 0
    /// lets a chunk be stored as a copy/insert delta against a recent
    /// similar chunk, at most N hops from a self-contained record.
    uint32_t delta_chain_depth = 0;
    /// How many recently written chunks are kept as candidate delta bases.
    /// Only consulted when delta_chain_depth > 0.
    uint32_t delta_window = 8;

    /// Tiered-storage section. An empty cold_dir means a single tier.
    struct Tier {
      /// Non-empty = tiered storage: the open path becomes the hot tier
      /// and a second FileChunkStore at this path the cold tier, composed
      /// through a TieredChunkStore under the read cache. The cold store
      /// gets its own prefetch worker so cold ranged fetches overlap hot
      /// reads.
      std::string cold_dir;
      /// Cold-tier write policy: false = write-through (every commit
      /// reaches both tiers before returning), true = write-back (commits
      /// land hot and demote in batches at the watermark / on close).
      /// Write-back stacks persist their dirty set in a manifest
      /// journaled beside the hot segments, so a reopened store resumes
      /// demotion where a crash left it.
      bool write_back = false;
      /// Hot-tier disk budget in bytes (0 = unbounded). Caps the hot
      /// directory's segment usage: cold-resident clean chunks are
      /// evicted LRU-first past the budget, dirty chunks stay pinned
      /// until demoted. See TieredChunkStore::Options::hot_bytes_budget.
      uint64_t hot_bytes_budget = 0;
    };

    /// Empty since commits have one path (the leader/follower group
    /// commit of store/commit_queue.h) and no knobs. Kept only because
    /// perfbench/fbbench.cc still constructs `ForkBase(store,
    /// config.commit)`; delete it with the next change to perfbench.
    struct Commit {};

    Tier tier;
    Commit commit;
  };

  /// @param store shared chunk storage (memory or file backed); the
  /// second parameter is the empty Config::Commit and is ignored.
  explicit ForkBase(std::shared_ptr<ChunkStore> store,
                    const Config::Commit& = {});
  ~ForkBase();

  /// Opens a production-shaped instance at `path`: a sharded-index
  /// FileChunkStore (with async prefetch workers) under a sharded LRU
  /// read cache, optionally tiered, with branch heads in the head log
  /// `path`/heads.fbh (BranchTable::Attach). This is the stack the CLI and
  /// the server use, and the only open path; tests that need a bare
  /// backend construct ForkBase directly, with heads in memory.
  static StatusOr<std::unique_ptr<ForkBase>> Open(const std::string& path);
  static StatusOr<std::unique_ptr<ForkBase>> Open(const std::string& path,
                                                  const Config& config);

  ChunkStore* store() { return store_.get(); }
  const ChunkStore* store() const { return store_.get(); }
  /// The tiered layer of an Open stack opened with a cold tier
  /// (null otherwise) — the CLI surfaces its tier_stats() and tests drive
  /// flushes through it.
  TieredChunkStore* tiered() { return tiered_store_.get(); }
  const TieredChunkStore* tiered() const { return tiered_store_.get(); }
  BranchTable& branches() { return branch_table_; }
  /// The generation index of this instance's version DAG (in memory,
  /// refilled lazily after Open). Const readers fill it too: it is a cache
  /// of facts derived from immutable FNodes, safe to use concurrently.
  CommitGraph* commit_graph() const { return &commit_graph_; }

  // -- Writes ---------------------------------------------------------------

  /// Commits `value` as the new head of (key, branch). The branch is created
  /// on first Put. Returns the new version uid.
  StatusOr<Hash256> Put(const std::string& key, const Value& value,
                        const std::string& branch = kDefaultBranch,
                        const PutMeta& meta = PutMeta{});

  /// Conditional Put (compare-and-set): commits `value` with
  /// `expected_head` as its parent iff the branch head still equals
  /// `expected_head` when its commit group drains.
  /// kAlreadyExists when the head has moved — the server's COMMIT verb and
  /// optimistic clients retry from a fresh head.
  StatusOr<Hash256> PutIf(const std::string& key, const Value& value,
                          const Hash256& expected_head,
                          const std::string& branch = kDefaultBranch,
                          const PutMeta& meta = PutMeta{});

  /// Fast-forward publish: sets the head of (key, branch) to `target` iff
  /// it still equals `expected` (queue-ordered, so it cannot interleave
  /// with a drain). Returns `target` on success;
  /// kAlreadyExists when the head moved. Used by Merge's fast-forward path
  /// and by the sync server to apply pushed branch heads.
  StatusOr<Hash256> AdvanceHead(const std::string& key,
                                const std::string& branch,
                                const Hash256& expected,
                                const Hash256& target);

  /// Convenience typed writers: build the object, then Put.
  StatusOr<Hash256> PutBlob(const std::string& key, Slice bytes,
                            const std::string& branch = kDefaultBranch,
                            const PutMeta& meta = PutMeta{});
  StatusOr<Hash256> PutMap(
      const std::string& key,
      std::vector<std::pair<std::string, std::string>> kvs,
      const std::string& branch = kDefaultBranch,
      const PutMeta& meta = PutMeta{});
  StatusOr<Hash256> PutSet(const std::string& key,
                           std::vector<std::string> members,
                           const std::string& branch = kDefaultBranch,
                           const PutMeta& meta = PutMeta{});
  StatusOr<Hash256> PutList(const std::string& key,
                            const std::vector<std::string>& elements,
                            const std::string& branch = kDefaultBranch,
                            const PutMeta& meta = PutMeta{});
  /// Loads a CSV document as a table object (the demo's dataset load).
  StatusOr<Hash256> PutTableFromCsv(const std::string& key,
                                    const CsvDocument& doc,
                                    size_t key_column = 0,
                                    const std::string& branch = kDefaultBranch,
                                    const PutMeta& meta = PutMeta{});

  /// One-call functional updates: load the branch head, apply, commit.
  /// The object must already exist with the matching type.
  StatusOr<Hash256> UpdateMap(const std::string& key,
                              std::vector<KeyedOp> ops,
                              const std::string& branch = kDefaultBranch,
                              const PutMeta& meta = PutMeta{});
  StatusOr<Hash256> UpdateTableCell(const std::string& key, Slice row_key,
                                    size_t column, const std::string& value,
                                    const std::string& branch = kDefaultBranch,
                                    const PutMeta& meta = PutMeta{});
  StatusOr<Hash256> AppendBlob(const std::string& key, Slice bytes,
                               const std::string& branch = kDefaultBranch,
                               const PutMeta& meta = PutMeta{});
  StatusOr<Hash256> AppendList(const std::string& key,
                               const std::string& element,
                               const std::string& branch = kDefaultBranch,
                               const PutMeta& meta = PutMeta{});

  // -- Reads ----------------------------------------------------------------

  /// Value at the head of (key, branch).
  StatusOr<Value> Get(const std::string& key,
                      const std::string& branch = kDefaultBranch) const;
  /// Value of an explicit version.
  StatusOr<Value> GetVersion(const Hash256& uid) const;

  /// Typed accessors over heads (object handles share the store).
  StatusOr<FBlob> GetBlob(const std::string& key,
                          const std::string& branch = kDefaultBranch) const;
  StatusOr<FMap> GetMap(const std::string& key,
                        const std::string& branch = kDefaultBranch) const;
  StatusOr<FSet> GetSet(const std::string& key,
                        const std::string& branch = kDefaultBranch) const;
  StatusOr<FList> GetList(const std::string& key,
                          const std::string& branch = kDefaultBranch) const;
  StatusOr<FTable> GetTable(const std::string& key,
                            const std::string& branch = kDefaultBranch) const;

  /// Head uid of (key, branch).
  StatusOr<Hash256> Head(const std::string& key,
                         const std::string& branch = kDefaultBranch) const;
  /// All branch heads of a key (the demo's Latest view).
  StatusOr<std::vector<std::pair<std::string, Hash256>>> Latest(
      const std::string& key) const;
  /// True iff `uid` is the head of some branch of `key`.
  bool IsBranchHead(const std::string& key, const Hash256& uid) const;

  /// Version metadata (the demo's Meta view).
  StatusOr<VersionInfo> Meta(const Hash256& uid) const;

  /// First-parent history of (key, branch), newest first, up to `limit`.
  StatusOr<std::vector<VersionInfo>> History(
      const std::string& key, const std::string& branch = kDefaultBranch,
      size_t limit = SIZE_MAX) const;

  // -- Branch management ----------------------------------------------------

  /// Creates `new_branch` at the head of `from_branch`.
  Status Branch(const std::string& key, const std::string& new_branch,
                const std::string& from_branch = kDefaultBranch);
  /// Creates `new_branch` at an explicit version.
  Status BranchFromVersion(const std::string& key,
                           const std::string& new_branch, const Hash256& uid);
  Status RenameBranch(const std::string& key, const std::string& from,
                      const std::string& to);
  Status DeleteBranch(const std::string& key, const std::string& branch);
  StatusOr<std::vector<std::string>> ListBranches(const std::string& key) const;
  std::vector<std::string> ListKeys() const;

  // -- Diff & merge ---------------------------------------------------------

  /// Differential query between two branch heads of the same key (Fig. 5).
  StatusOr<ObjectDiff> Diff(const std::string& key,
                            const std::string& branch_a,
                            const std::string& branch_b) const;
  /// Differential query between two explicit versions.
  StatusOr<ObjectDiff> DiffVersions(const Hash256& uid_a,
                                    const Hash256& uid_b) const;

  /// Three-way merge of `src_branch` into `dst_branch` (Fig. 3): merges the
  /// values against the merge base (CommonAncestor) and commits an FNode
  /// with both heads as bases. Fast-forwards when possible.
  StatusOr<Hash256> Merge(const std::string& key,
                          const std::string& dst_branch,
                          const std::string& src_branch,
                          MergePolicy policy = MergePolicy::kStrict,
                          const PutMeta& meta = PutMeta{});

  /// Merge base of two versions: a maximal common ancestor (one no other
  /// common ancestor descends from), found by a generation-ordered paint
  /// walk over the commit graph. A criss-cross history can have several;
  /// the rule picks the one of highest generation, then the smallest uid,
  /// so every replica merges against the same base. kNotFound when the
  /// histories are disjoint.
  StatusOr<Hash256> CommonAncestor(const Hash256& a, const Hash256& b) const;

  // -- Integrity ------------------------------------------------------------

  /// Tamper-evidence check (§II-D): re-derives every hash covering the
  /// version — the FNode chunk itself, the full value POS-Tree, and every
  /// ancestor FNode chunk along the bases chain (listed by the commit
  /// graph, each loaded in batches and re-hashed against its uid).
  /// Any byte the storage provider altered yields kCorruption.
  Status Verify(const Hash256& uid) const;

  /// Storage + catalogue statistics.
  ForkBaseStats Stat() const;

  // -- Maintenance ------------------------------------------------------------

  /// GC write lease. Every writer (Put*, Update*, Append*, Merge, branch
  /// mutations) holds the lease in shared mode across its whole
  /// build→commit→publish span; the in-place sweeper (store/gc.h) takes it
  /// exclusively as the mark barrier and around erase batches. Shared
  /// acquisitions never block each other, so the lease costs writers one
  /// uncontended atomic except while a sweep's exclusive section runs.
  ///
  /// External code that writes chunks directly into store() and only later
  /// publishes them through ForkBase (e.g. bundle import) either holds the
  /// lease across both steps or holds a ChunkStore::PutPin for the span —
  /// the pin survives across threads and network frames where a lease
  /// cannot (see net/sync.cc and the upload pin in net/server.cc).
  std::shared_lock<std::shared_mutex> AcquireWriteLease() const {
    return std::shared_lock<std::shared_mutex>(gc_mu_);
  }
  /// Exclusive side of the lease: blocks until every in-flight writer has
  /// published, and holds out new writers until released.
  std::unique_lock<std::shared_mutex> ExcludeWriters() const {
    return std::unique_lock<std::shared_mutex>(gc_mu_);
  }

  /// Quiesces background segment maintenance: blocks until every scheduled
  /// rewrite in the underlying file store(s) — hot and cold — has
  /// completed. No-op for memory-backed instances.
  void WaitForMaintenance();

  /// Folds one in-place sweep's results into Stat() (called by
  /// SweepInPlace; exposed so external sweep drivers can report too).
  void RecordGcSweep(uint64_t swept_chunks, uint64_t swept_bytes);

  /// Scopes an in-place sweep (RAII, set by SweepInPlace). While a sweep
  /// is active, publishes that can re-point a branch at PRE-EXISTING
  /// history — BranchFromVersion, and AdvanceHead outside the commit path
  /// — validate that the target's full closure is still present and pin it
  /// against the remaining erase batches (see ResurrectionGuard in
  /// forkbase.cc). Commits never pay this: their targets are chunks they
  /// just put, which the sweep's pin already protects.
  class SweepScope {
   public:
    explicit SweepScope(ForkBase* db) : db_(db) {
      db_->gc_active_.fetch_add(1, std::memory_order_acq_rel);
    }
    ~SweepScope() { db_->gc_active_.fetch_sub(1, std::memory_order_acq_rel); }
    SweepScope(const SweepScope&) = delete;
    SweepScope& operator=(const SweepScope&) = delete;

   private:
    ForkBase* db_;
  };
  bool gc_sweep_active() const {
    return gc_active_.load(std::memory_order_acquire) > 0;
  }

  /// Lease-free body of Put for callers that ALREADY hold
  /// AcquireWriteLease() — shared_mutex does not support recursive shared
  /// locking (it can deadlock against a queued exclusive waiter), so code
  /// holding the lease must call this instead of the locking verb.
  StatusOr<Hash256> PutLeased(const std::string& key, const Value& value,
                              const std::string& branch = kDefaultBranch,
                              const PutMeta& meta = PutMeta{});

  /// Per-object statistics (the demo's Stat verb): value type, logical
  /// entry count and physical tree shape of a branch head.
  struct ObjectStat {
    ValueType type = ValueType::kNull;
    uint64_t entries = 0;  ///< map/set/list entries, blob bytes, table rows
    TreeShape shape;       ///< zeroed for primitives
  };
  StatusOr<ObjectStat> StatObject(
      const std::string& key,
      const std::string& branch = kDefaultBranch) const;

 private:
  /// `bases` nullopt = commit on top of the branch head at drain time
  /// (Put); explicit bases record a merge's or PutIf's parents, with
  /// `expected_head` as the drain-time precondition that the head has not
  /// moved (kAlreadyExists means recompute). Lands through commit_queue_.
  StatusOr<Hash256> Commit(const std::string& key, const Value& value,
                           std::optional<std::vector<Hash256>> bases,
                           const std::string& branch, const PutMeta& meta,
                           std::optional<Hash256> expected_head = {});
  Status VerifyValue(const Value& value) const;

  /// Open's flocks on its directories; declared first, so they are
  /// released only after every store below has closed.
  std::vector<DirLock> dir_locks_;
  std::shared_ptr<ChunkStore> store_;
  /// Set by Open for tiered stacks; aliases a layer inside store_'s
  /// decorator chain.
  std::shared_ptr<TieredChunkStore> tiered_store_;
  /// Raw aliases into store_'s decorator chain, set by Open so Stat() can
  /// fold every layer's counters into one surface. Null for directly
  /// constructed instances.
  CachingChunkStore* cache_store_ = nullptr;
  FileChunkStore* hot_file_store_ = nullptr;
  FileChunkStore* cold_file_store_ = nullptr;
  Config config_;
  BranchTable branch_table_;
  mutable CommitGraph commit_graph_;
  CommitQueue commit_queue_{store_.get(), &branch_table_, &commit_graph_};
  /// The GC write lease (see AcquireWriteLease). mutable: const readers
  /// never take it, but the lease getters are const so a const ForkBase&
  /// can still be swept against.
  mutable std::shared_mutex gc_mu_;
  std::atomic<int> gc_active_{0};  ///< in-place sweeps in progress
  std::atomic<uint64_t> gc_sweeps_{0};
  std::atomic<uint64_t> gc_swept_chunks_{0};
  std::atomic<uint64_t> gc_swept_bytes_{0};
};

/// Renders an ObjectDiff as the CLI's diff listing ("+ key", "- key",
/// "~ key cols: ...", "~ [a,b) -> [c,d)"), one delta per line. Shared by
/// the CLI `diff` command and the server's DIFF verb.
std::string FormatObjectDiff(const ObjectDiff& diff);

}  // namespace forkbase

#endif  // FORKBASE_STORE_FORKBASE_H_
