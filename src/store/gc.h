// Garbage collection for the content-addressed chunk space.
//
// ForkBase never mutates or deletes chunks in the hot path — immutability is
// the source of its guarantees — but deleted branches and abandoned objects
// eventually leave unreachable chunks behind. Two collectors share one mark
// phase (every branch head, full derivation history):
//
//   * CopyLive streams the live set into a destination store. It composes
//     with every ChunkStore backend (no delete API needed) and is trivially
//     crash-safe — the source is read-only throughout — but needs a second
//     store's worth of disk and a switchover.
//
//   * SweepInPlace erases the garbage out of the store that holds it, in
//     batches, while the database stays open for writers. It requires
//     SupportsErase() (callers fall back to CopyLive otherwise) and leans
//     on two mechanisms for safety against racing commits:
//
//       pin    — a ChunkStore::PutPin registered before the candidate
//                snapshot records every chunk put during the sweep (dedup
//                hits included), and the erase loop skips recorded ids: a
//                chunk re-put after the mark is never erased.
//       lease  — every ForkBase writer holds the GC write lease (shared)
//                across build→commit→publish. The sweep takes it
//                exclusively once as its epoch barrier (all pre-pin
//                writers have published; later puts are pin-visible), and
//                again around each erase batch, re-checking the branch
//                heads so a branch re-pointed at swept history (e.g.
//                BranchFromVersion) is re-marked instead of corrupted.
//
//     Code that writes chunks directly into the store and publishes them
//     through ForkBase only later (bundle uploads) closes the same gap
//     `git prune` has with a quarantine: hold a ChunkStore::PutPin for the
//     whole import→publish span — the erase loop skips ids in ANY live
//     pin, and a pin (unlike the lease) survives across threads and
//     network frames (see the upload pin in net/server.cc). Publishes that
//     re-point a branch at pre-existing history with no put at all
//     (BranchFromVersion, sync fast-forwards) are validated and pinned at
//     publish time while a sweep is active (PinReachableForSweep in
//     forkbase.cc).
#ifndef FORKBASE_STORE_GC_H_
#define FORKBASE_STORE_GC_H_

#include <functional>
#include <unordered_set>
#include <vector>

#include "store/forkbase.h"

namespace forkbase {

/// Live-set and sweep accounting. Snapshot semantics: `total_*` count the
/// candidate snapshot taken at mark time and `live_*` the part of that
/// snapshot the mark reached — chunks put by commits racing the sweep are
/// in neither, so the two sides move independently and `live` can
/// legitimately exceed a stale `total` (e.g. CopyLive's destination totals
/// while a writer appends). The garbage getters clamp at zero instead of
/// wrapping.
struct GcStats {
  uint64_t roots = 0;
  uint64_t live_chunks = 0;
  uint64_t live_bytes = 0;
  uint64_t total_chunks = 0;  ///< chunks in the mark-time snapshot
  uint64_t total_bytes = 0;
  uint64_t swept_chunks = 0;  ///< erased by SweepInPlace (0 for CopyLive)
  uint64_t swept_bytes = 0;
  /// Garbage ids spared because a racing commit re-put them after the
  /// mark snapshot (the pin); they are candidates for the next sweep.
  uint64_t pinned_skipped = 0;
  uint64_t garbage_chunks() const {
    return total_chunks > live_chunks ? total_chunks - live_chunks : 0;
  }
  uint64_t garbage_bytes() const {
    return total_bytes > live_bytes ? total_bytes - live_bytes : 0;
  }
};

/// Appends the ids a value-tree chunk references: an index node's children,
/// a table header's rows root. Leaves, cells and FNodes append nothing.
Status AppendTreeChildren(const Chunk& chunk, std::vector<Hash256>* out);

/// Computes every chunk reachable from `roots` in `store`: FNodes pull in
/// their bases (history) and their value trees; trees pull in all pages;
/// tables pull in header + row tree. Unknown root ids are an error. This
/// walks all of history — the GC mark. Sync computes its deltas with the
/// history-independent DeltaClosure (store/bundle.h) instead.
///
/// `exclude` (optional) prunes the walk: ids in the set are neither
/// loaded, expanded nor returned — the frontier stops at them (GC uses it
/// to re-mark only what a moved head added). Roots that are themselves
/// excluded are skipped, not errors.
///
/// `visit` (optional) is called exactly once per returned chunk, with the
/// loaded bytes, during the walk — so a caller that needs the live chunks'
/// contents (CopyLive) reads the store once instead of mark + re-fetch.
StatusOr<std::unordered_set<Hash256, Hash256Hasher>> MarkLive(
    const ChunkStore& store, const std::vector<Hash256>& roots,
    const std::unordered_set<Hash256, Hash256Hasher>* exclude = nullptr,
    const std::function<Status(const Chunk&)>& visit = nullptr);

/// Adds to `live` every chunk some member of `live` PHYSICALLY depends on:
/// delta-encoded stores resolve a chain-resident chunk through its base
/// record, so erasing the base would force the store to rewrite every
/// dependent at erase time (the flatten backstop) — or, absent that, strand
/// the chain. Deliberately NOT part of MarkLive: physical bases are a
/// property of one store's representation, not of logical reachability, and
/// folding them into the mark would pollute the bundle/sync delta closures
/// and CopyLive's copy set (a base's own children are not logically live).
/// Returns the number of ids added. No-op (0) on stores without delta
/// records.
size_t ExpandPhysicalBases(const ChunkStore& store,
                           std::unordered_set<Hash256, Hash256Hasher>* live);

/// Marks from all branch heads of `db` (with full history) and copies the
/// live set into `dst`. Returns accounting for both sides. `dst` may be
/// non-empty; Put is idempotent. The live set is read exactly once (the
/// mark loads each chunk; the copy rides that read), and the source totals
/// come from an index walk — no chunk body is fetched twice.
StatusOr<GcStats> CopyLive(const ForkBase& db, ChunkStore* dst);

/// Lists the garbage (unreachable) chunk ids of `db`'s store. Pure index
/// walk on the total side: only live chunks are ever loaded.
StatusOr<std::vector<Hash256>> FindGarbage(const ForkBase& db);

/// In-place sweep knobs.
struct SweepOptions {
  /// Ids per Erase call (and per exclusive-lease window: writers can run
  /// between batches, so smaller batches trade throughput for latency).
  size_t erase_batch = kChunkSweepBatch;
  /// Block until the segment rewrites the erases triggered have finished,
  /// so space_used() reflects the reclaim when the call returns.
  bool wait_for_maintenance = true;
};

/// Erases every unreachable chunk out of `db`'s store, in place, while the
/// database stays open: mark from all branch heads, then batched Erase on
/// the garbage, safe against racing commits (see the pin/lease contract at
/// the top of this header). On tiered stores the erase is tier-aware:
/// dirty hot-resident garbage is evicted without ever being demoted, and
/// cold-tier erases feed the cold store's segment live-ratio accounting.
/// Returns kUnimplemented when the store cannot erase — fall back to
/// CopyLive. Stats: `swept_*` is what this call reclaimed; `garbage_*`
/// minus `swept_*` is what the pin spared.
StatusOr<GcStats> SweepInPlace(ForkBase* db,
                               const SweepOptions& options = SweepOptions{});

}  // namespace forkbase

#endif  // FORKBASE_STORE_GC_H_
