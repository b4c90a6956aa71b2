// DirtyManifest — a crash-safe journal of write-back's dirty chunk ids.
//
// Write-back tiering acknowledges a Put once the chunk lands in the hot
// tier; the promise that it will eventually reach the cold tier used to
// live only in memory, so a crash (or a failed close-time flush) silently
// abandoned it. The manifest makes that promise durable: the tiered store
// appends a MARK record when a chunk becomes dirty and a CLEAR record once
// its demotion lands, and a reopening store replays the journal to resume
// demotion exactly where the crash left it.
//
// On-disk format (one file, `dirty-manifest.fbm`, beside the hot segments):
//   [magic u32][op u8][hash 32B]    op: 'D' = mark dirty, 'C' = mark clean
// Append-only through AppendFile (util/file_io.h); ReplayJournal finds a
// torn tail (a partial record after a crash) by the magic/size check and
// truncates it away on open. Every append run is flushed to the OS before
// the corresponding Put returns, so an acknowledged dirty chunk is never
// missing from the journal after a process crash.
//
// The journal self-compacts: once the record count is dominated by
// MARK/CLEAR churn (records > 2x the live dirty set + a floor), it is
// rewritten as a fresh file holding only the live marks and swapped in by
// AtomicReplaceFile (tmp + fsync + rename + directory fsync) — so a
// long-lived write-back store's manifest stays proportional to its dirty
// set, not its write history.
//
// Thread-safe; all operations serialize on one internal mutex (manifest
// appends are tiny next to the chunk I/O they ride behind).
#ifndef FORKBASE_CHUNK_DIRTY_MANIFEST_H_
#define FORKBASE_CHUNK_DIRTY_MANIFEST_H_

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "chunk/chunk.h"
#include "util/file_io.h"
#include "util/status.h"

namespace forkbase {

class DirtyManifest {
 public:
  /// Opens (creating if needed) the manifest in `dir`, replaying any
  /// existing journal. `existed()` tells a caller whether this is a fresh
  /// file — the signal to fall back to hot-vs-cold reconciliation.
  static StatusOr<std::unique_ptr<DirtyManifest>> Open(
      const std::string& dir);

  /// False when Open created the file: there was no journal to replay, so
  /// the replayed dirty set is empty *by absence*, not by knowledge.
  bool existed() const { return existed_; }

  /// Journals `ids` as dirty (idempotent per id) and flushes.
  Status MarkDirty(std::span<const Hash256> ids);
  /// Journals `ids` as demoted (idempotent) and flushes; compacts the
  /// journal when churn dominates the live set.
  Status MarkClean(std::span<const Hash256> ids);

  /// The dirty set as currently journaled.
  std::vector<Hash256> DirtyIds() const;
  size_t dirty_count() const;
  /// Total journal records since the last compaction (observability).
  uint64_t record_count() const;
  uint64_t compactions() const;

  const std::string& path() const { return path_; }

 private:
  explicit DirtyManifest(std::string path);
  Status Replay();
  Status AppendLocked(char op, std::span<const Hash256> ids, size_t count);
  Status CompactLocked();

  const std::string path_;
  bool existed_ = false;

  mutable std::mutex mu_;
  AppendFile file_;
  std::unordered_set<Hash256, Hash256Hasher> dirty_;
  uint64_t compactions_ = 0;
};

}  // namespace forkbase

#endif  // FORKBASE_CHUNK_DIRTY_MANIFEST_H_
