// BranchTable — per-key branch heads (the only mutable state in ForkBase).
//
// Everything else in the system is immutable and content-addressed; the
// branch table maps (key, branch) -> head uid and advances on Put/Merge.
// A table constructed on its own lives in memory; Attach() makes it durable
// in the head log DIR/heads.fbh, and this class is the only reader and
// writer of that format (docs/storage.md, "Branch heads"). Every mutation
// is appended to the log before it becomes visible. Writers serialize on
// write_mu_ across the append, so the log order is the apply order; readers
// take mu_ alone and never wait on a log write.
#ifndef FORKBASE_STORE_BRANCH_TABLE_H_
#define FORKBASE_STORE_BRANCH_TABLE_H_

#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "util/file_io.h"
#include "util/sha256.h"
#include "util/status.h"

namespace forkbase {

class BranchTable {
 public:
  /// Makes this (empty) table durable in `dir`: replays DIR/heads.fbh, or,
  /// when there is none, imports a legacy DIR/branches.tsv once and
  /// removes it. Appends are flushed to the OS, and fsynced when `fsync`.
  Status Attach(const std::string& dir, bool fsync);

  /// Writes every head as a fresh head log in `dir` (gc DEST_DIR).
  Status WriteSnapshot(const std::string& dir) const;

  /// Head uid of (key, branch); NotFound if absent.
  StatusOr<Hash256> Head(const std::string& key,
                         const std::string& branch) const;

  /// One head change; a null uid deletes the branch.
  struct HeadUpdate {
    std::string key;
    std::string branch;
    Hash256 uid;
  };
  /// Logs `updates` in one append, then applies them in order; when the
  /// append fails nothing moves. A commit group publishes through here.
  Status SetHeads(std::span<const HeadUpdate> updates);
  Status SetHead(const std::string& key, const std::string& branch,
                 const Hash256& uid);

  /// Creates `branch` at `uid`; AlreadyExists if it exists. Check and
  /// append are one step, so of two racing creators exactly one wins.
  Status Create(const std::string& key, const std::string& branch,
                const Hash256& uid);
  Status Rename(const std::string& key, const std::string& from,
                const std::string& to);
  Status Delete(const std::string& key, const std::string& branch);

  std::vector<std::string> Keys() const;
  /// (number of keys, number of live heads), read under one lock.
  std::pair<uint64_t, uint64_t> Count() const;
  /// Branches of a key, name-sorted.
  std::vector<std::string> Branches(const std::string& key) const;
  /// All (branch, head) pairs of a key.
  std::vector<std::pair<std::string, Hash256>> Heads(
      const std::string& key) const;

 private:
  /// NotFound names the missing key or branch. Callers hold mu_, or
  /// write_mu_ (only writers, which hold it, change heads_).
  StatusOr<Hash256> Lookup(const std::string& key,
                           const std::string& branch) const;
  Status LogAndApplyLocked(std::span<const HeadUpdate> updates);
  void ApplyLocked(const HeadUpdate& update);
  Status ImportTsvLocked(const std::string& path);
  std::string SnapshotLocked() const;
  /// Rewrites the log as a snapshot of the live heads.
  Status CompactLocked();

  mutable std::mutex write_mu_;
  bool durable_ = false;
  bool fsync_ = false;
  AppendFile log_;
  uint64_t log_records_ = 0;

  mutable std::mutex mu_;
  std::map<std::string, std::map<std::string, Hash256>> heads_;
  uint64_t live_ = 0;  ///< (key, branch) pairs in heads_
};

}  // namespace forkbase

#endif  // FORKBASE_STORE_BRANCH_TABLE_H_
