// Group-commit queue — the one write path of every ForkBase.
//
// Leader/follower group commit in the style of RocksDB's WriteThread: a
// ForkBase::Commit call enqueues its request; the caller that finds no
// active leader becomes the leader, takes the group queued at that moment
// (up to kMaxBatch entries, its own first), and drains it on its own
// thread: builds the FNode chunks in enqueue order, lands them with ONE
// ChunkStore::PutMany — on FileChunkStore that is one record run, one
// fwrite and one flush for the whole group — then publishes the branch
// heads in the same order through one BranchTable::SetHeads (one head-log
// append for the group), wakes every follower of the group with its
// result, and hands leadership to the oldest waiting entry. Callers that
// arrive while a leader is draining wait and land together in the next
// group. A lone writer leads a group of one and never waits; the queue
// owns no thread.
//
// Two semantic consequences:
//   * same-branch chaining: a Put enqueued without explicit bases resolves
//     its parent at drain time, against heads that include earlier commits
//     of the same group — so N racing Puts to one branch form a chain of N
//     versions instead of racing read-modify-write and losing updates;
//   * durability order: heads are logged and published only after PutMany
//     returned, and PutMany flushes before returning, so a crash never
//     leaves a head pointing at an unwritten FNode, at one flush per group
//     plus one head-log append.
#ifndef FORKBASE_STORE_COMMIT_QUEUE_H_
#define FORKBASE_STORE_COMMIT_QUEUE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "chunk/chunk_store.h"
#include "store/branch_table.h"
#include "store/commit_graph.h"
#include "types/value.h"

namespace forkbase {

class CommitQueue {
 public:
  struct Request {
    std::string key;
    Value value;
    /// Explicit parent uids (Merge passes both heads). nullopt = resolve
    /// the branch head at drain time (Put), which is what chains racing
    /// same-branch commits.
    std::optional<std::vector<Hash256>> bases;
    /// Precondition for explicit-bases commits: only land if the branch
    /// head at drain time still equals this (Merge's dst head — the value
    /// it merged against — or PutIf's expected head). On mismatch the
    /// entry fails with kAlreadyExists and the caller recomputes, so a
    /// merge can never orphan a commit that landed after its head read.
    std::optional<Hash256> expected_head;
    std::string branch;
    std::string author;
    std::string message;
  };

  /// Max entries (FNodes plus head advances) landed per group.
  static constexpr size_t kMaxBatch = 128;

  /// Every pointer is borrowed from the owning ForkBase and must outlive
  /// the queue. Each version a drain builds is recorded in `graph`.
  CommitQueue(ChunkStore* store, BranchTable* branches, CommitGraph* graph);

  /// Enqueues and blocks until the group containing this request is
  /// durably written and its head published — leading that group when no
  /// other caller is. Returns the version uid.
  StatusOr<Hash256> Commit(Request req);

  /// Queue-ordered compare-and-advance of a branch head: publishes
  /// `target` iff the head at drain time still equals `expected`. This is
  /// the fast-forward path of Merge — routed through the queue so it
  /// cannot interleave with a drain and silently discard a commit that is
  /// being landed. Returns `target` on success; kAlreadyExists when the
  /// head moved (the caller recomputes its merge and retries).
  StatusOr<Hash256> AdvanceHead(const std::string& key,
                                const std::string& branch,
                                const Hash256& expected,
                                const Hash256& target);

  /// Group-commit counters, folded into ForkBaseStats by ForkBase::Stat().
  struct Stats {
    uint64_t commits = 0;   ///< commit entries durably landed
    uint64_t batches = 0;   ///< drain groups (PutMany runs) that landed
    uint64_t advances = 0;  ///< AdvanceHead entries applied
  };
  Stats stats() const;

 private:
  /// Lives on its caller's stack for the duration of Enqueue.
  struct Entry {
    Request req;
    /// Set for AdvanceHead entries: (expected, target). Such entries
    /// write no chunk; they only participate in head-publish ordering.
    std::optional<std::pair<Hash256, Hash256>> advance;
    /// Written by the group's leader before it sets `done`.
    std::optional<StatusOr<Hash256>> result;
    bool done = false;    ///< guarded by mu_: the group landed (or failed)
    bool leader = false;  ///< guarded by mu_: leadership was handed here
    std::condition_variable cv;
  };

  StatusOr<Hash256> Enqueue(Entry* entry);

  /// Lands one group and fills every entry's `result`. Runs on the
  /// leader's thread, outside mu_; only one drain runs at a time.
  void Drain(const std::vector<Entry*>& batch);

  ChunkStore* const store_;
  BranchTable* const branches_;
  CommitGraph* const graph_;
  /// Logical commit clock. Only the current leader touches it; the
  /// leadership handoff under mu_ orders successive drains.
  uint64_t clock_ = 0;

  std::mutex mu_;
  std::deque<Entry*> queue_;
  bool leader_active_ = false;

  std::atomic<uint64_t> landed_commits_{0};
  std::atomic<uint64_t> landed_batches_{0};
  std::atomic<uint64_t> landed_advances_{0};
};

}  // namespace forkbase

#endif  // FORKBASE_STORE_COMMIT_QUEUE_H_
