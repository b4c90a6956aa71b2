#include "store/commit_queue.h"

#include <algorithm>
#include <utility>

#include "store/fnode.h"

namespace forkbase {

CommitQueue::CommitQueue(ChunkStore* store, BranchTable* branches,
                         CommitGraph* graph)
    : store_(store), branches_(branches), graph_(graph) {}

StatusOr<Hash256> CommitQueue::Commit(Request req) {
  Entry entry;
  entry.req = std::move(req);
  return Enqueue(&entry);
}

StatusOr<Hash256> CommitQueue::AdvanceHead(const std::string& key,
                                           const std::string& branch,
                                           const Hash256& expected,
                                           const Hash256& target) {
  Entry entry;
  entry.req.key = key;
  entry.req.branch = branch;
  entry.advance = std::make_pair(expected, target);
  return Enqueue(&entry);
}

CommitQueue::Stats CommitQueue::stats() const {
  Stats s;
  s.commits = landed_commits_.load();
  s.batches = landed_batches_.load();
  s.advances = landed_advances_.load();
  return s;
}

StatusOr<Hash256> CommitQueue::Enqueue(Entry* entry) {
  std::unique_lock<std::mutex> lock(mu_);
  queue_.push_back(entry);
  if (leader_active_) {
    entry->cv.wait(lock, [entry] { return entry->done || entry->leader; });
    if (entry->done) return std::move(*entry->result);
  } else {
    leader_active_ = true;
  }
  // Leader. The queue front is this entry: a fresh leader found the queue
  // empty, and a retiring leader hands off to the front.
  const size_t n = std::min(queue_.size(), kMaxBatch);
  std::vector<Entry*> batch(queue_.begin(), queue_.begin() + n);
  queue_.erase(queue_.begin(), queue_.begin() + n);
  lock.unlock();

  Drain(batch);

  lock.lock();
  for (Entry* member : batch) {
    member->done = true;
    // Notified under mu_: the follower cannot return (and destroy its
    // entry) before the notify completes.
    if (member != entry) member->cv.notify_one();
  }
  if (queue_.empty()) {
    leader_active_ = false;
  } else {
    queue_.front()->leader = true;
    queue_.front()->cv.notify_one();
  }
  return std::move(*entry->result);
}

void CommitQueue::Drain(const std::vector<Entry*>& batch) {
  // Build the group's FNodes in enqueue order. Heads committed earlier in
  // this batch are visible to later requests through `uids` (the newest
  // landed entry of the same key and branch wins), even though nothing is
  // published to the branch table yet.
  std::vector<std::optional<Hash256>> uids(batch.size());  // nullopt=raced
  auto head_at_drain = [&](size_t i) -> std::optional<Hash256> {
    const Request& req = batch[i]->req;
    while (i-- > 0) {
      if (uids[i] && batch[i]->req.key == req.key &&
          batch[i]->req.branch == req.branch) {
        return uids[i];
      }
    }
    auto head = branches_->Head(req.key, req.branch);
    if (head.ok()) return *head;
    return std::nullopt;
  };

  std::vector<Chunk> chunks;  // commit entries only
  for (size_t i = 0; i < batch.size(); ++i) {
    Request& req = batch[i]->req;
    if (batch[i]->advance) {
      // Compare-and-advance: only valid if the head (including earlier
      // entries of this very batch) is still where the caller saw it.
      const auto& [expected, target] = *batch[i]->advance;
      auto current = head_at_drain(i);
      if (current && *current == expected) uids[i] = target;
      continue;
    }
    if (req.expected_head) {
      auto current = head_at_drain(i);
      if (!current || *current != *req.expected_head) {
        continue;  // raced: uids[i] stays empty, no chunk is written
      }
    }
    // The request is spent once its FNode is built; only key and branch
    // are read again (to publish the head).
    FNode node;
    node.key = req.key;
    node.value = std::move(req.value);
    if (req.bases) {
      node.bases = std::move(*req.bases);
    } else if (auto head = head_at_drain(i)) {
      node.bases.push_back(*head);
    }
    node.author = std::move(req.author);
    node.message = std::move(req.message);
    node.logical_time = ++clock_;
    Chunk chunk = node.ToChunk();
    uids[i] = chunk.hash();
    // A generation is a fact about the uid, not about what landed, so it
    // can be recorded before the group is written.
    graph_->Add(*uids[i], node.bases);
    chunks.push_back(std::move(chunk));
  }

  // One record run, one flush for the whole group; then one head-log
  // append publishes every head of the group in enqueue order.
  Status landed = store_->PutMany(chunks);
  if (landed.ok()) {
    std::vector<BranchTable::HeadUpdate> heads;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (uids[i]) heads.push_back({batch[i]->req.key, batch[i]->req.branch,
                                    *uids[i]});
    }
    landed = branches_->SetHeads(heads);
  }
  if (!landed.ok()) {
    // No head moved: every follower sees the same failure and no reader
    // can observe a head whose FNode (or log record) may not be on disk.
    // Advances fail too — applying them ahead of failed commits would
    // reorder publishes relative to enqueue order.
    for (Entry* entry : batch) entry->result = landed;
    return;
  }
  landed_batches_.fetch_add(1);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!uids[i]) {
      batch[i]->result = Status::AlreadyExists(
          "head moved past the expected version; recompute and retry");
      continue;
    }
    (batch[i]->advance ? landed_advances_ : landed_commits_).fetch_add(1);
    batch[i]->result = *uids[i];
  }
}

}  // namespace forkbase
