#include "store/commit_graph.h"

#include <algorithm>
#include <mutex>
#include <queue>

#include "store/fnode.h"

namespace forkbase {

void CommitGraph::Add(const Hash256& uid, const std::vector<Hash256>& bases) {
  Entry entry{uid, 1, {}};
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (index_.count(uid)) return;
  for (const auto& base : bases) {
    auto it = index_.find(base);
    if (it == index_.end()) return;
    entry.bases.push_back(it->second);
    entry.generation =
        std::max(entry.generation, entries_[it->second].generation + 1);
  }
  index_.emplace(uid, static_cast<uint32_t>(entries_.size()));
  entries_.push_back(std::move(entry));
}

std::optional<CommitGraph::Node> CommitGraph::Find(const Hash256& uid) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = index_.find(uid);
  if (it == index_.end()) return std::nullopt;
  const Entry& entry = entries_[it->second];
  Node node{entry.generation, {}};
  for (uint32_t base : entry.bases) node.bases.push_back(entries_[base].uid);
  return node;
}

StatusOr<CommitGraph::Node> CommitGraph::Lookup(const ChunkStore& store,
                                                const Hash256& uid) {
  if (auto node = Find(uid)) return *node;
  // Depth-first on an explicit stack: a version is indexed once all its
  // bases are, and each FNode is loaded once however often it is revisited.
  std::unordered_map<Hash256, std::vector<Hash256>, Hash256Hasher> loaded;
  std::vector<Hash256> stack{uid};
  while (!stack.empty()) {
    const Hash256 current = stack.back();
    if (Find(current)) {
      stack.pop_back();
      continue;
    }
    auto it = loaded.find(current);
    if (it == loaded.end()) {
      FB_ASSIGN_OR_RETURN(FNode fnode, FNode::Load(&store, current));
      it = loaded.emplace(current, std::move(fnode.bases)).first;
    }
    bool ready = true;
    for (const auto& base : it->second) {
      if (!Find(base)) {
        ready = false;
        stack.push_back(base);
      }
    }
    if (ready) {
      Add(current, it->second);
      stack.pop_back();
    }
  }
  return *Find(uid);
}

StatusOr<std::vector<Hash256>> CommitGraph::Ancestors(const ChunkStore& store,
                                                      const Hash256& uid) {
  FB_RETURN_IF_ERROR(Lookup(store, uid).status());
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<bool> seen(entries_.size());
  std::vector<uint32_t> stack{index_.at(uid)};
  seen[stack.back()] = true;
  std::vector<Hash256> ancestors;
  while (!stack.empty()) {
    const Entry& entry = entries_[stack.back()];
    stack.pop_back();
    for (uint32_t base : entry.bases) {
      if (seen[base]) continue;
      seen[base] = true;
      ancestors.push_back(entries_[base].uid);
      stack.push_back(base);
    }
  }
  return ancestors;
}

namespace {

/// Paints flags down the bases DAG in descending generation order. A
/// version is queued on its first paint and popped once; by then every
/// queued-or-reachable version of higher generation has been popped, so
/// all paint that can reach it has. `stale` flags mark versions the caller
/// no longer needs to see: Done() holds once no queued version lacks them.
class PaintWalk {
 public:
  PaintWalk(const ChunkStore& store, CommitGraph* graph, uint8_t stale)
      : store_(store), graph_(graph), stale_(stale) {}

  struct Popped {
    Hash256 uid;
    uint8_t flags;
    const CommitGraph::Node* node;
  };

  /// Adds `flags` to `uid`, queueing it on its first paint.
  Status Paint(const Hash256& uid, uint8_t flags) {
    auto it = state_.find(uid);
    if (it == state_.end()) {
      FB_ASSIGN_OR_RETURN(CommitGraph::Node node, graph_->Lookup(store_, uid));
      heap_.push({node.generation, uid});
      state_.emplace(uid, State{flags, true, std::move(node)});
      if (!(flags & stale_)) ++interesting_;
      return Status::OK();
    }
    State& s = it->second;
    if (s.queued && !(s.flags & stale_) && (flags & stale_)) --interesting_;
    s.flags |= flags;
    return Status::OK();
  }

  Status PaintBases(const Popped& popped, uint8_t flags) {
    for (const auto& base : popped.node->bases) {
      FB_RETURN_IF_ERROR(Paint(base, flags));
    }
    return Status::OK();
  }

  bool Empty() const { return heap_.empty(); }
  bool Done() const { return interesting_ == 0; }

  Popped Pop() {
    const Hash256 uid = heap_.top().second;
    heap_.pop();
    State& s = state_.at(uid);
    s.queued = false;
    if (!(s.flags & stale_)) --interesting_;
    return Popped{uid, s.flags, &s.node};
  }

 private:
  struct State {
    uint8_t flags;
    bool queued;
    CommitGraph::Node node;
  };
  /// Max-heap on generation; among equals the smallest uid pops first.
  struct Order {
    bool operator()(const std::pair<uint64_t, Hash256>& a,
                    const std::pair<uint64_t, Hash256>& b) const {
      if (a.first != b.first) return a.first < b.first;
      return b.second < a.second;
    }
  };

  const ChunkStore& store_;
  CommitGraph* graph_;
  const uint8_t stale_;
  std::unordered_map<Hash256, State, Hash256Hasher> state_;
  std::priority_queue<std::pair<uint64_t, Hash256>,
                      std::vector<std::pair<uint64_t, Hash256>>, Order>
      heap_;
  size_t interesting_ = 0;
};

}  // namespace

StatusOr<std::vector<Hash256>> MergeBases(const ChunkStore& store,
                                          CommitGraph* graph,
                                          const Hash256& a, const Hash256& b) {
  if (a == b) return std::vector<Hash256>{a};
  constexpr uint8_t kLeft = 1, kRight = 2, kStale = 4;
  PaintWalk walk(store, graph, kStale);
  FB_RETURN_IF_ERROR(walk.Paint(a, kLeft));
  FB_RETURN_IF_ERROR(walk.Paint(b, kRight));
  std::vector<Hash256> bases;
  while (!walk.Done()) {
    auto popped = walk.Pop();
    uint8_t flags = popped.flags;
    if (flags == (kLeft | kRight)) {
      // Reached from both sides and from no common ancestor above it: a
      // maximal common ancestor. Everything under it is stale.
      bases.push_back(popped.uid);
      flags |= kStale;
    }
    FB_RETURN_IF_ERROR(walk.PaintBases(popped, flags));
  }
  return bases;
}

StatusOr<bool> HistoryContains(const ChunkStore& store, CommitGraph* graph,
                               const Hash256& head, const Hash256& target) {
  if (head == target) return true;
  FB_ASSIGN_OR_RETURN(CommitGraph::Node floor, graph->Lookup(store, target));
  PaintWalk walk(store, graph, /*stale=*/0);
  FB_RETURN_IF_ERROR(walk.Paint(head, 1));
  while (!walk.Empty()) {
    auto popped = walk.Pop();
    if (popped.node->generation <= floor.generation) break;
    for (const auto& base : popped.node->bases) {
      if (base == target) return true;
      FB_RETURN_IF_ERROR(walk.Paint(base, 1));
    }
  }
  return false;
}

StatusOr<std::vector<Hash256>> NewVersions(const ChunkStore& store,
                                           CommitGraph* graph,
                                           const std::vector<Hash256>& want,
                                           const std::vector<Hash256>& have) {
  constexpr uint8_t kWant = 1, kHave = 2;
  PaintWalk walk(store, graph, kHave);
  for (const auto& uid : have) FB_RETURN_IF_ERROR(walk.Paint(uid, kHave));
  for (const auto& uid : want) FB_RETURN_IF_ERROR(walk.Paint(uid, kWant));
  std::vector<Hash256> fresh;
  while (!walk.Done()) {
    auto popped = walk.Pop();
    if (popped.flags == kWant) fresh.push_back(popped.uid);
    FB_RETURN_IF_ERROR(walk.PaintBases(popped, popped.flags));
  }
  return fresh;
}

}  // namespace forkbase
