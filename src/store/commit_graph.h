// Commit graph — an in-memory generation index over the version DAG.
//
// Every FNode names its bases, so the version history is a DAG whose edges
// point at older versions. Following git's commit-graph design
// (Documentation/technical/commit-graph.txt), each version gets a
// generation number: 1 for a version without bases, otherwise 1 + the
// largest generation among its bases. A version can only be an ancestor of
// versions with a strictly higher generation, which is what lets the walks
// below stop early instead of reading all of history:
//
//   * MergeBases paints down from two heads in descending generation order
//     (git's paint_down_to_common) and stops once every queued version is
//     known to sit below a common ancestor;
//   * HistoryContains never descends below the target's generation;
//   * NewVersions paints `want` against `have` and stops once every queued
//     version is reachable from `have` — the FNode half of a sync delta;
//   * Ancestors lists a version's history without loading it, so Verify can
//     read those FNodes in batches (it still loads and re-hashes each).
//
// The index lives in memory only and is insert-only. The commit path
// records each version it lands; any other version is filled lazily on
// first lookup by loading FNodes (an iterative walk down to known versions
// or roots), so a freshly opened store pays one history walk, once. A
// generation is a pure function of a uid's history, so an entry is never
// stale — but it says nothing about whether the FNode (or anything under
// it) is still present in a store: presence is only ever established by
// loading chunks.
#ifndef FORKBASE_STORE_COMMIT_GRAPH_H_
#define FORKBASE_STORE_COMMIT_GRAPH_H_

#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "chunk/chunk_store.h"

namespace forkbase {

class CommitGraph {
 public:
  struct Node {
    uint64_t generation = 0;
    std::vector<Hash256> bases;
  };

  /// Records a version whose bases are all indexed already (the commit
  /// path). Records nothing otherwise — a later Lookup fills it.
  void Add(const Hash256& uid, const std::vector<Hash256>& bases);

  /// The node of `uid`. On a miss, loads the missing FNodes from `store`
  /// (no recursion) and indexes them. Fails like FNode::Load when some
  /// FNode on the way is absent or corrupt.
  StatusOr<Node> Lookup(const ChunkStore& store, const Hash256& uid);

  /// Every proper ancestor of `uid`, each once, indexing `uid` first like
  /// Lookup. An indexed version's bases are always indexed too, so the
  /// walk itself loads nothing.
  StatusOr<std::vector<Hash256>> Ancestors(const ChunkStore& store,
                                           const Hash256& uid);

 private:
  /// Versions live in an append-only arena and name their bases by arena
  /// index, so a walk over the index hashes nothing.
  struct Entry {
    Hash256 uid;
    uint64_t generation;
    std::vector<uint32_t> bases;
  };

  std::optional<Node> Find(const Hash256& uid) const;

  mutable std::shared_mutex mu_;
  std::unordered_map<Hash256, uint32_t, Hash256Hasher> index_;
  std::vector<Entry> entries_;
};

/// The maximal common ancestors of `a` and `b` (a version counts as its own
/// ancestor), ordered by descending generation, ties by ascending uid.
/// Empty when the two histories are disjoint.
StatusOr<std::vector<Hash256>> MergeBases(const ChunkStore& store,
                                          CommitGraph* graph,
                                          const Hash256& a, const Hash256& b);

/// True iff `target` is `head` or one of its ancestors. Expands no version
/// whose generation is at or below the target's.
StatusOr<bool> HistoryContains(const ChunkStore& store, CommitGraph* graph,
                               const Hash256& head, const Hash256& target);

/// The versions reachable from `want` but not from `have`, by descending
/// generation (ties by ascending uid). Every uid must name an FNode.
StatusOr<std::vector<Hash256>> NewVersions(const ChunkStore& store,
                                           CommitGraph* graph,
                                           const std::vector<Hash256>& want,
                                           const std::vector<Hash256>& have);

}  // namespace forkbase

#endif  // FORKBASE_STORE_COMMIT_GRAPH_H_
