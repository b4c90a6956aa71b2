// PosTree — handle over an immutable POS-Tree rooted at a chunk id.
//
// All mutating operations are functional: they build a new tree (sharing
// unchanged chunks with the old one through the deduplicating store) and
// return its TreeInfo; the receiver is never modified. This is what makes
// every historical version permanently addressable.
#ifndef FORKBASE_POSTREE_TREE_H_
#define FORKBASE_POSTREE_TREE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chunk/chunk_store.h"
#include "postree/builder.h"
#include "postree/cursor.h"

namespace forkbase {

/// One keyed mutation: value present = upsert, absent = delete.
struct KeyedOp {
  std::string key;
  std::optional<std::string> value;
};

/// Structural statistics of a tree (drives Table I / ablation reporting).
struct TreeShape {
  uint64_t total_nodes = 0;
  uint64_t index_nodes = 0;
  uint64_t leaf_nodes = 0;
  uint64_t total_bytes = 0;  ///< sum of chunk sizes
  uint64_t entries = 0;
  uint32_t height = 0;
};

class PosTree {
 public:
  /// Wraps an existing root. `store` must outlive the tree.
  PosTree(const ChunkStore* store, ChunkType leaf_type, Hash256 root,
          TreeConfig config = TreeConfig::ForEntries());

  const Hash256& root() const { return root_; }
  ChunkType leaf_type() const { return leaf_type_; }
  const TreeConfig& config() const { return config_; }

  /// Builds a keyed tree (kMapLeaf/kSetLeaf) from (key, value) pairs whose
  /// keys are strictly ascending; for sets pass empty values. Any other
  /// order is InvalidArgument: Lookup and Diff rely on it.
  static StatusOr<TreeInfo> BuildKeyed(
      ChunkStore* store, ChunkType leaf_type,
      const std::vector<std::pair<std::string, std::string>>& sorted_kvs,
      TreeConfig config = TreeConfig::ForEntries());

  /// Builds a positional list tree from elements.
  static StatusOr<TreeInfo> BuildList(
      ChunkStore* store, const std::vector<std::string>& elements,
      TreeConfig config = TreeConfig::ForEntries());

  /// Builds a blob tree from raw bytes.
  static StatusOr<TreeInfo> BuildBlob(
      ChunkStore* store, Slice bytes, TreeConfig config = TreeConfig::ForBlob());

  /// Total leaf entries (blob: total bytes). O(1) chunk loads.
  StatusOr<uint64_t> Count() const;

  /// Point lookup in a keyed tree. nullopt when the key is absent; for sets
  /// the value is "" when present. O(log N).
  StatusOr<std::optional<std::string>> Lookup(Slice key) const;

  /// Element at `index` in a list tree. O(log N).
  StatusOr<std::string> Element(uint64_t index) const;

  /// Reads `len` bytes at `offset` from a blob tree.
  Status ReadBytes(uint64_t offset, uint64_t len, std::string* out) const;

  /// In-order scan of all entries (non-blob). The callback may return a
  /// non-OK status to stop early (it is propagated).
  Status Scan(const std::function<Status(const EntryView&)>& fn) const;

  /// Scans entries with begin <= key < end (keyed trees). An empty `end`
  /// means "to the last key". O(log N) seek + O(range) scan.
  Status ScanRange(Slice begin, Slice end,
                   const std::function<Status(const EntryView&)>& fn) const;

  /// Materializes all entries as (key, value) pairs (non-blob).
  StatusOr<std::vector<std::pair<std::string, std::string>>> Entries() const;

  /// Applies keyed ops given in any order (sorted and deduped by key, last
  /// wins), producing a new tree bit-identical to a from-scratch BuildKeyed
  /// of the result. Subtrees that hold no op are reused through their old
  /// index entry — never loaded, re-chunked or re-hashed — so the cost is
  /// O((changed leaves + resync) · height) chunk loads and writes, where
  /// resync is the few leaves after an edit that are streamed until a new
  /// node boundary meets an old one. The tree must have been built with
  /// config(), or reused nodes would not match a rebuild.
  StatusOr<TreeInfo> ApplyKeyedOps(std::vector<KeyedOp> ops) const;

  /// Positional splices still stream every entry of the old tree through a
  /// fresh builder: O(N) per call, whatever the size of the edit.
  ///
  /// Replaces `remove` elements at `start` with `inserts` (list trees).
  StatusOr<TreeInfo> SpliceElements(
      uint64_t start, uint64_t remove,
      const std::vector<std::string>& inserts) const;

  /// Replaces `remove` bytes at `offset` with `insert` (blob trees).
  StatusOr<TreeInfo> SpliceBytes(uint64_t offset, uint64_t remove,
                                 Slice insert) const;

  /// Full Merkle + structural validation in one batched level walk (see
  /// WalkLevels), read and re-hashed on the shared hash pool, so each
  /// reachable chunk is loaded once: every chunk re-hashes to its id; index
  /// nodes are non-empty with ascending split keys; each node's count and
  /// (keyed) max key equal its parent entry's count and split key; leaves
  /// are of leaf_type(), keys ascend across the whole tree, all leaves sit
  /// at one depth. `visit`, if set, sees each leaf entry (not blob bytes)
  /// in tree order within the same pass; an error it returns fails the
  /// validation.
  Status Validate(
      const std::function<Status(const EntryView&)>& visit = {}) const;

  /// Shape statistics from the same batched level walk; Corruption when
  /// leaves sit at several depths.
  StatusOr<TreeShape> Shape() const;

  /// Collects the ids of all reachable chunks in level order, root first
  /// (dedup accounting). A chunk referenced twice is listed twice.
  Status ReachableChunks(std::vector<Hash256>* out) const;

  /// The one batched tree walk (Validate, Shape, ReachableChunks, sequence
  /// diff): visits every node level by level from the root, each level read
  /// by one ForEachChunkBatch sweep on the hash pool and visited on the
  /// caller in order, so leaves arrive in tree order. `ref` is the node's
  /// parent index entry (the root's is {root, 0, ""}); `children` is an
  /// index node's parsed, non-empty entry list and empty for a leaf. With
  /// `verify_hashes` each run is hashed by the thread that reads it, and
  /// every chunk must re-hash to its id before it is visited.
  using NodeVisitor = std::function<Status(
      uint32_t depth, const IndexEntry& ref, const Chunk& node,
      const std::vector<IndexEntry>& children)>;
  Status WalkLevels(bool verify_hashes, const NodeVisitor& visit) const;

  /// The ids of the tree's leaves in key order, from the same level-by-level
  /// walk stopped above the leaves: each index node is read once, and of
  /// the leaves only the first, which shows that its level is the leaf
  /// level. An index node that is unreadable or malformed cuts its level
  /// there: `leaves` then holds every leaf before that node's subtree, and
  /// the error returned is the one a cursor walk meets right after them.
  Status LeafIds(std::vector<Hash256>* leaves) const;

  const ChunkStore* store() const { return store_; }

 private:
  const ChunkStore* store_;
  ChunkType leaf_type_;
  Hash256 root_;
  TreeConfig config_;
};

}  // namespace forkbase

#endif  // FORKBASE_POSTREE_TREE_H_
