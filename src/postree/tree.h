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
#include "util/worker_pool.h"

namespace forkbase {

/// One keyed mutation: value present = upsert, absent = delete.
struct KeyedOp {
  std::string key;
  std::optional<std::string> value;
};

/// Which leaves a leaf walk (PosTree::LeafIds, PosTree::WalkLeaves) keeps:
/// every leaf by default. Keys(begin, end) keeps the leaves that may hold a
/// key in [begin, end), an empty `end` meaning no upper bound, and
/// Positions(begin, end) the leaves that hold the entries (blob: bytes) at
/// positions [begin, end). The walk prunes at every index level, by split
/// key or by IndexEntry::count, so a range costs O(height + leaves in it)
/// chunk reads. A kept leaf may also hold entries outside the range; the
/// caller filters those.
struct LeafRange {
  enum class Kind : uint8_t { kAll, kKeys, kPositions };
  Kind kind = Kind::kAll;
  Slice begin_key, end_key;
  uint64_t begin = 0, end = 0;

  static LeafRange Keys(Slice begin, Slice end) {
    return LeafRange{Kind::kKeys, begin, end, 0, 0};
  }
  static LeafRange Positions(uint64_t begin, uint64_t end) {
    return LeafRange{Kind::kPositions, Slice(), Slice(), begin, end};
  }
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

  /// Total leaf entries (blob: total bytes). O(1) chunk loads: the root's
  /// counts, summed in place.
  StatusOr<uint64_t> Count() const;

  /// Point lookup in a keyed tree. nullopt when the key is absent; for sets
  /// the value is "" when present. O(log N) chunk loads, one per level.
  /// Each node on the path is searched in place, with no per-entry
  /// allocation: the first child whose split key is >= `key`, then the
  /// leaf entry equal to it. Only the child id and the returned value are
  /// copied. The whole node is still decoded, so a node that is malformed
  /// anywhere fails Corruption ("malformed index node" / "malformed leaf
  /// payload"), even past the entry searched for.
  StatusOr<std::optional<std::string>> Lookup(Slice key) const;

  /// Element at `index` in a list tree (blob: the byte there), found by the
  /// index entries' counts. O(log N) chunk loads, each node searched in
  /// place and decoded whole, as for Lookup. NotFound past the end.
  StatusOr<std::string> Element(uint64_t index) const;

  /// Reads up to `len` bytes at `offset` from a blob tree: fewer when the
  /// blob ends first, none at or past its end. Walks only the leaves that
  /// hold the range (WalkLeaves with a position range).
  Status ReadBytes(uint64_t offset, uint64_t len, std::string* out) const;

  /// In-order scan of all entries (non-blob), on the calling thread, while
  /// the leaf walk (WalkLeaves) reads ahead on the hash pool. The callback
  /// may return a non-OK status to stop early (it is propagated). An early
  /// stop does not make the walk cheaper up front: it has already read
  /// every index node above the leaves, and up to two rounds of leaves
  /// (2 * kWalkRoundRuns * kWalkRunLeaves) past the one consumed.
  Status Scan(const std::function<Status(const EntryView&)>& fn) const;

  /// Scans entries with begin <= key < end (keyed trees). An empty `end`
  /// means "to the last key"; begin >= a non-empty end is an empty range.
  /// The walk reads O(height + leaves in range) chunks, and it lists the
  /// whole range's leaf ids before the first callback: with an empty `end`
  /// the range is the whole tail, so a seek that stops after a few entries
  /// still reads every index node of the tail and up to two rounds of
  /// leaves ahead, as for Scan.
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

  /// Positional splices still stream every entry of the old tree, read by
  /// the leaf walk, through a fresh builder: O(N) per call, whatever the
  /// size of the edit.
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

  /// The ids of the tree's leaves in `range`, in key order, from a
  /// level-by-level walk stopped above the leaves: each kept index node is
  /// read once (a level in ForEachChunkBatch sweeps), and of the leaves
  /// only the first, which shows that its level is the leaf level. An index
  /// node that is unreadable or malformed cuts its level there: `leaves`
  /// then holds every kept leaf before that node's subtree, and the error
  /// returned is the one a serial depth-first walk meets right after them.
  /// `first`, if set, receives the position of the first kept leaf (its
  /// first entry's ordinal; blob: byte offset), and `head`, if set, that
  /// leaf's chunk, which the walk then need not read again.
  Status LeafIds(std::vector<Hash256>* leaves, const LeafRange& range = {},
                 uint64_t* first = nullptr,
                 std::optional<Chunk>* head = nullptr) const;

  /// One run of consecutive leaves of a walk, read by the thread that
  /// claims it with one GetMany: each leaf checked to be a leaf chunk and
  /// parsed (blob leaves are not entry-parsed).
  struct LeafRun {
    std::vector<Chunk> leaves;       ///< own the bytes `entries` view
    std::vector<EntryView> entries;  ///< the leaves' entries, in order
    Status status;  ///< the error the run stops at, after the above
  };
  /// Leaves per run, and runs per round of the ordered fan-out.
  static constexpr size_t kWalkRunLeaves = 16;
  static constexpr size_t kWalkRoundRuns = 8;

  /// The one leaf walk (Scan, ScanRange, ReadBytes, the splices, the table
  /// row walk): the leaves of `range` from LeafIds, read in runs of
  /// kWalkRunLeaves on the ordered fan-out (OrderedFanOut), at most two
  /// rounds of kWalkRoundRuns runs ahead of the caller. `Run` is LeafRun
  /// or a type derived from it. `split`, if set, runs on the claiming
  /// thread after the run is parsed, to derive more per-entry data; to
  /// fail at entry k it truncates `entries` to k and sets `status`.
  /// `consume` runs on the calling thread, strictly in leaf order; its
  /// first non-OK status stops the walk and is returned. A run's `status`
  /// stops the walk after the run is consumed, and so does an index error
  /// from LeafIds after every leaf before it. `first` is as for LeafIds
  /// and is set before the first consume.
  template <typename Run = LeafRun>
  Status WalkLeaves(const LeafRange& range,
                    const std::function<void(Run*)>& split,
                    const std::function<Status(Run&)>& consume,
                    uint64_t* first = nullptr) const;

  const ChunkStore* store() const { return store_; }

 private:
  /// Reads leaves `ids` into `run` (see LeafRun). `head`, if set, is
  /// leaf ids[0], already read.
  void ReadLeafRun(std::span<const Hash256> ids, const Chunk* head,
                   LeafRun* run) const;

  const ChunkStore* store_;
  ChunkType leaf_type_;
  Hash256 root_;
  TreeConfig config_;
};

template <typename Run>
Status PosTree::WalkLeaves(const LeafRange& range,
                           const std::function<void(Run*)>& split,
                           const std::function<Status(Run&)>& consume,
                           uint64_t* first) const {
  std::vector<Hash256> leaves;
  std::optional<Chunk> head;
  const Status index_status = LeafIds(&leaves, range, first, &head);
  const std::span<const Hash256> ids(leaves);
  FB_RETURN_IF_ERROR(OrderedFanOut<Run>(
      SharedHashPool(), (ids.size() + kWalkRunLeaves - 1) / kWalkRunLeaves,
      kWalkRoundRuns,
      [&](size_t r, Run* run) {
        const size_t begin = r * kWalkRunLeaves;
        ReadLeafRun(
            ids.subspan(begin, std::min(kWalkRunLeaves, ids.size() - begin)),
            r == 0 && head ? &*head : nullptr, run);
        if (split) split(run);
      },
      [&](size_t, Run& run) -> Status {
        FB_RETURN_IF_ERROR(consume(run));
        return run.status;
      }));
  return index_status;
}

}  // namespace forkbase

#endif  // FORKBASE_POSTREE_TREE_H_
