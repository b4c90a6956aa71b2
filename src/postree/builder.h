// Bottom-up POS-Tree builder.
//
// Entries stream in sorted (keyed trees) or positional order; the builder
// feeds their serialized bytes through a NodeSplitter per level. When a node
// closes it is written to the chunk store as an immutable chunk and an index
// entry `(child hash, subtree count, split key)` is pushed into the level
// above, which is chunked by the same mechanism — recursively up to a single
// root. Because no state other than the entry stream influences boundaries,
// any two builds of the same record set yield bit-identical chunks
// (structural invariance), and builds of overlapping record sets share all
// chunks outside the divergence region (recursive identity): the chunk
// store's idempotent Put turns that sharing into physical deduplication.
// Incremental updates go further: AddSubtree hands the builder a whole
// untouched subtree of an earlier build as its index entry, which is what a
// re-stream of its entries would have produced (see PosTree::ApplyKeyedOps).
// Bulk loads go wide: AddEntries splits fixed-size segments of a random-
// access entry source in parallel, each from a fresh node start, and
// stitches the segment seams back onto the one chain a stream would cut.
#ifndef FORKBASE_POSTREE_BUILDER_H_
#define FORKBASE_POSTREE_BUILDER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chunk/chunk_store.h"
#include "postree/node.h"
#include "postree/splitter.h"

namespace forkbase {

/// Identity and shape of a finished tree.
struct TreeInfo {
  Hash256 root;        ///< root chunk id (the Merkle root)
  uint64_t count = 0;  ///< total leaf entries (blob: bytes)
  uint32_t height = 1; ///< 1 = a single leaf node
  uint64_t nodes_written = 0;  ///< chunks produced by this build
};

/// Splitter configuration for leaf and index levels.
struct TreeConfig {
  SplitConfig leaf = SplitConfig::Entries();
  SplitConfig index = SplitConfig::Entries();

  static TreeConfig ForBlob() {
    TreeConfig c;
    c.leaf = SplitConfig::Blob();
    return c;
  }
  static TreeConfig ForEntries() { return TreeConfig{}; }
};

/// Streaming builder. Usage: construct, Add*() in order, Finish().
class TreeBuilder {
 public:
  /// @param store      destination for produced chunks (not owned)
  /// @param leaf_type  kMapLeaf / kSetLeaf / kListLeaf / kBlobLeaf
  TreeBuilder(ChunkStore* store, ChunkType leaf_type, TreeConfig config);

  /// Appends one pre-serialized entry. `key` must be the entry's sort key
  /// (empty for positional trees); keys must arrive in strictly ascending
  /// order for keyed trees (not checked here — callers own ordering).
  Status AddEntry(Slice entry_bytes, Slice key);

  /// Random-access entry source of a bulk load: appends entry `i`'s
  /// serialized bytes to `*out` and returns its sort key (empty for
  /// positional trees). The key must stay valid until AddEntries returns.
  /// Called concurrently, from pool threads, for distinct `i`.
  using EntryEncoder = std::function<Slice(size_t i, std::string* out)>;

  /// Appends entries 0..n-1 of `encode`: the same chunks, put in the same
  /// order, as n AddEntry calls. The leaf level is built in segments of
  /// kBulkSegmentEntries entries on the ordered fan-out (OrderedFanOut):
  /// the caller and SharedHashPool() helpers claim segments, and each one
  /// encodes, splits from a fresh node start, and makes and hashes its
  /// leaves. The caller stitches the segments in order, re-splitting from
  /// the open node until it closes on a node start the segment produced,
  /// and adopts the segment's leaves from there (cut points are a pure
  /// function of the bytes since the node start). At most two rounds of
  /// kBulkRoundSegments segments are in memory at once.
  /// Keyed leaf types need strictly ascending keys: InvalidArgument names
  /// the first entry that is not. Precondition: AlignedThrough(0). On error
  /// the builder must be discarded.
  Status AddEntries(size_t n, const EntryEncoder& encode);

  static constexpr size_t kBulkSegmentEntries = 4096;
  static constexpr size_t kBulkRoundSegments = 8;

  /// Appends raw bytes to a kBlobLeaf tree (each byte is one entry).
  Status AddBytes(Slice bytes);

  /// True iff no node is open at any level <= `level`: the next entry fed
  /// at `level` would start a fresh node there.
  bool AlignedThrough(size_t level) const;

  /// Appends a whole existing subtree whose root sits at `level` (0 = leaf)
  /// by feeding its index entry `e` straight into level+1; `e.count` adds
  /// to entries_added(). Splitters reset at every node start, so streaming
  /// the subtree's entries would rebuild exactly that node and push exactly
  /// `e`; this skips the load, re-chunk and re-hash. Preconditions:
  ///   * AlignedThrough(level) — otherwise the node's bytes would join an
  ///     open node (checked; InvalidArgument);
  ///   * `e` comes from a tree built with this builder's config;
  ///   * the node is not the last of its level in that tree (its own
  ///     splitter closed it), or it is the last, nothing follows it, and
  ///     entries_added() > 0 (Finish closes it as before; into an empty
  ///     builder the collapse rule might pick a descendant as the root).
  Status AddSubtree(size_t level, const IndexEntry& e);

  /// Closes all open nodes and returns the root. The builder is then spent.
  StatusOr<TreeInfo> Finish();

  uint64_t entries_added() const { return entries_added_; }

 private:
  struct Level {
    std::unique_ptr<NodeSplitter> splitter;
    std::string buffer;           ///< serialized bytes of the open node
    uint64_t buffer_count = 0;    ///< leaf entries covered by the open node
    uint64_t buffer_entries = 0;  ///< entries in the open node
    std::string last_key;         ///< max key in the open node
    IndexEntry first_pending;     ///< first entry of the open node (collapse)
  };

  struct BulkSegment;

  /// Appends one segment of a bulk load to the leaf level (see AddEntries).
  /// `prev_key` is the last key before the segment (keyed trees).
  Status StitchSegment(BulkSegment& seg, bool keyed, Slice* prev_key);
  /// Stages a finished leaf as CloseNode(0) would and feeds its index entry
  /// through AddSubtree(0, e).
  Status AddLeaf(Chunk leaf, IndexEntry e);
  /// Closes the open node at `level`, stages its chunk for a batched write,
  /// pushes an index entry into level+1 (creating it on demand).
  Status CloseNode(size_t level);
  /// Writes all staged chunks to the store in one PutMany batch. Called when
  /// the staging buffer fills and before Finish() returns, so every chunk a
  /// returned TreeInfo references is resident.
  Status FlushPending();
  /// Feeds an index entry into level `level` (≥1), creating it and any
  /// missing level below it on demand.
  Status AddIndexEntry(size_t level, const IndexEntry& e);
  ChunkType TypeOfLevel(size_t level) const {
    return level == 0 ? leaf_type_ : ChunkType::kMeta;
  }

  ChunkStore* store_;
  ChunkType leaf_type_;
  TreeConfig config_;
  std::vector<Level> levels_;
  std::vector<Chunk> pending_chunks_;  ///< closed nodes staged for PutMany
  uint64_t entries_added_ = 0;
  uint64_t nodes_written_ = 0;
  bool finished_ = false;
};

}  // namespace forkbase

#endif  // FORKBASE_POSTREE_BUILDER_H_
