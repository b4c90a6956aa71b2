#include "postree/builder.h"

#include <algorithm>

#include "util/sha256.h"
#include "util/worker_pool.h"

namespace forkbase {

namespace {
// Closed nodes staged before one batched store write. 64 nodes ≈ a few
// hundred KiB — enough to amortize the store's per-batch flush without
// holding a meaningful slice of the tree in memory.
constexpr size_t kPutBatch = 64;

Status NotAscending(size_t i) {
  return Status::InvalidArgument("keys not strictly ascending at entry " +
                                 std::to_string(i));
}
}  // namespace

// Entries [begin, end) of a bulk load, split from a fresh node start the way
// a stream splits them: each entry is encoded into the open node's buffer,
// and a closing node becomes a leaf chunk. Written by the thread that claims
// it; stitched by the caller once that thread is done.
struct TreeBuilder::BulkSegment {
  struct Leaf {
    size_t begin = 0;  ///< first entry
    size_t end = 0;    ///< one past the last entry
    Chunk chunk;       ///< hashed
  };
  size_t begin = 0;
  size_t end = 0;
  /// Entry begin+k spans [offsets[k], offsets[k+1]) of the segment's bytes,
  /// which are its leaves' payloads followed by `tail`.
  std::vector<size_t> offsets;
  std::vector<Slice> keys;
  std::vector<Leaf> leaves;  ///< closed nodes, in order
  std::string tail;          ///< the open node after the last leaf
  size_t bad_key = 0;        ///< first entry whose key does not ascend, or 0

  Slice Entry(size_t i) const {
    const size_t k = i - begin;
    const size_t size = offsets[k + 1] - offsets[k];
    auto leaf = std::upper_bound(
        leaves.begin(), leaves.end(), i,
        [](size_t entry, const Leaf& l) { return entry < l.end; });
    const size_t first = leaf == leaves.end() ? TailBegin() : leaf->begin;
    const char* base =
        leaf == leaves.end() ? tail.data() : leaf->chunk.payload().data();
    return Slice(base + offsets[k] - offsets[first - begin], size);
  }
  size_t TailBegin() const {
    return leaves.empty() ? begin : leaves.back().end;
  }

  // Runs on whichever thread claims the segment, a pool thread or the
  // caller: it calls only `encode`, the splitter, Chunk::Make and hash().
  void Build(const EntryEncoder& encode, ChunkType type,
             const SplitConfig& split, bool keyed) {
    NodeSplitter splitter(split);
    offsets.reserve(end - begin + 1);
    keys.reserve(end - begin);
    offsets.push_back(0);
    size_t leaf_bytes = 0;  // payload bytes of the closed leaves
    for (size_t i = begin; i < end; ++i) {
      const size_t entry_start = tail.size();
      const Slice key = encode(i, &tail);
      if (keyed && i > begin && !(keys.back() < key)) {
        bad_key = i;  // the stitch reports it; nothing after it is needed
        return;
      }
      keys.push_back(key);
      offsets.push_back(leaf_bytes + tail.size());
      if (splitter.AddEntry(Slice(tail.data() + entry_start,
                                  tail.size() - entry_start))) {
        Chunk leaf = Chunk::Make(type, tail);
        leaf.hash();
        leaves.push_back(Leaf{TailBegin(), i + 1, std::move(leaf)});
        leaf_bytes += tail.size();
        tail.clear();
        splitter.ResetNode();
      }
    }
  }
};

TreeBuilder::TreeBuilder(ChunkStore* store, ChunkType leaf_type,
                         TreeConfig config)
    : store_(store), leaf_type_(leaf_type), config_(config) {}

Status TreeBuilder::AddIndexEntry(size_t level, const IndexEntry& e) {
  while (levels_.size() <= level) {
    Level lv;
    lv.splitter = std::make_unique<NodeSplitter>(
        levels_.empty() ? config_.leaf : config_.index);
    levels_.push_back(std::move(lv));
  }
  Level& lv = levels_[level];
  std::string bytes = EncodeIndexEntry(e);
  lv.buffer.append(bytes);
  lv.buffer_count += e.count;
  lv.last_key = e.key;
  if (lv.buffer_entries == 0) lv.first_pending = e;
  ++lv.buffer_entries;
  // A lone entry never closes an index node. An entry that reaches the
  // split bounds by itself (a key of ~220+ bytes) would otherwise close a
  // one-entry node at every level, each pushing one entry into a new level
  // above, without end. Short-key entries never reach the bounds alone, so
  // their trees are unaffected.
  if (lv.splitter->AddEntry(bytes) && lv.buffer_entries > 1) {
    return CloseNode(level);
  }
  return Status::OK();
}

bool TreeBuilder::AlignedThrough(size_t level) const {
  for (size_t l = 0; l <= level && l < levels_.size(); ++l) {
    if (levels_[l].buffer_entries > 0) return false;
  }
  return true;
}

Status TreeBuilder::AddSubtree(size_t level, const IndexEntry& e) {
  if (finished_) return Status::InvalidArgument("builder already finished");
  if (!AlignedThrough(level)) {
    return Status::InvalidArgument("AddSubtree on a builder with open nodes");
  }
  entries_added_ += e.count;
  return AddIndexEntry(level + 1, e);
}

Status TreeBuilder::AddEntry(Slice entry_bytes, Slice key) {
  if (finished_) return Status::InvalidArgument("builder already finished");
  if (levels_.empty()) {
    Level lv;
    lv.splitter = std::make_unique<NodeSplitter>(config_.leaf);
    levels_.push_back(std::move(lv));
  }
  Level& lv = levels_[0];
  lv.buffer.append(entry_bytes.data(), entry_bytes.size());
  lv.buffer_count += 1;
  lv.last_key.assign(key.data(), key.size());
  ++lv.buffer_entries;
  ++entries_added_;
  if (lv.splitter->AddEntry(entry_bytes)) {
    return CloseNode(0);
  }
  return Status::OK();
}

Status TreeBuilder::AddBytes(Slice bytes) {
  if (finished_) return Status::InvalidArgument("builder already finished");
  if (leaf_type_ != ChunkType::kBlobLeaf) {
    return Status::InvalidArgument("AddBytes only valid for blob trees");
  }
  if (levels_.empty()) {
    Level lv;
    lv.splitter = std::make_unique<NodeSplitter>(config_.leaf);
    levels_.push_back(std::move(lv));
  }
  // Block feed: the splitter consumes up to a cut decision per call, so the
  // open node's bytes append in bulk instead of one push_back per byte.
  const uint8_t* p = bytes.udata();
  size_t remaining = bytes.size();
  while (remaining > 0) {
    Level& lv = levels_[0];  // re-fetch: CloseNode may grow levels_
    bool cut = false;
    const size_t took = lv.splitter->Feed(p, remaining, &cut);
    lv.buffer.append(reinterpret_cast<const char*>(p), took);
    lv.buffer_count += took;
    lv.buffer_entries += took;
    entries_added_ += took;
    p += took;
    remaining -= took;
    if (cut) {
      FB_RETURN_IF_ERROR(CloseNode(0));
    }
  }
  return Status::OK();
}

Status TreeBuilder::AddEntries(size_t n, const EntryEncoder& encode) {
  if (finished_) return Status::InvalidArgument("builder already finished");
  if (!AlignedThrough(0)) {
    return Status::InvalidArgument("AddEntries on a builder with an open leaf");
  }
  const bool keyed =
      leaf_type_ == ChunkType::kMapLeaf || leaf_type_ == ChunkType::kSetLeaf;
  Slice prev_key;
  return OrderedFanOut<BulkSegment>(
      SharedHashPool(), (n + kBulkSegmentEntries - 1) / kBulkSegmentEntries,
      kBulkRoundSegments,
      [&](size_t i, BulkSegment* seg) {
        seg->begin = i * kBulkSegmentEntries;
        seg->end = std::min(n, seg->begin + kBulkSegmentEntries);
        seg->Build(encode, leaf_type_, config_.leaf, keyed);
      },
      [&](size_t, BulkSegment& seg) {
        return StitchSegment(seg, keyed, &prev_key);
      });
}

Status TreeBuilder::StitchSegment(BulkSegment& seg, bool keyed,
                                  Slice* prev_key) {
  if (keyed && seg.begin > 0 && !(*prev_key < seg.keys.front())) {
    return NotAscending(seg.begin);
  }
  if (seg.bad_key != 0) return NotAscending(seg.bad_key);
  // Stream entries into the open leaf (re-splitting the true chain) until
  // it closes exactly where one of the segment's leaves begins. From a node
  // start on, cut points depend only on the bytes that follow, so from
  // there the segment's own leaves are the true chain: adopt them. Its open
  // tail is streamed, to carry into the next segment. If no start matches,
  // the whole segment is streamed.
  size_t next_leaf = 0;
  for (size_t i = seg.begin; i < seg.end;) {
    if (AlignedThrough(0)) {
      while (next_leaf < seg.leaves.size() && seg.leaves[next_leaf].begin < i) {
        ++next_leaf;
      }
      if (next_leaf < seg.leaves.size() && seg.leaves[next_leaf].begin == i) {
        for (; next_leaf < seg.leaves.size(); ++next_leaf) {
          BulkSegment::Leaf& leaf = seg.leaves[next_leaf];
          IndexEntry e;
          e.child = leaf.chunk.hash();
          e.count = leaf.end - leaf.begin;
          e.key = seg.keys[leaf.end - 1 - seg.begin].ToString();
          FB_RETURN_IF_ERROR(AddLeaf(std::move(leaf.chunk), std::move(e)));
        }
        i = seg.leaves.back().end;
        continue;
      }
    }
    FB_RETURN_IF_ERROR(AddEntry(seg.Entry(i), seg.keys[i - seg.begin]));
    ++i;
  }
  if (!seg.keys.empty()) *prev_key = seg.keys.back();
  return Status::OK();
}

Status TreeBuilder::AddLeaf(Chunk leaf, IndexEntry e) {
  pending_chunks_.push_back(std::move(leaf));
  if (pending_chunks_.size() >= kPutBatch) {
    FB_RETURN_IF_ERROR(FlushPending());
  }
  ++nodes_written_;
  return AddSubtree(0, e);
}

Status TreeBuilder::FlushPending() {
  if (pending_chunks_.empty()) return Status::OK();
  FB_RETURN_IF_ERROR(store_->PutMany(pending_chunks_));
  pending_chunks_.clear();
  return Status::OK();
}

Status TreeBuilder::CloseNode(size_t level) {
  Level& lv = levels_[level];
  Chunk chunk = Chunk::Make(TypeOfLevel(level), lv.buffer);
  // The index entry only needs the hash (computed locally), so the write can
  // be deferred into a batch; nothing reads chunks mid-build.
  pending_chunks_.push_back(chunk);
  if (pending_chunks_.size() >= kPutBatch) {
    FB_RETURN_IF_ERROR(FlushPending());
  }
  IndexEntry e;
  e.child = chunk.hash();
  e.count = lv.buffer_count;
  e.key = lv.last_key;
  ++nodes_written_;
  lv.buffer.clear();
  lv.buffer_count = 0;
  lv.buffer_entries = 0;
  lv.last_key.clear();
  lv.splitter->ResetNode();
  return AddIndexEntry(level + 1, e);
}

StatusOr<TreeInfo> TreeBuilder::Finish() {
  if (finished_) return Status::InvalidArgument("builder already finished");
  finished_ = true;
  if (entries_added_ == 0) {
    // Empty tree: canonical representation is a single empty leaf chunk.
    Chunk chunk = Chunk::Make(leaf_type_, Slice());
    pending_chunks_.push_back(chunk);
    FB_RETURN_IF_ERROR(FlushPending());
    ++nodes_written_;
    TreeInfo info;
    info.root = chunk.hash();
    info.count = 0;
    info.height = 1;
    info.nodes_written = nodes_written_;
    return info;
  }
  // Close open nodes bottom-up; each close pushes an index entry one level
  // up. The loop re-reads levels_.size() because closes can create levels.
  for (size_t level = 0; level < levels_.size(); ++level) {
    Level& lv = levels_[level];
    // Collapse rule: the topmost level holding exactly one index entry is
    // redundant — its single child is the root. Only the topmost level
    // qualifies: AddSubtree can fill upper levels before a lower one ever
    // closes, so a lower single-entry level must close like any other.
    // (In a pure streaming build the topmost level is exactly the one that
    // never closed a node, so the two readings agree.)
    if (level > 0 && level + 1 == levels_.size() && lv.buffer_entries == 1) {
      FB_RETURN_IF_ERROR(FlushPending());
      TreeInfo info;
      info.root = lv.first_pending.child;
      info.count = lv.first_pending.count;
      info.height = static_cast<uint32_t>(level);
      info.nodes_written = nodes_written_;
      return info;
    }
    if (lv.buffer_entries > 0) {
      FB_RETURN_IF_ERROR(CloseNode(level));
    }
  }
  // Unreachable: the final CloseNode always pushes a single pending entry
  // into a fresh top level, which the collapse rule then returns.
  return Status::Corruption("tree builder failed to converge to a root");
}

}  // namespace forkbase
