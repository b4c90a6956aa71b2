#include "postree/builder.h"

namespace forkbase {

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

namespace {
// Closed nodes staged before one batched store write. 64 nodes ≈ a few
// hundred KiB — enough to amortize the store's per-batch flush without
// holding a meaningful slice of the tree in memory.
constexpr size_t kPutBatch = 64;
}  // namespace

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
