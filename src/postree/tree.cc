#include "postree/tree.h"

#include <algorithm>
#include <iterator>

namespace forkbase {

PosTree::PosTree(const ChunkStore* store, ChunkType leaf_type, Hash256 root,
                 TreeConfig config)
    : store_(store), leaf_type_(leaf_type), root_(root), config_(config) {}

StatusOr<TreeInfo> PosTree::BuildKeyed(
    ChunkStore* store, ChunkType leaf_type,
    const std::vector<std::pair<std::string, std::string>>& sorted_kvs,
    TreeConfig config) {
  if (leaf_type != ChunkType::kMapLeaf && leaf_type != ChunkType::kSetLeaf) {
    return Status::InvalidArgument("BuildKeyed requires a keyed leaf type");
  }
  const bool map = leaf_type == ChunkType::kMapLeaf;
  TreeBuilder builder(store, leaf_type, config);
  FB_RETURN_IF_ERROR(builder.AddEntries(
      sorted_kvs.size(), [&](size_t i, std::string* out) -> Slice {
        const auto& [key, value] = sorted_kvs[i];
        if (map) {
          AppendMapEntry(out, key, value);
        } else {
          AppendSetEntry(out, key);
        }
        return key;
      }));
  return builder.Finish();
}

StatusOr<TreeInfo> PosTree::BuildList(ChunkStore* store,
                                      const std::vector<std::string>& elements,
                                      TreeConfig config) {
  TreeBuilder builder(store, ChunkType::kListLeaf, config);
  FB_RETURN_IF_ERROR(builder.AddEntries(
      elements.size(), [&](size_t i, std::string* out) -> Slice {
        AppendListEntry(out, elements[i]);
        return Slice();
      }));
  return builder.Finish();
}

StatusOr<TreeInfo> PosTree::BuildBlob(ChunkStore* store, Slice bytes,
                                      TreeConfig config) {
  TreeBuilder builder(store, ChunkType::kBlobLeaf, config);
  FB_RETURN_IF_ERROR(builder.AddBytes(bytes));
  return builder.Finish();
}

StatusOr<uint64_t> PosTree::Count() const {
  FB_ASSIGN_OR_RETURN(Chunk chunk, store_->Get(root_));
  if (chunk.type() == ChunkType::kMeta) {
    std::vector<IndexEntry> children;
    if (!ParseIndexEntries(chunk.payload(), &children)) {
      return Status::Corruption("malformed index node");
    }
    uint64_t total = 0;
    for (const auto& c : children) total += c.count;
    return total;
  }
  return LeafEntryCount(chunk.type(), chunk.payload());
}

StatusOr<std::optional<std::string>> PosTree::Lookup(Slice key) const {
  Hash256 current = root_;
  for (;;) {
    FB_ASSIGN_OR_RETURN(Chunk chunk, store_->Get(current));
    if (chunk.type() == ChunkType::kMeta) {
      std::vector<IndexEntry> children;
      if (!ParseIndexEntries(chunk.payload(), &children)) {
        return Status::Corruption("malformed index node");
      }
      // First child whose split key (subtree max) is >= key.
      size_t lo = 0, hi = children.size();
      while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (Slice(children[mid].key) < key) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo == children.size()) return std::optional<std::string>{};
      current = children[lo].child;
      continue;
    }
    std::vector<EntryView> entries;
    if (!ParseLeafEntries(chunk.type(), chunk.payload(), &entries)) {
      return Status::Corruption("malformed leaf payload");
    }
    size_t lo = 0, hi = entries.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (entries[mid].key < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < entries.size() && entries[lo].key == key) {
      return std::optional<std::string>(entries[lo].value.ToString());
    }
    return std::optional<std::string>{};
  }
}

StatusOr<std::string> PosTree::Element(uint64_t index) const {
  Hash256 current = root_;
  uint64_t offset = index;
  for (;;) {
    FB_ASSIGN_OR_RETURN(Chunk chunk, store_->Get(current));
    if (chunk.type() == ChunkType::kMeta) {
      std::vector<IndexEntry> children;
      if (!ParseIndexEntries(chunk.payload(), &children)) {
        return Status::Corruption("malformed index node");
      }
      bool descended = false;
      for (const auto& c : children) {
        if (offset < c.count) {
          current = c.child;
          descended = true;
          break;
        }
        offset -= c.count;
      }
      if (!descended) return Status::NotFound("index out of range");
      continue;
    }
    if (chunk.type() == ChunkType::kBlobLeaf) {
      Slice payload = chunk.payload();
      if (offset >= payload.size()) return Status::NotFound("index out of range");
      return std::string(1, payload[offset]);
    }
    std::vector<EntryView> entries;
    if (!ParseLeafEntries(chunk.type(), chunk.payload(), &entries)) {
      return Status::Corruption("malformed leaf payload");
    }
    if (offset >= entries.size()) return Status::NotFound("index out of range");
    return entries[offset].value.ToString();
  }
}

Status PosTree::ReadBytes(uint64_t offset, uint64_t len,
                          std::string* out) const {
  out->clear();
  if (len == 0) return Status::OK();
  const uint64_t end = len > UINT64_MAX - offset ? UINT64_MAX : offset + len;
  uint64_t pos = 0;  // the byte offset of the next leaf
  return WalkLeaves<LeafRun>(
      LeafRange::Positions(offset, end), nullptr,
      [&](LeafRun& run) -> Status {
        for (const Chunk& leaf : run.leaves) {
          const Slice bytes = leaf.payload();
          const uint64_t from = std::max(pos, offset);
          const uint64_t to = std::min(pos + bytes.size(), end);
          if (from < to) out->append(bytes.data() + (from - pos), to - from);
          pos += bytes.size();
        }
        return Status::OK();
      },
      &pos);
}

Status PosTree::Scan(
    const std::function<Status(const EntryView&)>& fn) const {
  if (leaf_type_ == ChunkType::kBlobLeaf) {
    return Status::InvalidArgument("Scan is entry-based; blobs use ReadBytes");
  }
  return WalkLeaves<LeafRun>({}, nullptr, [&](LeafRun& run) -> Status {
    for (const EntryView& e : run.entries) FB_RETURN_IF_ERROR(fn(e));
    return Status::OK();
  });
}

Status PosTree::ScanRange(
    Slice begin, Slice end,
    const std::function<Status(const EntryView&)>& fn) const {
  if (leaf_type_ != ChunkType::kMapLeaf && leaf_type_ != ChunkType::kSetLeaf) {
    return Status::InvalidArgument("ScanRange requires a keyed tree");
  }
  if (!end.empty() && !(begin < end)) return Status::OK();
  return WalkLeaves<LeafRun>(
      LeafRange::Keys(begin, end), nullptr, [&](LeafRun& run) -> Status {
        for (const EntryView& e : run.entries) {
          if (e.key < begin || (!end.empty() && !(e.key < end))) continue;
          FB_RETURN_IF_ERROR(fn(e));
        }
        return Status::OK();
      });
}

StatusOr<std::vector<std::pair<std::string, std::string>>> PosTree::Entries()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  FB_RETURN_IF_ERROR(Scan([&out](const EntryView& e) {
    out.emplace_back(e.key.ToString(), e.value.ToString());
    return Status::OK();
  }));
  return out;
}

namespace {

// An index node's children: non-empty, or the node is malformed.
Status ParseIndexNode(const Chunk& node, std::vector<IndexEntry>* children) {
  if (!ParseIndexEntries(node.payload(), children) || children->empty()) {
    return Status::Corruption("malformed index node");
  }
  return Status::OK();
}

// One incremental keyed update: a key-ordered walk of the old tree from its
// root that hands every untouched subtree to the builder as its old index
// entry (TreeBuilder::AddSubtree) and streams entries only through leaves
// that hold an op, or that follow one until a new node boundary coincides
// with an old one (the builder is aligned again). Child i of a node owns
// the keys in (split key of child i-1, split key of child i]; the last child
// of the rightmost node at each level also owns every key past the old
// maximum, so appends land in (and re-stream) the rightmost leaf.
class KeyedUpdate {
 public:
  KeyedUpdate(const ChunkStore* store, ChunkType leaf_type,
              const std::vector<KeyedOp>& ops, TreeBuilder* builder)
      : store_(store), leaf_type_(leaf_type), ops_(ops), builder_(builder) {}

  Status Run(const Hash256& root) {
    // The walk needs each node's level before visiting it, so first descend
    // toward the first op to learn the height. The chunks on that path are
    // the first ones the walk loads anyway; they are kept for it.
    Hash256 id = root;
    for (;;) {
      FB_ASSIGN_OR_RETURN(Chunk chunk, store_->Get(id));
      path_.emplace_back(id, chunk);
      if (chunk.type() != ChunkType::kMeta) break;
      std::vector<IndexEntry> children;
      FB_RETURN_IF_ERROR(ParseIndexNode(chunk, &children));
      size_t i = 0;
      while (!ops_.empty() && i + 1 < children.size() &&
             Slice(children[i].key) < Slice(ops_[0].key)) {
        ++i;
      }
      id = children[i].child;
    }
    return Visit(path_[0].second, path_.size() - 1, /*owns_tail=*/true);
  }

 private:
  StatusOr<Chunk> Load(const Hash256& id) {
    for (const auto& [path_id, chunk] : path_) {
      if (path_id == id) return chunk;
    }
    return store_->Get(id);
  }

  Status Emit(const KeyedOp& op) {
    if (!op.value.has_value()) return Status::OK();  // delete: drop the key
    entry_.clear();
    if (leaf_type_ == ChunkType::kMapLeaf) {
      AppendMapEntry(&entry_, op.key, *op.value);
    } else {
      AppendSetEntry(&entry_, op.key);
    }
    return builder_->AddEntry(entry_, op.key);
  }

  // `node` sits at `level` (0 = leaf); `owns_tail` marks the rightmost node
  // of its level in the old tree.
  Status Visit(const Chunk& node, size_t level, bool owns_tail) {
    if (level == 0) return VisitLeaf(node, owns_tail);
    if (node.type() != ChunkType::kMeta) {
      return Status::Corruption("leaf above the leaf level");
    }
    std::vector<IndexEntry> children;
    FB_RETURN_IF_ERROR(ParseIndexNode(node, &children));
    for (size_t i = 0; i < children.size(); ++i) {
      const IndexEntry& child = children[i];
      const bool tail = owns_tail && i + 1 == children.size();
      const bool touched =
          next_op_ < ops_.size() &&
          (tail || Slice(ops_[next_op_].key) <= Slice(child.key));
      // The old rightmost node was closed by Finish, not by its splitter;
      // it is reusable only behind existing content, where Finish closes
      // it the same way again (into an empty builder the collapse rule may
      // instead pick one of its descendants as the root).
      if (!touched && builder_->AlignedThrough(level - 1) &&
          !(tail && builder_->entries_added() == 0)) {
        FB_RETURN_IF_ERROR(builder_->AddSubtree(level - 1, child));
        continue;
      }
      FB_ASSIGN_OR_RETURN(Chunk chunk, Load(child.child));
      FB_RETURN_IF_ERROR(Visit(chunk, level - 1, tail));
    }
    return Status::OK();
  }

  Status VisitLeaf(const Chunk& leaf, bool owns_tail) {
    if (leaf.type() != leaf_type_) {
      return Status::Corruption("unexpected chunk type at the leaf level");
    }
    std::vector<EntryView> entries;
    if (!ParseLeafEntries(leaf.type(), leaf.payload(), &entries)) {
      return Status::Corruption("malformed leaf payload");
    }
    for (const EntryView& entry : entries) {
      while (next_op_ < ops_.size() && Slice(ops_[next_op_].key) < entry.key) {
        FB_RETURN_IF_ERROR(Emit(ops_[next_op_++]));
      }
      if (next_op_ < ops_.size() && Slice(ops_[next_op_].key) == entry.key) {
        FB_RETURN_IF_ERROR(Emit(ops_[next_op_++]));  // replaces the entry
      } else {
        FB_RETURN_IF_ERROR(builder_->AddEntry(entry.raw, entry.key));
      }
    }
    while (owns_tail && next_op_ < ops_.size()) {
      FB_RETURN_IF_ERROR(Emit(ops_[next_op_++]));
    }
    return Status::OK();
  }

  const ChunkStore* store_;
  ChunkType leaf_type_;
  const std::vector<KeyedOp>& ops_;
  TreeBuilder* builder_;
  size_t next_op_ = 0;
  std::string entry_;  ///< Emit's encode buffer, reused across ops
  std::vector<std::pair<Hash256, Chunk>> path_;  ///< root-to-leaf, see Run
};

}  // namespace

StatusOr<TreeInfo> PosTree::ApplyKeyedOps(std::vector<KeyedOp> ops) const {
  if (leaf_type_ != ChunkType::kMapLeaf && leaf_type_ != ChunkType::kSetLeaf) {
    return Status::InvalidArgument("ApplyKeyedOps requires a keyed tree");
  }
  // Sort; for duplicate keys the last op wins (stable_sort keeps order).
  std::stable_sort(ops.begin(), ops.end(),
                   [](const KeyedOp& a, const KeyedOp& b) {
                     return a.key < b.key;
                   });
  // Deduplicate, keeping the last op per key.
  std::vector<KeyedOp> unique_ops;
  unique_ops.reserve(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i + 1 < ops.size() && ops[i + 1].key == ops[i].key) continue;
    unique_ops.push_back(std::move(ops[i]));
  }

  TreeBuilder builder(const_cast<ChunkStore*>(store_), leaf_type_, config_);
  KeyedUpdate update(store_, leaf_type_, unique_ops, &builder);
  FB_RETURN_IF_ERROR(update.Run(root_));
  return builder.Finish();
}

StatusOr<TreeInfo> PosTree::SpliceElements(
    uint64_t start, uint64_t remove,
    const std::vector<std::string>& inserts) const {
  if (leaf_type_ != ChunkType::kListLeaf) {
    return Status::InvalidArgument("SpliceElements requires a list tree");
  }
  TreeBuilder builder(const_cast<ChunkStore*>(store_), leaf_type_, config_);
  uint64_t index = 0;
  bool inserted = false;
  std::string entry;
  auto emit_inserts = [&]() -> Status {
    for (const auto& e : inserts) {
      entry.clear();
      AppendListEntry(&entry, e);
      FB_RETURN_IF_ERROR(builder.AddEntry(entry, Slice()));
    }
    inserted = true;
    return Status::OK();
  };
  FB_RETURN_IF_ERROR(
      WalkLeaves<LeafRun>({}, nullptr, [&](LeafRun& run) -> Status {
        for (const EntryView& e : run.entries) {
          if (index == start && !inserted) {
            FB_RETURN_IF_ERROR(emit_inserts());
          }
          if (index < start || index >= start + remove) {
            FB_RETURN_IF_ERROR(builder.AddEntry(e.raw, Slice()));
          }
          ++index;
        }
        return Status::OK();
      }));
  if (!inserted) {
    FB_RETURN_IF_ERROR(emit_inserts());  // append at/after end
  }
  return builder.Finish();
}

StatusOr<TreeInfo> PosTree::SpliceBytes(uint64_t offset, uint64_t remove,
                                        Slice insert) const {
  if (leaf_type_ != ChunkType::kBlobLeaf) {
    return Status::InvalidArgument("SpliceBytes requires a blob tree");
  }
  FB_ASSIGN_OR_RETURN(uint64_t total, Count());
  if (offset > total) offset = total;
  if (offset + remove > total) remove = total - offset;
  TreeBuilder builder(const_cast<ChunkStore*>(store_), leaf_type_, config_);
  // Stream leaves, carving out the spliced range.
  uint64_t pos = 0;
  bool inserted = false;
  auto maybe_insert = [&](uint64_t at) -> Status {
    if (!inserted && at >= offset) {
      FB_RETURN_IF_ERROR(builder.AddBytes(insert));
      inserted = true;
    }
    return Status::OK();
  };
  FB_RETURN_IF_ERROR(
      WalkLeaves<LeafRun>({}, nullptr, [&](LeafRun& run) -> Status {
        for (const Chunk& leaf : run.leaves) {
          const Slice payload = leaf.payload();
          const uint64_t leaf_start = pos;
          const uint64_t leaf_end = pos + payload.size();
          if (leaf_end <= offset || leaf_start >= offset + remove) {
            // Leaf entirely outside the removed range.
            if (leaf_start >= offset) {
              FB_RETURN_IF_ERROR(maybe_insert(leaf_start));
            }
            FB_RETURN_IF_ERROR(builder.AddBytes(payload));
          } else {
            // Overlaps the removed range: keep the outside pieces.
            if (leaf_start < offset) {
              FB_RETURN_IF_ERROR(
                  builder.AddBytes(payload.substr(0, offset - leaf_start)));
            }
            FB_RETURN_IF_ERROR(maybe_insert(offset));
            if (leaf_end > offset + remove) {
              const uint64_t keep_from = offset + remove - leaf_start;
              FB_RETURN_IF_ERROR(builder.AddBytes(payload.substr(keep_from)));
            }
          }
          pos = leaf_end;
        }
        return Status::OK();
      }));
  FB_RETURN_IF_ERROR(maybe_insert(pos));
  return builder.Finish();
}

Status PosTree::WalkLevels(bool verify_hashes,
                           const NodeVisitor& visit) const {
  std::vector<IndexEntry> level{IndexEntry{root_, 0, std::string()}};
  std::vector<Hash256> ids;
  std::vector<IndexEntry> children;
  for (uint32_t depth = 0; !level.empty(); ++depth) {
    if (depth > 64) return Status::Corruption("tree too deep (cycle?)");
    ids.clear();
    for (const auto& ref : level) ids.push_back(ref.child);
    std::vector<IndexEntry> next;
    bool leaves = false;
    FB_RETURN_IF_ERROR(ForEachChunkBatch(
        *store_, ids,
        [&](size_t i, StatusOr<Chunk>& slot) -> Status {
          if (!slot.ok()) return slot.status();
          if (verify_hashes && slot->hash() != ids[i]) {
            return Status::Corruption("chunk bytes do not hash to id " +
                                      ids[i].ToBase32() +
                                      " (tampering detected)");
          }
          children.clear();
          if (slot->type() != ChunkType::kMeta) {
            leaves = true;
          } else {
            FB_RETURN_IF_ERROR(ParseIndexNode(*slot, &children));
          }
          if (leaves && (!children.empty() || !next.empty())) {
            return Status::Corruption("leaves at multiple depths");
          }
          FB_RETURN_IF_ERROR(visit(depth, level[i], *slot, children));
          std::move(children.begin(), children.end(),
                    std::back_inserter(next));
          return Status::OK();
        },
        verify_hashes ? BatchHashing::kPrecompute : BatchHashing::kNone));
    level = std::move(next);
  }
  return Status::OK();
}

Status PosTree::LeafIds(std::vector<Hash256>* leaves, const LeafRange& range,
                        uint64_t* first,
                        std::optional<Chunk>* head_leaf) const {
  // The kept nodes of one level, and each one's position (first entry).
  std::vector<Hash256> level{root_};
  std::vector<uint64_t> starts{0};
  std::vector<IndexEntry> children;
  Status cut;  // the earliest error in key order so far
  for (uint32_t depth = 0; !level.empty(); ++depth) {
    if (depth > 64) return Status::Corruption("tree too deep (cycle?)");
    StatusOr<Chunk> head = store_->Get(level.front());
    if (head.ok() && head->type() != ChunkType::kMeta) {
      if (head_leaf) *head_leaf = std::move(*head);
      break;
    }
    std::vector<Hash256> next;
    std::vector<uint64_t> next_starts;
    auto expand = [&](size_t i, const StatusOr<Chunk>& node) -> Status {
      if (!node.ok()) return node.status();
      if (node->type() != ChunkType::kMeta) {
        return Status::Corruption("leaves at multiple depths");
      }
      FB_RETURN_IF_ERROR(ParseIndexNode(*node, &children));
      uint64_t pos = starts[i];
      for (size_t c = 0; c < children.size(); ++c) {
        const IndexEntry& e = children[c];
        // Child c holds the keys in (split key c-1, split key c] and the
        // positions [pos, pos + count).
        bool keep = true;
        if (range.kind == LeafRange::Kind::kKeys) {
          keep = !(Slice(e.key) < range.begin_key) &&
                 (c == 0 || range.end_key.empty() ||
                  Slice(children[c - 1].key) < range.end_key);
        } else if (range.kind == LeafRange::Kind::kPositions) {
          keep = pos < range.end && pos + e.count > range.begin;
        }
        if (keep) {
          next.push_back(e.child);
          next_starts.push_back(pos);
        }
        pos += e.count;
      }
      return Status::OK();
    };
    Status s = expand(0, head);
    if (s.ok()) {
      s = ForEachChunkBatch(
          *store_, std::span<const Hash256>(level).subspan(1),
          [&](size_t i, StatusOr<Chunk>& node) { return expand(i + 1, node); });
    }
    if (!s.ok()) cut = std::move(s);
    level = std::move(next);
    starts = std::move(next_starts);
  }
  if (first) *first = starts.empty() ? 0 : starts.front();
  *leaves = std::move(level);
  return cut;
}

void PosTree::ReadLeafRun(std::span<const Hash256> ids, const Chunk* head,
                          LeafRun* run) const {
  std::vector<StatusOr<Chunk>> slots =
      store_->GetMany(ids.subspan(head ? 1 : 0));
  if (head) slots.insert(slots.begin(), *head);
  std::vector<EntryView> entries;
  for (StatusOr<Chunk>& slot : slots) {
    if (!slot.ok()) {
      run->status = slot.status();
      return;
    }
    const ChunkType type = slot->type();
    if (!IsLeafType(type)) {
      run->status = Status::Corruption("expected leaf chunk, got " +
                                       std::string(ChunkTypeToString(type)));
      return;
    }
    run->leaves.push_back(std::move(*slot));
    if (type == ChunkType::kBlobLeaf) continue;
    if (!ParseLeafEntries(type, run->leaves.back().payload(), &entries)) {
      run->status = Status::Corruption("malformed leaf payload");
      return;
    }
    run->entries.insert(run->entries.end(), entries.begin(), entries.end());
  }
}

Status PosTree::Validate(
    const std::function<Status(const EntryView&)>& visit) const {
  const bool keyed = leaf_type_ == ChunkType::kMapLeaf ||
                     leaf_type_ == ChunkType::kSetLeaf;
  std::vector<EntryView> entries;
  std::string prev_key;  // last key of the previous leaf: keys ascend
  bool after_leaf = false;  // across leaves, not just within one
  return WalkLevels(
      /*verify_hashes=*/true,
      [&](uint32_t depth, const IndexEntry& ref, const Chunk& node,
          const std::vector<IndexEntry>& children) -> Status {
        uint64_t count = 0;
        Slice max_key;
        if (!children.empty()) {
          for (size_t i = 0; i < children.size(); ++i) {
            if (keyed && i > 0 && children[i].key <= children[i - 1].key) {
              return Status::Corruption("index split keys not ascending");
            }
            count += children[i].count;
          }
          max_key = children.back().key;
        } else if (node.type() != leaf_type_ || !IsLeafType(node.type())) {
          return Status::Corruption("unexpected chunk type in tree");
        } else if (node.type() == ChunkType::kBlobLeaf) {
          count = node.payload().size();
        } else {
          if (!ParseLeafEntries(node.type(), node.payload(), &entries)) {
            return Status::Corruption("malformed leaf payload");
          }
          for (size_t i = 0; i < entries.size(); ++i) {
            const Slice prev = i > 0 ? entries[i - 1].key : Slice(prev_key);
            if (keyed && (i > 0 || after_leaf) && entries[i].key <= prev) {
              return Status::Corruption("leaf keys not strictly ascending");
            }
            if (visit) FB_RETURN_IF_ERROR(visit(entries[i]));
          }
          count = entries.size();
          if (!entries.empty()) {
            max_key = entries.back().key;
            prev_key.assign(max_key.data(), max_key.size());
            after_leaf = true;
          }
        }
        if (depth == 0) return Status::OK();  // the root has no parent entry
        if (count != ref.count) {
          return Status::Corruption("index entry count mismatch");
        }
        if (keyed && max_key != Slice(ref.key)) {
          return Status::Corruption("split key is not the subtree max key");
        }
        return Status::OK();
      });
}

StatusOr<TreeShape> PosTree::Shape() const {
  TreeShape shape;
  FB_RETURN_IF_ERROR(WalkLevels(
      /*verify_hashes=*/false,
      [&](uint32_t depth, const IndexEntry&, const Chunk& node,
          const std::vector<IndexEntry>& children) -> Status {
        shape.height = depth + 1;
        ++shape.total_nodes;
        shape.total_bytes += node.size();
        if (!children.empty()) {
          ++shape.index_nodes;
          return Status::OK();
        }
        ++shape.leaf_nodes;
        FB_ASSIGN_OR_RETURN(uint64_t n,
                            LeafEntryCount(node.type(), node.payload()));
        shape.entries += n;
        return Status::OK();
      }));
  return shape;
}

Status PosTree::ReachableChunks(std::vector<Hash256>* out) const {
  out->clear();
  return WalkLevels(/*verify_hashes=*/false,
                    [out](uint32_t, const IndexEntry& ref, const Chunk&,
                          const std::vector<IndexEntry>&) {
                      out->push_back(ref.child);
                      return Status::OK();
                    });
}

}  // namespace forkbase
