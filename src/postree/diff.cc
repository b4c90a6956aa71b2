#include "postree/diff.h"

#include <algorithm>
#include <deque>

namespace forkbase {

namespace {

struct NodeRef {
  Hash256 id;
  std::string max_key;  // known max key (filled from parent index entries)
};

// Starts the batched read of one frontier's surviving nodes. Issued for
// BOTH trees before either side is parsed, so on an async store the two
// sides' level reads overlap each other (and the parse of whichever side
// completes first).
AsyncChunkBatch StartFrontier(const ChunkStore* store,
                              const std::vector<NodeRef>& refs) {
  std::vector<Hash256> ids;
  ids.reserve(refs.size());
  for (const auto& ref : refs) ids.push_back(ref.id);
  return store->GetManyAsync(ids);
}

// Consumes one frontier's read. Metas: children are appended to `next` for
// the following round. Leaves: the chunk is kept in `leaves` and its entries
// are appended to `out` as views into it, so the merge-scan compares slices
// and copies bytes only for real deltas. Only differing paths ever reach
// this function, which is what bounds the loads to O(D log N); the batch
// turns each round's loads into one store call instead of one per node.
Status ExpandFrontier(AsyncChunkBatch batch, std::vector<NodeRef>* next,
                      std::vector<Chunk>* leaves, std::vector<EntryView>* out,
                      DiffMetrics* metrics) {
  auto chunks = batch.Take();
  std::vector<EntryView> entries;
  for (size_t i = 0; i < chunks.size(); ++i) {
    if (!chunks[i].ok()) return chunks[i].status();
    const Chunk& chunk = *chunks[i];
    if (metrics) ++metrics->nodes_loaded;
    if (chunk.type() == ChunkType::kMeta) {
      std::vector<IndexEntry> children;
      if (!ParseIndexEntries(chunk.payload(), &children)) {
        return Status::Corruption("malformed index node");
      }
      for (auto& c : children) {
        next->push_back(NodeRef{c.child, std::move(c.key)});
      }
      continue;
    }
    leaves->push_back(chunk);
    if (!ParseLeafEntries(chunk.type(), leaves->back().payload(), &entries)) {
      return Status::Corruption("malformed leaf payload");
    }
    out->insert(out->end(), entries.begin(), entries.end());
  }
  return Status::OK();
}

// Prunes pairs of equal-hash nodes from two key-ordered node lists using a
// two-pointer sweep: equal hashes are skipped on both sides, otherwise the
// node with the smaller max key is kept for further inspection.
void PruneEqual(std::vector<NodeRef>* a, std::vector<NodeRef>* b,
                DiffMetrics* metrics) {
  std::vector<NodeRef> keep_a, keep_b;
  size_t i = 0, j = 0;
  while (i < a->size() && j < b->size()) {
    if ((*a)[i].id == (*b)[j].id) {
      if (metrics) metrics->nodes_pruned += 2;
      ++i;
      ++j;
      continue;
    }
    int cmp = Slice((*a)[i].max_key).compare(Slice((*b)[j].max_key));
    if (cmp < 0) {
      keep_a.push_back(std::move((*a)[i++]));
    } else if (cmp > 0) {
      keep_b.push_back(std::move((*b)[j++]));
    } else {
      keep_a.push_back(std::move((*a)[i++]));
      keep_b.push_back(std::move((*b)[j++]));
    }
  }
  while (i < a->size()) keep_a.push_back(std::move((*a)[i++]));
  while (j < b->size()) keep_b.push_back(std::move((*b)[j++]));
  *a = std::move(keep_a);
  *b = std::move(keep_b);
}

}  // namespace

StatusOr<std::vector<KeyDelta>> DiffKeyed(const PosTree& left,
                                          const PosTree& right,
                                          DiffMetrics* metrics) {
  std::vector<KeyDelta> deltas;
  if (left.root() == right.root()) {
    if (metrics) metrics->nodes_pruned += 2;
    return deltas;
  }
  const ChunkStore* ls = left.store();
  const ChunkStore* rs = right.store();

  // Equal subtrees of the two instances sit at the same distance from the
  // leaf level, not from the root (the trees may differ in height by a
  // level when an edit flips an index split). Align the two descent
  // frontiers by leaf distance before pruning.
  auto height_of = [metrics](const ChunkStore* store,
                             const Hash256& root) -> StatusOr<uint32_t> {
    uint32_t h = 1;
    Hash256 current = root;
    for (;;) {
      auto chunk_or = store->Get(current);
      if (!chunk_or.ok()) return chunk_or.status();
      if (metrics) ++metrics->nodes_loaded;
      if (chunk_or->type() != ChunkType::kMeta) return h;
      std::vector<IndexEntry> children;
      if (!ParseIndexEntries(chunk_or->payload(), &children) ||
          children.empty()) {
        return Status::Corruption("malformed index node");
      }
      current = children[0].child;
      ++h;
    }
  };
  FB_ASSIGN_OR_RETURN(uint32_t da, height_of(ls, left.root()));
  FB_ASSIGN_OR_RETURN(uint32_t db, height_of(rs, right.root()));

  std::vector<NodeRef> la{{left.root(), std::string()}};
  std::vector<NodeRef> lb{{right.root(), std::string()}};
  std::vector<Chunk> leaves;  // keeps the payloads behind ea/eb alive
  std::vector<EntryView> ea, eb;

  // Descend level by level. Each round first prunes equal-hash pairs from
  // the two (level-aligned) frontiers WITHOUT loading them, then loads only
  // the survivors: metas contribute their children to the next frontier,
  // leaves contribute their entries to the merge-scan inputs. Within a tree
  // all leaves sit at one depth, so entries accumulate in key order.
  while (!la.empty() || !lb.empty()) {
    if (da == db) PruneEqual(&la, &lb, metrics);
    const bool expand_a = !la.empty() && (da >= db || lb.empty());
    const bool expand_b = !lb.empty() && (db >= da || la.empty());
    AsyncChunkBatch batch_a, batch_b;
    if (expand_a) batch_a = StartFrontier(ls, la);
    if (expand_b) batch_b = StartFrontier(rs, lb);
    if (expand_a) {
      std::vector<NodeRef> na;
      FB_RETURN_IF_ERROR(
          ExpandFrontier(std::move(batch_a), &na, &leaves, &ea, metrics));
      la = std::move(na);
      --da;
    }
    if (expand_b) {
      std::vector<NodeRef> nb;
      FB_RETURN_IF_ERROR(
          ExpandFrontier(std::move(batch_b), &nb, &leaves, &eb, metrics));
      lb = std::move(nb);
      --db;
    }
  }

  size_t i = 0, j = 0;
  while (i < ea.size() || j < eb.size()) {
    if (metrics) ++metrics->entries_compared;
    if (j == eb.size() || (i < ea.size() && ea[i].key < eb[j].key)) {
      deltas.push_back(
          KeyDelta{ea[i].key.ToString(), ea[i].value.ToString(), std::nullopt});
      ++i;
    } else if (i == ea.size() || eb[j].key < ea[i].key) {
      deltas.push_back(
          KeyDelta{eb[j].key.ToString(), std::nullopt, eb[j].value.ToString()});
      ++j;
    } else {
      if (ea[i].value != eb[j].value) {
        deltas.push_back(KeyDelta{ea[i].key.ToString(), ea[i].value.ToString(),
                                  eb[j].value.ToString()});
      }
      ++i;
      ++j;
    }
  }
  return deltas;
}

StatusOr<std::vector<KeyDelta>> DiffKeyedElementwise(const PosTree& left,
                                                     const PosTree& right,
                                                     DiffMetrics* metrics) {
  FB_ASSIGN_OR_RETURN(auto ea, left.Entries());
  FB_ASSIGN_OR_RETURN(auto eb, right.Entries());
  std::vector<KeyDelta> deltas;
  size_t i = 0, j = 0;
  while (i < ea.size() || j < eb.size()) {
    if (metrics) ++metrics->entries_compared;
    if (j == eb.size() || (i < ea.size() && ea[i].first < eb[j].first)) {
      deltas.push_back(KeyDelta{ea[i].first, ea[i].second, std::nullopt});
      ++i;
    } else if (i == ea.size() || eb[j].first < ea[i].first) {
      deltas.push_back(KeyDelta{eb[j].first, std::nullopt, eb[j].second});
      ++j;
    } else {
      if (ea[i].second != eb[j].second) {
        deltas.push_back(KeyDelta{ea[i].first, ea[i].second, eb[j].second});
      }
      ++i;
      ++j;
    }
  }
  return deltas;
}

namespace {

// Leaf roster of a sequence tree: (leaf id, start position, length), in
// position order from the tree's level walk.
struct LeafSpan {
  Hash256 id;
  uint64_t start;
  uint64_t length;
};

Status CollectLeafSpans(const PosTree& tree, std::vector<LeafSpan>* out,
                        DiffMetrics* metrics) {
  out->clear();
  uint64_t start = 0;
  return tree.WalkLevels(
      /*verify_hashes=*/false,
      [&](uint32_t depth, const IndexEntry& ref, const Chunk& node,
          const std::vector<IndexEntry>& children) -> Status {
        if (metrics) ++metrics->nodes_loaded;
        if (!children.empty()) return Status::OK();
        uint64_t len = ref.count;
        if (depth == 0) {  // a root leaf has no parent entry to count it
          FB_ASSIGN_OR_RETURN(len, LeafEntryCount(node.type(), node.payload()));
        }
        out->push_back(LeafSpan{ref.child, start, len});
        start += len;
        return Status::OK();
      });
}

// Materializes the elements of leaves [from, to) of a span roster.
Status MaterializeRange(const ChunkStore* store, ChunkType leaf_type,
                        const std::vector<LeafSpan>& spans, size_t from,
                        size_t to, std::vector<std::string>* out,
                        DiffMetrics* metrics) {
  // Batched reads, capped so a wide range doesn't buffer every leaf chunk
  // on top of the materialized values.
  std::vector<Hash256> ids;
  ids.reserve(to - from);
  for (size_t i = from; i < to; ++i) ids.push_back(spans[i].id);
  return ForEachChunkBatch(
      *store, ids,
      [&](size_t, StatusOr<Chunk>& chunk_or) -> Status {
        if (!chunk_or.ok()) return chunk_or.status();
        if (metrics) ++metrics->nodes_loaded;
        if (leaf_type == ChunkType::kBlobLeaf) {
          out->push_back(chunk_or->payload().ToString());
        } else {
          std::vector<EntryView> entries;
          if (!ParseLeafEntries(chunk_or->type(), chunk_or->payload(),
                                &entries)) {
            return Status::Corruption("malformed leaf payload");
          }
          for (const auto& e : entries) out->push_back(e.value.ToString());
        }
        return Status::OK();
      });
}

}  // namespace

StatusOr<std::optional<SeqDelta>> DiffSequence(const PosTree& left,
                                               const PosTree& right,
                                               DiffMetrics* metrics) {
  if (left.root() == right.root()) {
    if (metrics) metrics->nodes_pruned += 2;
    return std::optional<SeqDelta>{};
  }
  std::vector<LeafSpan> sa, sb;
  FB_RETURN_IF_ERROR(CollectLeafSpans(left, &sa, metrics));
  FB_RETURN_IF_ERROR(CollectLeafSpans(right, &sb, metrics));

  // Prune the longest common chunk-aligned prefix.
  size_t p = 0;
  while (p < sa.size() && p < sb.size() && sa[p].id == sb[p].id &&
         sa[p].start == sb[p].start) {
    if (metrics) metrics->nodes_pruned += 2;
    ++p;
  }
  // Prune the longest common chunk-aligned suffix (aligned from the ends).
  size_t qa = sa.size(), qb = sb.size();
  uint64_t total_a = sa.empty() ? 0 : sa.back().start + sa.back().length;
  uint64_t total_b = sb.empty() ? 0 : sb.back().start + sb.back().length;
  while (qa > p && qb > p && sa[qa - 1].id == sb[qb - 1].id &&
         total_a - sa[qa - 1].start == total_b - sb[qb - 1].start) {
    if (metrics) metrics->nodes_pruned += 2;
    --qa;
    --qb;
  }

  SeqDelta delta;
  delta.left_start = p < sa.size() && p < qa ? sa[p].start : total_a;
  delta.right_start = p < sb.size() && p < qb ? sb[p].start : total_b;
  uint64_t left_end = qa > p ? sa[qa - 1].start + sa[qa - 1].length
                             : delta.left_start;
  uint64_t right_end = qb > p ? sb[qb - 1].start + sb[qb - 1].length
                              : delta.right_start;
  delta.left_count = left_end - delta.left_start;
  delta.right_count = right_end - delta.right_start;
  if (delta.left_count == 0 && delta.right_count == 0) {
    // Same chunk roster but different roots can only mean different index
    // structure over identical leaves — treat as identical content.
    return std::optional<SeqDelta>{};
  }
  FB_RETURN_IF_ERROR(MaterializeRange(left.store(), left.leaf_type(), sa, p,
                                      qa, &delta.left_elems, metrics));
  FB_RETURN_IF_ERROR(MaterializeRange(right.store(), right.leaf_type(), sb, p,
                                      qb, &delta.right_elems, metrics));
  return std::optional<SeqDelta>(std::move(delta));
}

}  // namespace forkbase
