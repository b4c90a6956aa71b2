// Unit tests for the POS-Tree: builder canonicalization, lookup/positional
// access against reference containers, functional mutation, validation and
// tamper detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <unordered_set>

#include "chunk/mem_chunk_store.h"
#include "postree/tree.h"
#include "store/gc.h"
#include "util/random.h"

namespace forkbase {
namespace {

std::vector<std::pair<std::string, std::string>> MakeKvs(size_t n,
                                                         uint64_t seed = 1) {
  Rng rng(seed);
  std::map<std::string, std::string> sorted;
  while (sorted.size() < n) {
    sorted["key" + rng.NextString(12)] = rng.NextString(24);
  }
  return {sorted.begin(), sorted.end()};
}

// --------------------------------------------------------------- Builder --

TEST(TreeBuilderTest, EmptyTreeIsCanonicalEmptyLeaf) {
  MemChunkStore store;
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, {});
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->count, 0u);
  EXPECT_EQ(info->height, 1u);
  auto chunk = store.Get(info->root);
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(chunk->type(), ChunkType::kMapLeaf);
  EXPECT_TRUE(chunk->payload().empty());
}

TEST(TreeBuilderTest, EmptyTreesOfDifferentTypesDiffer) {
  MemChunkStore store;
  auto map_info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, {});
  auto set_info = PosTree::BuildKeyed(&store, ChunkType::kSetLeaf, {});
  ASSERT_TRUE(map_info.ok());
  ASSERT_TRUE(set_info.ok());
  EXPECT_NE(map_info->root, set_info->root);
}

TEST(TreeBuilderTest, BuildKeyedRejectsKeysNotStrictlyAscending) {
  // Lookup and Diff binary-search by key: a tree built from unsorted or
  // repeated keys would answer wrongly, so the build refuses it.
  MemChunkStore store;
  for (const ChunkType type : {ChunkType::kMapLeaf, ChunkType::kSetLeaf}) {
    auto unsorted = PosTree::BuildKeyed(&store, type,
                                        {{"a", ""}, {"c", ""}, {"b", ""}});
    EXPECT_EQ(unsorted.status().code(), StatusCode::kInvalidArgument);
    auto repeated = PosTree::BuildKeyed(&store, type,
                                        {{"a", ""}, {"b", ""}, {"b", ""}});
    EXPECT_EQ(repeated.status().code(), StatusCode::kInvalidArgument);
  }
  auto sorted = MakeKvs(2000);
  std::swap(sorted[1500], sorted[1501]);
  auto late = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, sorted);
  EXPECT_EQ(late.status().code(), StatusCode::kInvalidArgument);
}

TEST(TreeBuilderTest, SingleEntryRootIsLeaf) {
  MemChunkStore store;
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf,
                                  {{"only", "entry"}});
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->count, 1u);
  EXPECT_EQ(info->height, 1u);
  auto chunk = store.Get(info->root);
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(chunk->type(), ChunkType::kMapLeaf);
}

TEST(TreeBuilderTest, LargeTreeGrowsHeightAndValidates) {
  MemChunkStore store;
  auto kvs = MakeKvs(20000);
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->count, kvs.size());
  EXPECT_GE(info->height, 2u);
  PosTree tree(&store, ChunkType::kMapLeaf, info->root);
  ASSERT_TRUE(tree.Validate().ok());
  auto shape = tree.Shape();
  ASSERT_TRUE(shape.ok());
  EXPECT_EQ(shape->entries, kvs.size());
  EXPECT_GT(shape->leaf_nodes, 1u);
  EXPECT_EQ(shape->height, info->height);
}

TEST(TreeBuilderTest, RebuildIsBitIdentical) {
  MemChunkStore s1, s2;
  auto kvs = MakeKvs(5000);
  auto a = PosTree::BuildKeyed(&s1, ChunkType::kMapLeaf, kvs);
  auto b = PosTree::BuildKeyed(&s2, ChunkType::kMapLeaf, kvs);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->root, b->root) << "same records must give the same root";
  EXPECT_EQ(a->nodes_written, b->nodes_written);
}

TEST(TreeBuilderTest, NodesRespectSizeBounds) {
  MemChunkStore store;
  auto kvs = MakeKvs(20000);
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  ASSERT_TRUE(info.ok());
  SplitConfig cfg = SplitConfig::Entries();
  size_t oversize = 0, total = 0;
  store.ForEach([&](const Hash256&, const Chunk& chunk) {
    ++total;
    // +1 tag byte; the final node of a level may be undersized, and an
    // entry straddling max_bytes may overshoot by one entry length.
    if (chunk.size() > cfg.max_bytes + 256) ++oversize;
  });
  EXPECT_EQ(oversize, 0u);
  EXPECT_GT(total, 10u);
}

// -------------------------------------------------------------- Splitter --

// RollingHash::Roll may fire on the very first full window; the splitter's
// min_bytes clamp is the only guard against a window-sized sliver chunk at
// stream start. q_bits = 0 makes the pattern fire at EVERY full-window
// position, so an unclamped splitter would close at byte `window`.
TEST(NodeSplitterTest, FirstWindowFireIsClampedByMinBytes) {
  NodeSplitter splitter(SplitConfig{32, 0, 256, 8192});
  Rng rng(11);
  std::string bytes = rng.NextString(1024);
  size_t first_close = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    if (splitter.AddByte(static_cast<uint8_t>(bytes[i]))) {
      first_close = i + 1;
      break;
    }
  }
  EXPECT_EQ(first_close, 256u)
      << "pattern fires from byte 32 on, but min_bytes must hold the node";
}

TEST(NodeSplitterTest, MinBytesIsRaisedToTheWindow) {
  // A config with min_bytes < window would re-open the sliver-chunk hole;
  // the constructor repairs it.
  NodeSplitter splitter(SplitConfig{64, 0, 8, 4096});
  EXPECT_EQ(splitter.config().min_bytes, 64u);
  Rng rng(12);
  std::string bytes = rng.NextString(256);
  size_t first_close = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    if (splitter.AddByte(static_cast<uint8_t>(bytes[i]))) {
      first_close = i + 1;
      break;
    }
  }
  EXPECT_EQ(first_close, 64u);
}

namespace {
// All cut offsets (exclusive end positions) the splitter chooses over
// `bytes` starting from `from`, resetting at each cut.
std::vector<size_t> CutPoints(const SplitConfig& cfg, const std::string& bytes,
                              size_t from) {
  NodeSplitter splitter(cfg);
  std::vector<size_t> cuts;
  for (size_t i = from; i < bytes.size(); ++i) {
    if (splitter.AddByte(static_cast<uint8_t>(bytes[i]))) {
      cuts.push_back(i + 1);
      splitter.ResetNode();
    }
  }
  return cuts;
}
}  // namespace

TEST(NodeSplitterTest, CutPointsResynchronizeMidStream) {
  // Boundary decisions depend only on bytes since the last cut, so a stream
  // re-entered at any prior cut point must reproduce every later cut.
  SplitConfig cfg = SplitConfig::Blob();
  Rng rng(13);
  std::string bytes = rng.NextString(96 * 1024);
  auto full = CutPoints(cfg, bytes, 0);
  ASSERT_GE(full.size(), 4u) << "stream too small to exercise resync";
  for (size_t i = 0; i < full.size(); ++i) {
    size_t gap = i == 0 ? full[0] : full[i] - full[i - 1];
    EXPECT_GE(gap, cfg.min_bytes) << "cut " << i;
    EXPECT_LE(gap, cfg.max_bytes) << "cut " << i;
  }
  auto resumed = CutPoints(cfg, bytes, full[1]);
  std::vector<size_t> tail(full.begin() + 2, full.end());
  EXPECT_EQ(resumed, tail);
}

TEST(TreeBuilderTest, BlobFeedGranularityDoesNotChangeChunks) {
  // Same bytes, different AddBytes slicing ⇒ identical cut points, and so
  // identical chunks and root. This is the property that makes blob ids a
  // function of content alone, not of the writer's buffering.
  Rng rng(14);
  std::string bytes = rng.NextString(80 * 1024);

  auto build = [&](size_t max_piece) -> TreeInfo {
    MemChunkStore store;
    TreeBuilder builder(&store, ChunkType::kBlobLeaf, TreeConfig::ForBlob());
    Rng piece_rng(max_piece);
    size_t off = 0;
    while (off < bytes.size()) {
      size_t n = max_piece <= 1
                     ? 1
                     : 1 + piece_rng.Uniform(
                               std::min(max_piece, bytes.size() - off));
      n = std::min(n, bytes.size() - off);
      EXPECT_TRUE(builder.AddBytes(Slice(bytes.data() + off, n)).ok());
      off += n;
    }
    auto info = builder.Finish();
    EXPECT_TRUE(info.ok());
    return *info;
  };

  TreeInfo whole;
  {
    MemChunkStore store;
    TreeBuilder builder(&store, ChunkType::kBlobLeaf, TreeConfig::ForBlob());
    ASSERT_TRUE(builder.AddBytes(bytes).ok());
    auto info = builder.Finish();
    ASSERT_TRUE(info.ok());
    whole = *info;
  }
  TreeInfo byte_at_a_time = build(1);
  TreeInfo ragged = build(4096);
  EXPECT_EQ(whole.root, byte_at_a_time.root);
  EXPECT_EQ(whole.root, ragged.root);
  EXPECT_EQ(whole.nodes_written, byte_at_a_time.nodes_written);
  EXPECT_EQ(whole.nodes_written, ragged.nodes_written);
}

// --------------------------------------------------------------- Lookup --

class PosTreeLookupTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PosTreeLookupTest, MatchesReferenceMap) {
  MemChunkStore store;
  auto kvs = MakeKvs(GetParam(), /*seed=*/GetParam());
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  ASSERT_TRUE(info.ok());
  PosTree tree(&store, ChunkType::kMapLeaf, info->root);

  // Every present key is found with its value.
  Rng rng(7);
  for (size_t trial = 0; trial < std::min<size_t>(kvs.size(), 200); ++trial) {
    const auto& [key, value] = kvs[rng.Uniform(kvs.size())];
    auto found = tree.Lookup(key);
    ASSERT_TRUE(found.ok());
    ASSERT_TRUE(found->has_value()) << key;
    EXPECT_EQ(**found, value);
  }
  // Absent keys (outside and inside the key range) are not found.
  auto missing_low = tree.Lookup("kex");
  ASSERT_TRUE(missing_low.ok());
  EXPECT_FALSE(missing_low->has_value());
  auto missing_high = tree.Lookup("kez");
  ASSERT_TRUE(missing_high.ok());
  EXPECT_FALSE(missing_high->has_value());
  auto count = tree.Count();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, kvs.size());
}

INSTANTIATE_TEST_SUITE_P(Sizes, PosTreeLookupTest,
                         ::testing::Values(1, 2, 10, 100, 1000, 20000));

TEST(PosTreeScanTest, ScanReturnsEntriesInKeyOrder) {
  MemChunkStore store;
  auto kvs = MakeKvs(3000);
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  ASSERT_TRUE(info.ok());
  PosTree tree(&store, ChunkType::kMapLeaf, info->root);
  auto entries = tree.Entries();
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(*entries, kvs);
}

TEST(PosTreeScanTest, EarlyStopPropagates) {
  MemChunkStore store;
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, MakeKvs(100));
  ASSERT_TRUE(info.ok());
  PosTree tree(&store, ChunkType::kMapLeaf, info->root);
  int seen = 0;
  Status s = tree.Scan([&seen](const EntryView&) {
    if (++seen == 5) return Status::InvalidArgument("stop");
    return Status::OK();
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(seen, 5);
}

// -------------------------------------------------------------- Keyed ops --

TEST(PosTreeApplyOpsTest, UpsertAndDeleteMatchReference) {
  MemChunkStore store;
  auto kvs = MakeKvs(2000, 3);
  std::map<std::string, std::string> reference(kvs.begin(), kvs.end());
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  ASSERT_TRUE(info.ok());
  PosTree tree(&store, ChunkType::kMapLeaf, info->root);

  Rng rng(9);
  std::vector<KeyedOp> ops;
  // Updates of existing keys.
  for (int i = 0; i < 50; ++i) {
    const auto& key = kvs[rng.Uniform(kvs.size())].first;
    std::string value = rng.NextString(10);
    ops.push_back(KeyedOp{key, value});
    reference[key] = value;
  }
  // Inserts of new keys.
  for (int i = 0; i < 50; ++i) {
    std::string key = "zzz" + rng.NextString(8);
    std::string value = rng.NextString(10);
    ops.push_back(KeyedOp{key, value});
    reference[key] = value;
  }
  // Deletes (existing and non-existing).
  for (int i = 0; i < 25; ++i) {
    const auto& key = kvs[rng.Uniform(kvs.size())].first;
    ops.push_back(KeyedOp{key, std::nullopt});
    reference.erase(key);
  }
  ops.push_back(KeyedOp{"not-present", std::nullopt});

  auto updated = tree.ApplyKeyedOps(ops);
  ASSERT_TRUE(updated.ok());
  PosTree new_tree(&store, ChunkType::kMapLeaf, updated->root);
  auto entries = new_tree.Entries();
  ASSERT_TRUE(entries.ok());
  std::vector<std::pair<std::string, std::string>> expected(reference.begin(),
                                                            reference.end());
  EXPECT_EQ(*entries, expected);
  ASSERT_TRUE(new_tree.Validate().ok());
}

TEST(PosTreeApplyOpsTest, UpdateEqualsFromScratchBuild) {
  // Structural invariance under mutation: applying ops must give the exact
  // tree a from-scratch build of the resulting record set gives.
  MemChunkStore store;
  auto kvs = MakeKvs(4000, 5);
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  ASSERT_TRUE(info.ok());
  PosTree tree(&store, ChunkType::kMapLeaf, info->root);

  std::map<std::string, std::string> reference(kvs.begin(), kvs.end());
  std::vector<KeyedOp> ops{{kvs[100].first, std::string("new-value")},
                           {kvs[200].first, std::nullopt},
                           {std::string("brand-new-key"), std::string("v")}};
  for (const auto& op : ops) {
    if (op.value) reference[op.key] = *op.value;
    else reference.erase(op.key);
  }
  auto incremental = tree.ApplyKeyedOps(ops);
  ASSERT_TRUE(incremental.ok());

  MemChunkStore fresh;
  auto scratch = PosTree::BuildKeyed(
      &fresh, ChunkType::kMapLeaf,
      std::vector<std::pair<std::string, std::string>>(reference.begin(),
                                                       reference.end()));
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(incremental->root, scratch->root);
}

TEST(PosTreeApplyOpsTest, LastWinsForDuplicateOps) {
  MemChunkStore store;
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, {});
  ASSERT_TRUE(info.ok());
  PosTree tree(&store, ChunkType::kMapLeaf, info->root);
  auto updated = tree.ApplyKeyedOps({{std::string("k"), std::string("first")},
                                     {std::string("k"), std::string("last")}});
  ASSERT_TRUE(updated.ok());
  PosTree t2(&store, ChunkType::kMapLeaf, updated->root);
  auto v = t2.Lookup("k");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->has_value());
  EXPECT_EQ(**v, "last");
}

// ----------------------------------------------------------- List / blob --

TEST(PosTreeListTest, ElementAccessMatchesVector) {
  MemChunkStore store;
  Rng rng(11);
  std::vector<std::string> elems;
  for (int i = 0; i < 5000; ++i) elems.push_back(rng.NextString(16));
  auto info = PosTree::BuildList(&store, elems);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->count, elems.size());
  PosTree tree(&store, ChunkType::kListLeaf, info->root);
  for (uint64_t i : {0ull, 1ull, 999ull, 4999ull}) {
    auto e = tree.Element(i);
    ASSERT_TRUE(e.ok()) << i;
    EXPECT_EQ(*e, elems[i]);
  }
  EXPECT_TRUE(tree.Element(5000).status().IsNotFound());
  ASSERT_TRUE(tree.Validate().ok());
}

TEST(PosTreeListTest, SpliceMatchesVectorSplice) {
  MemChunkStore store;
  Rng rng(13);
  std::vector<std::string> elems;
  for (int i = 0; i < 1000; ++i) elems.push_back(rng.NextString(8));
  auto info = PosTree::BuildList(&store, elems);
  ASSERT_TRUE(info.ok());
  PosTree tree(&store, ChunkType::kListLeaf, info->root);

  std::vector<std::string> inserts{"alpha", "beta", "gamma"};
  auto spliced = tree.SpliceElements(200, 50, inserts);
  ASSERT_TRUE(spliced.ok());

  std::vector<std::string> expected(elems.begin(), elems.begin() + 200);
  expected.insert(expected.end(), inserts.begin(), inserts.end());
  expected.insert(expected.end(), elems.begin() + 250, elems.end());

  MemChunkStore fresh;
  auto scratch = PosTree::BuildList(&fresh, expected);
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(spliced->root, scratch->root)
      << "splice must equal from-scratch build (structural invariance)";
}

TEST(PosTreeBlobTest, ReadBytesMatchesSource) {
  MemChunkStore store;
  std::string data = Rng(15).NextBytes(200000);
  auto info = PosTree::BuildBlob(&store, data);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->count, data.size());
  PosTree tree(&store, ChunkType::kBlobLeaf, info->root,
               TreeConfig::ForBlob());
  std::string out;
  ASSERT_TRUE(tree.ReadBytes(0, data.size(), &out).ok());
  EXPECT_EQ(out, data);
  ASSERT_TRUE(tree.ReadBytes(12345, 678, &out).ok());
  EXPECT_EQ(out, data.substr(12345, 678));
  ASSERT_TRUE(tree.ReadBytes(199999, 100, &out).ok());
  EXPECT_EQ(out, data.substr(199999));  // clamped at the end
  ASSERT_TRUE(tree.Validate().ok());
}

TEST(PosTreeBlobTest, SpliceBytesEqualsFromScratch) {
  MemChunkStore store;
  std::string data = Rng(17).NextBytes(100000);
  auto info = PosTree::BuildBlob(&store, data);
  ASSERT_TRUE(info.ok());
  PosTree tree(&store, ChunkType::kBlobLeaf, info->root,
               TreeConfig::ForBlob());
  std::string insert = Rng(18).NextBytes(777);
  auto spliced = tree.SpliceBytes(50000, 1000, insert);
  ASSERT_TRUE(spliced.ok());

  std::string expected = data.substr(0, 50000) + insert + data.substr(51000);
  MemChunkStore fresh;
  auto scratch = PosTree::BuildBlob(&fresh, expected);
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(spliced->root, scratch->root);
  EXPECT_EQ(spliced->count, expected.size());
}

TEST(PosTreeBlobTest, AppendViaSpliceAtEnd) {
  MemChunkStore store;
  std::string data = Rng(19).NextBytes(10000);
  auto info = PosTree::BuildBlob(&store, data);
  ASSERT_TRUE(info.ok());
  PosTree tree(&store, ChunkType::kBlobLeaf, info->root,
               TreeConfig::ForBlob());
  auto appended = tree.SpliceBytes(data.size(), 0, "TAIL");
  ASSERT_TRUE(appended.ok());
  PosTree t2(&store, ChunkType::kBlobLeaf, appended->root,
             TreeConfig::ForBlob());
  std::string out;
  ASSERT_TRUE(t2.ReadBytes(data.size(), 4, &out).ok());
  EXPECT_EQ(out, "TAIL");
}

// ------------------------------------------------------------ Validation --

// Stores a copy of index node `id` with `edit` applied to its entries.
Hash256 RewriteIndexNode(
    MemChunkStore* store, const Hash256& id,
    const std::function<void(std::vector<IndexEntry>*)>& edit) {
  auto node = store->Get(id);
  EXPECT_TRUE(node.ok() && node->type() == ChunkType::kMeta);
  std::vector<IndexEntry> entries;
  EXPECT_TRUE(ParseIndexEntries(node->payload(), &entries));
  EXPECT_GE(entries.size(), 2u);
  edit(&entries);
  std::string payload;
  for (const auto& e : entries) payload += EncodeIndexEntry(e);
  Chunk rewritten = Chunk::Make(ChunkType::kMeta, payload);
  EXPECT_TRUE(store->Put(rewritten).ok());
  return rewritten.hash();
}

TEST(PosTreeValidateTest, DetectsTamperedLeaf) {
  // Each case corrupts a fresh copy of one three-level map and returns the
  // root to validate (as a tree of `leaf_type`).
  struct Case {
    const char* name;
    std::function<Hash256(MemChunkStore*, const Hash256& root,
                          const std::vector<Hash256>& level_order)>
        tamper;
    ChunkType leaf_type = ChunkType::kMapLeaf;
  };
  // Flips a byte of chunk pick(n) of the n in level order.
  auto flip = [](std::function<size_t(size_t)> pick, ChunkType expect) {
    return [pick, expect](MemChunkStore* store, const Hash256& root,
                          const std::vector<Hash256>& chunks) {
      const Hash256 id = chunks[pick(chunks.size())];
      EXPECT_EQ(store->Get(id)->type(), expect);
      EXPECT_TRUE(store->TamperForTesting(id, 5, 0x01));
      return root;
    };
  };
  const std::vector<Case> cases = {
      {"root byte", flip([](size_t) { return 0; }, ChunkType::kMeta)},
      {"inner index node byte",
       flip([](size_t) { return 1; }, ChunkType::kMeta)},
      {"leaf byte", flip([](size_t n) { return n / 2; }, ChunkType::kMapLeaf)},
      {"index entry count",
       [](MemChunkStore* store, const Hash256& root,
          const std::vector<Hash256>&) {
         return RewriteIndexNode(store, root, [](auto* entries) {
           (*entries)[0].count += 1;
         });
       }},
      {"split key not the subtree max",
       [](MemChunkStore* store, const Hash256& root,
          const std::vector<Hash256>&) {
         return RewriteIndexNode(store, root, [](auto* entries) {
           (*entries)[0].key.pop_back();
         });
       }},
      {"split keys out of order",
       [](MemChunkStore* store, const Hash256& root,
          const std::vector<Hash256>&) {
         return RewriteIndexNode(store, root, [](auto* entries) {
           std::swap((*entries)[0], (*entries)[1]);
         });
       }},
      {"leaf of the wrong type",
       [](MemChunkStore*, const Hash256& root, const std::vector<Hash256>&) {
         return root;
       },
       ChunkType::kSetLeaf},
  };
  auto kvs = MakeKvs(20000, 23);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    MemChunkStore store;
    auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
    ASSERT_TRUE(info.ok());
    ASSERT_GE(info->height, 3u);
    PosTree tree(&store, ChunkType::kMapLeaf, info->root);
    ASSERT_TRUE(tree.Validate().ok());
    std::vector<Hash256> chunks;
    ASSERT_TRUE(tree.ReachableChunks(&chunks).ok());
    const Hash256 root = c.tamper(&store, info->root, chunks);
    Status tampered = PosTree(&store, c.leaf_type, root).Validate();
    EXPECT_TRUE(tampered.IsCorruption()) << tampered.ToString();
  }
}

TEST(PosTreeValidateTest, RepeatedIdenticalLeavesValidate) {
  MemChunkStore store;
  auto list = PosTree::BuildList(
      &store, std::vector<std::string>(20000, "the same element"));
  auto blob = PosTree::BuildBlob(&store, std::string(1 << 18, 'a'));
  ASSERT_TRUE(list.ok() && blob.ok());
  for (const PosTree& tree :
       {PosTree(&store, ChunkType::kListLeaf, list->root),
        PosTree(&store, ChunkType::kBlobLeaf, blob->root,
                TreeConfig::ForBlob())}) {
    std::vector<Hash256> chunks;
    ASSERT_TRUE(tree.ReachableChunks(&chunks).ok());
    std::set<Hash256> distinct(chunks.begin(), chunks.end());
    ASSERT_LT(distinct.size(), chunks.size()) << "no leaf repeats";
    EXPECT_TRUE(tree.Validate().ok());
    auto shape = tree.Shape();
    ASSERT_TRUE(shape.ok());
    EXPECT_EQ(shape->total_nodes, chunks.size());
  }
}

TEST(PosTreeValidateTest, EmptyFirstKeyValidates) {
  // Keys ascend across leaves; the empty key is the smallest legal one.
  MemChunkStore store;
  auto kvs = MakeKvs(5000, 37);
  kvs.insert(kvs.begin(), {"", "empty"});
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  ASSERT_TRUE(info.ok());
  ASSERT_GE(info->height, 2u);
  EXPECT_TRUE(PosTree(&store, ChunkType::kMapLeaf, info->root).Validate().ok());
}

TEST(PosTreeValidateTest, DetectsMissingChunk) {
  MemChunkStore store;
  auto kvs = MakeKvs(5000, 29);
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  ASSERT_TRUE(info.ok());
  PosTree tree(&store, ChunkType::kMapLeaf, info->root);
  std::vector<Hash256> chunks;
  ASSERT_TRUE(tree.ReachableChunks(&chunks).ok());
  ASSERT_TRUE(store.Erase(std::vector<Hash256>{chunks.back()}).ok());
  EXPECT_FALSE(tree.Validate().ok());
}

TEST(PosTreeShapeTest, CountsAddUp) {
  MemChunkStore store;
  auto kvs = MakeKvs(10000, 31);
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  ASSERT_TRUE(info.ok());
  PosTree tree(&store, ChunkType::kMapLeaf, info->root);
  auto shape = tree.Shape();
  ASSERT_TRUE(shape.ok());
  EXPECT_EQ(shape->total_nodes, shape->leaf_nodes + shape->index_nodes);
  EXPECT_EQ(shape->entries, kvs.size());
  std::vector<Hash256> chunks;
  ASSERT_TRUE(tree.ReachableChunks(&chunks).ok());
  EXPECT_EQ(chunks.size(), shape->total_nodes);
}

// ------------------------------------- Batched sweeps against serial walks --

// Leaves to fault: the first, and both sides of the edges at which the
// table scan (runs of 16, rounds of 128 leaves) and the batched sweeps (runs
// of 64, rounds of 512 ids) cut a level for their parallel readers.
const size_t kFaultLeaves[] = {0,   15,  16,  63,  64,  127, 128,
                               255, 256, 257, 511, 512, 513};

// A tree of `type` with more leaves than the last fault position.
PosTree BuildSweepTree(MemChunkStore* store, ChunkType type) {
  StatusOr<TreeInfo> info = Status::InvalidArgument("type");
  if (type == ChunkType::kMapLeaf) {
    info = PosTree::BuildKeyed(store, type, MakeKvs(40000, 41));
  } else if (type == ChunkType::kListLeaf) {
    std::vector<std::string> elements;
    Rng rng(42);
    for (int i = 0; i < 44000; ++i) elements.push_back(rng.NextString(30));
    info = PosTree::BuildList(store, elements);
  } else {
    Rng rng(43);
    info = PosTree::BuildBlob(store, rng.NextString(3000000));
  }
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  return PosTree(store, type, info->root,
                 type == ChunkType::kBlobLeaf ? TreeConfig::ForBlob()
                                              : TreeConfig::ForEntries());
}

// Erases chunk `id`, or flips its type byte to kTableMeta (neither a leaf
// nor an index node), until destroyed.
class ScopedFault {
 public:
  ScopedFault(MemChunkStore* store, const Hash256& id, bool missing)
      : store_(store), id_(id), chunk_(*store->Get(id)), missing_(missing) {
    if (missing_) {
      EXPECT_TRUE(store_->Erase(std::vector<Hash256>{id_}).ok());
    } else {
      EXPECT_TRUE(store_->TamperForTesting(id_, 0, Mask()));
    }
  }
  ~ScopedFault() {
    if (missing_) {
      EXPECT_TRUE(store_->Put(chunk_).ok());
    } else {
      EXPECT_TRUE(store_->TamperForTesting(id_, 0, Mask()));
    }
  }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  uint8_t Mask() const {
    return static_cast<uint8_t>(chunk_.type()) ^
           static_cast<uint8_t>(ChunkType::kTableMeta);
  }
  MemChunkStore* store_;
  Hash256 id_;
  Chunk chunk_;
  bool missing_;
};

// What a walk saw before it stopped, and the status it stopped with.
struct Seen {
  std::vector<std::string> items;
  Status status;
};

void ExpectSameSeen(const Seen& got, const Seen& want) {
  EXPECT_EQ(got.status.code(), want.status.code())
      << got.status.ToString() << " vs " << want.status.ToString();
  EXPECT_EQ(got.items.size(), want.items.size());
  EXPECT_TRUE(got.items == want.items);
}

// Validate's reference: the serial cursor walk of the same tree. A blob's
// Validate has no entry visitor, so only the statuses are compared.
Seen CursorWalk(const PosTree& tree) {
  Seen seen;
  if (tree.leaf_type() == ChunkType::kBlobLeaf) {
    std::string bytes;
    seen.status = tree.ReadBytes(0, UINT64_MAX / 2, &bytes);
    return seen;
  }
  seen.status = tree.Scan([&](const EntryView& e) {
    seen.items.push_back(e.raw.ToString());
    return Status::OK();
  });
  return seen;
}

Seen ValidateWalk(const PosTree& tree) {
  Seen seen;
  seen.status = tree.Validate([&](const EntryView& e) {
    seen.items.push_back(e.raw.ToString());
    return Status::OK();
  });
  return seen;
}

// ReachableChunks' reference: the tree's chunks in level order, one Get
// each, with WalkLevels' rules (a chunk that is not an index node is a
// leaf; an index node has children; leaves sit at one depth).
Seen SerialLevelOrder(const ChunkStore& store, const Hash256& root) {
  Seen seen;
  std::vector<Hash256> level{root};
  while (!level.empty()) {
    std::vector<Hash256> next;
    bool leaves = false;
    for (const Hash256& id : level) {
      StatusOr<Chunk> chunk = store.Get(id);
      if (!chunk.ok()) {
        seen.status = chunk.status();
        return seen;
      }
      std::vector<IndexEntry> children;
      if (chunk->type() != ChunkType::kMeta) {
        leaves = true;
      } else if (!ParseIndexEntries(chunk->payload(), &children) ||
                 children.empty() || leaves) {
        seen.status = Status::Corruption("bad index node");
        return seen;
      }
      if (leaves && !next.empty()) {
        seen.status = Status::Corruption("leaves at multiple depths");
        return seen;
      }
      seen.items.push_back(id.ToBase32());
      for (const IndexEntry& e : children) next.push_back(e.child);
    }
    level = std::move(next);
  }
  return seen;
}

Seen ReachableWalk(const PosTree& tree) {
  Seen seen;
  std::vector<Hash256> ids;
  seen.status = tree.ReachableChunks(&ids);
  for (const Hash256& id : ids) seen.items.push_back(id.ToBase32());
  return seen;
}

// MarkLive's reference: a serial breadth-first mark, one Get per unseen
// id, each chunk's references expanded as GC expands them.
Seen SerialMark(const ChunkStore& store, const Hash256& root) {
  Seen seen;
  std::unordered_set<Hash256, Hash256Hasher> marked;
  std::vector<Hash256> wave{root};
  while (!wave.empty()) {
    std::vector<Hash256> next;
    for (const Hash256& id : wave) {
      if (!marked.insert(id).second) continue;
      StatusOr<Chunk> chunk = store.Get(id);
      if (!chunk.ok()) {
        seen.status = chunk.status();
        return seen;
      }
      seen.status = AppendTreeChildren(*chunk, &next);
      if (!seen.status.ok()) return seen;
      seen.items.push_back(chunk->hash().ToBase32());
    }
    wave = std::move(next);
  }
  return seen;
}

Seen MarkWalk(const ChunkStore& store, const Hash256& root) {
  Seen seen;
  seen.status = MarkLive(store, {root}, /*exclude=*/nullptr,
                         [&](const Chunk& chunk) {
                           seen.items.push_back(chunk.hash().ToBase32());
                           return Status::OK();
                         })
                    .status();
  return seen;
}

TEST(BatchedSweepTest, MatchSerialWalksAroundRunAndRoundEdges) {
  for (ChunkType type :
       {ChunkType::kMapLeaf, ChunkType::kListLeaf, ChunkType::kBlobLeaf}) {
    SCOPED_TRACE(ChunkTypeToString(type));
    MemChunkStore store;
    const PosTree tree = BuildSweepTree(&store, type);
    std::vector<Hash256> leaves;
    ASSERT_TRUE(tree.LeafIds(&leaves).ok());
    ASSERT_GT(leaves.size(), 520u);
    ASSERT_GE(tree.Shape()->height, 3u);
    {
      SCOPED_TRACE("intact");
      EXPECT_TRUE(ValidateWalk(tree).status.ok());
      ExpectSameSeen(ValidateWalk(tree), CursorWalk(tree));
      ExpectSameSeen(ReachableWalk(tree), SerialLevelOrder(store, tree.root()));
      ExpectSameSeen(MarkWalk(store, tree.root()),
                     SerialMark(store, tree.root()));
    }
    for (bool missing : {true, false}) {
      for (size_t leaf : kFaultLeaves) {
        SCOPED_TRACE(std::string(missing ? "missing" : "type-flipped") +
                     " leaf " + std::to_string(leaf));
        ScopedFault fault(&store, leaves[leaf], missing);
        const Seen validate = ValidateWalk(tree);
        EXPECT_EQ(validate.status.code(), missing ? StatusCode::kNotFound
                                                  : StatusCode::kCorruption)
            << validate.status.ToString();
        ExpectSameSeen(validate, CursorWalk(tree));
        ExpectSameSeen(ReachableWalk(tree),
                       SerialLevelOrder(store, tree.root()));
        ExpectSameSeen(MarkWalk(store, tree.root()),
                       SerialMark(store, tree.root()));
      }
    }
  }
}

}  // namespace
}  // namespace forkbase
