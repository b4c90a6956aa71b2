// Unit tests for the POS-Tree: builder canonicalization, lookup/positional
// access against reference containers, functional mutation, validation and
// tamper detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <thread>
#include <unordered_set>

#include "chunk/mem_chunk_store.h"
#include "postree/tree.h"
#include "store/gc.h"
#include "testing/serial_walk.h"
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
// leaf walk (runs of 16, rounds of 128 leaves) and the batched sweeps (runs
// of 64, rounds of 512 ids) cut a level for their parallel readers.
const size_t kFaultLeaves[] = {0,   15,  16,  63,  64,  127, 128,
                               255, 256, 257, 511, 512, 513};

// A tree of `type` with more leaves than the last fault position.
PosTree BuildSweepTree(MemChunkStore* store, ChunkType type) {
  StatusOr<TreeInfo> info = Status::InvalidArgument("type");
  if (type == ChunkType::kMapLeaf) {
    info = PosTree::BuildKeyed(store, type, MakeKvs(40000, 41));
  } else if (type == ChunkType::kSetLeaf) {
    auto keys = MakeKvs(120000, 44);
    for (auto& kv : keys) kv.second.clear();
    info = PosTree::BuildKeyed(store, type, keys);
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

// With `same_message`, the statuses must match in full, not just in class.
void ExpectSameSeen(const Seen& got, const Seen& want,
                    bool same_message = false) {
  EXPECT_EQ(got.status.code(), want.status.code())
      << got.status.ToString() << " vs " << want.status.ToString();
  if (same_message) EXPECT_EQ(got.status.ToString(), want.status.ToString());
  EXPECT_EQ(got.items.size(), want.items.size());
  EXPECT_TRUE(got.items == want.items);
}

// The serial reference walk of a tree (testing/serial_walk.h): each entry's
// raw bytes, or for a blob one item of every byte before the walk stopped.
Seen SerialWalk(const ChunkStore& store, const PosTree& tree) {
  Seen seen;
  if (tree.leaf_type() == ChunkType::kBlobLeaf) {
    std::string bytes;
    seen.status = SerialLeafWalk(store, tree.root(), [&](const Chunk& leaf) {
      bytes.append(leaf.payload().data(), leaf.payload().size());
      return Status::OK();
    });
    seen.items.push_back(std::move(bytes));
    return seen;
  }
  seen.status = SerialScan(store, tree.root(), [&](const EntryView& e) {
    seen.items.push_back(e.raw.ToString());
    return Status::OK();
  });
  return seen;
}

// The same through the leaf walk: Scan, or a blob's ReadBytes of it all.
Seen LeafWalk(const PosTree& tree) {
  Seen seen;
  if (tree.leaf_type() == ChunkType::kBlobLeaf) {
    std::string bytes;
    seen.status = tree.ReadBytes(0, UINT64_MAX, &bytes);
    seen.items.push_back(std::move(bytes));
    return seen;
  }
  seen.status = tree.Scan([&](const EntryView& e) {
    seen.items.push_back(e.raw.ToString());
    return Status::OK();
  });
  return seen;
}

// Validate's reference is the serial walk too. A blob's Validate has no
// entry visitor, so only the statuses are compared.
Seen ValidateReference(const ChunkStore& store, const PosTree& tree) {
  Seen seen = SerialWalk(store, tree);
  if (tree.leaf_type() == ChunkType::kBlobLeaf) seen.items.clear();
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
  for (ChunkType type : {ChunkType::kMapLeaf, ChunkType::kSetLeaf,
                         ChunkType::kListLeaf, ChunkType::kBlobLeaf}) {
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
      ExpectSameSeen(ValidateWalk(tree), ValidateReference(store, tree));
      ExpectSameSeen(LeafWalk(tree), SerialWalk(store, tree), true);
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
        ExpectSameSeen(validate, ValidateReference(store, tree));
        ExpectSameSeen(LeafWalk(tree), SerialWalk(store, tree), true);
        ExpectSameSeen(ReachableWalk(tree),
                       SerialLevelOrder(store, tree.root()));
        ExpectSameSeen(MarkWalk(store, tree.root()),
                       SerialMark(store, tree.root()));
      }
    }
  }
}

// ------------------------------------------- Leaf walk vs the serial walk --

// A tree made of exactly the first `leaves` leaves of `big`: its entries
// (blob: bytes) are a prefix of big's that ends on one of its leaf
// boundaries, and cut points depend only on the bytes since a node start.
PosTree PrefixTree(MemChunkStore* store, const PosTree& big, size_t leaves) {
  const ChunkType type = big.leaf_type();
  std::vector<std::pair<std::string, std::string>> kvs;
  std::vector<std::string> elements;
  std::string bytes;
  std::vector<EntryView> entries;
  size_t seen = 0;
  (void)SerialLeafWalk(*store, big.root(), [&](const Chunk& leaf) -> Status {
    if (seen++ == leaves) return Status::Unavailable("enough leaves");
    if (type == ChunkType::kBlobLeaf) {
      bytes.append(leaf.payload().data(), leaf.payload().size());
      return Status::OK();
    }
    EXPECT_TRUE(ParseLeafEntries(type, leaf.payload(), &entries));
    for (const EntryView& e : entries) {
      if (type == ChunkType::kListLeaf) {
        elements.push_back(e.value.ToString());
      } else {
        kvs.emplace_back(e.key.ToString(), e.value.ToString());
      }
    }
    return Status::OK();
  });
  EXPECT_EQ(seen, leaves + 1) << "base tree too small";
  StatusOr<TreeInfo> info =
      type == ChunkType::kBlobLeaf   ? PosTree::BuildBlob(store, bytes)
      : type == ChunkType::kListLeaf ? PosTree::BuildList(store, elements)
                                     : PosTree::BuildKeyed(store, type, kvs);
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  PosTree tree(store, type, info->root, big.config());
  if (leaves > 0) {
    std::vector<Hash256> ids;
    EXPECT_TRUE(tree.LeafIds(&ids).ok());
    EXPECT_EQ(ids.size(), leaves);
  }
  return tree;
}

// Entries (blob: bytes) held by the tree's first `leaves` leaves.
uint64_t PositionOfLeaf(const ChunkStore& store, const PosTree& tree,
                        size_t leaves) {
  std::vector<Hash256> ids;
  EXPECT_TRUE(tree.LeafIds(&ids).ok());
  uint64_t pos = 0;
  for (size_t i = 0; i < leaves; ++i) {
    auto leaf = store.Get(ids[i]);
    EXPECT_TRUE(leaf.ok());
    pos += *LeafEntryCount(leaf->type(), leaf->payload());
  }
  return pos;
}

constexpr ChunkType kAllLeafTypes[] = {ChunkType::kMapLeaf,
                                       ChunkType::kSetLeaf,
                                       ChunkType::kListLeaf,
                                       ChunkType::kBlobLeaf};

TEST(LeafWalkTest, MatchesTheSerialWalkAroundRunAndRoundEdges) {
  // Runs hold 16 leaves and rounds 8 runs (128 leaves).
  for (ChunkType type : kAllLeafTypes) {
    SCOPED_TRACE(ChunkTypeToString(type));
    MemChunkStore store;
    const PosTree big = BuildSweepTree(&store, type);
    ExpectSameSeen(LeafWalk(big), SerialWalk(store, big), true);
    for (size_t leaves : {0, 1, 15, 16, 17, 127, 128, 129, 255, 256, 257}) {
      SCOPED_TRACE("leaves " + std::to_string(leaves));
      const PosTree tree = PrefixTree(&store, big, leaves);
      const Seen want = SerialWalk(store, tree);
      ASSERT_TRUE(want.status.ok()) << want.status.ToString();
      ExpectSameSeen(LeafWalk(tree), want, true);
    }
  }
}

TEST(LeafWalkTest, StopAtEntryKMakesExactlyKPlusOneCallbacks) {
  for (ChunkType type :
       {ChunkType::kMapLeaf, ChunkType::kSetLeaf, ChunkType::kListLeaf}) {
    SCOPED_TRACE(ChunkTypeToString(type));
    MemChunkStore store;
    const PosTree tree =
        PrefixTree(&store, BuildSweepTree(&store, type), 300);
    const Seen all = SerialWalk(store, tree);
    const size_t run = PositionOfLeaf(store, tree, 16);
    const size_t round = PositionOfLeaf(store, tree, 128);
    for (size_t k : {size_t{0}, size_t{1}, run - 1, run, round - 1, round,
                     all.items.size() - 1}) {
      SCOPED_TRACE("stop at entry " + std::to_string(k));
      std::atomic<size_t> calls{0};
      std::vector<std::string> got;
      Status s = tree.Scan([&](const EntryView& e) -> Status {
        got.push_back(e.raw.ToString());
        if (calls.fetch_add(1) == k) return Status::Unavailable("stop");
        return Status::OK();
      });
      EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
      const size_t at_return = calls.load();
      EXPECT_EQ(at_return, k + 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      EXPECT_EQ(calls.load(), at_return) << "callback ran after Scan returned";
      ASSERT_EQ(got.size(), k + 1);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), all.items.begin()));
    }
  }
}

TEST(LeafWalkTest, ScanRangeMatchesTheFilteredSerialWalk) {
  for (ChunkType type : {ChunkType::kMapLeaf, ChunkType::kSetLeaf}) {
    SCOPED_TRACE(ChunkTypeToString(type));
    MemChunkStore store;
    const PosTree tree =
        PrefixTree(&store, BuildSweepTree(&store, type), 300);
    std::vector<std::pair<std::string, std::string>> all;  // key, raw
    ASSERT_TRUE(SerialScan(store, tree.root(), [&](const EntryView& e) {
                  all.emplace_back(e.key.ToString(), e.raw.ToString());
                  return Status::OK();
                }).ok());
    // Bounds: none, past every key, and the first and last key of the
    // leaves at the leaf walk's run and round edges.
    std::vector<std::string> bounds{"", "zzzz"};
    for (size_t leaf : {0, 1, 15, 16, 17, 127, 128, 129, 255, 256, 299}) {
      bounds.push_back(all[PositionOfLeaf(store, tree, leaf)].first);
      bounds.push_back(all[PositionOfLeaf(store, tree, leaf + 1) - 1].first);
    }
    for (const std::string& begin : bounds) {
      for (const std::string& end : bounds) {
        SCOPED_TRACE("[" + begin + ", " + end + ")");
        std::vector<std::string> want, got;
        for (const auto& [key, raw] : all) {
          if (key >= begin && (end.empty() || key < end)) want.push_back(raw);
        }
        ASSERT_TRUE(tree.ScanRange(begin, end, [&](const EntryView& e) {
                          got.push_back(e.raw.ToString());
                          return Status::OK();
                        })
                        .ok());
        EXPECT_TRUE(got == want) << got.size() << " vs " << want.size();
      }
    }
  }
}

TEST(LeafWalkTest, ReadBytesMatchesTheSerialBytes) {
  MemChunkStore store;
  const PosTree tree = PrefixTree(
      &store, BuildSweepTree(&store, ChunkType::kBlobLeaf), 300);
  const std::string all = SerialWalk(store, tree).items[0];
  std::vector<uint64_t> offsets{0, 1};
  for (size_t leaf : {1, 15, 16, 17, 127, 128, 129, 255, 256, 299}) {
    const uint64_t edge = PositionOfLeaf(store, tree, leaf);
    offsets.insert(offsets.end(), {edge - 1, edge, edge + 1});
  }
  offsets.insert(offsets.end(), {all.size() - 1, all.size(), all.size() + 1,
                                 all.size() + 5000});
  for (uint64_t offset : offsets) {
    for (uint64_t len : {uint64_t{0}, uint64_t{1}, uint64_t{2}, uint64_t{100},
                         uint64_t{9000}, uint64_t{70000}, UINT64_MAX}) {
      SCOPED_TRACE(std::to_string(offset) + "+" + std::to_string(len));
      std::string got = "stale";
      ASSERT_TRUE(tree.ReadBytes(offset, len, &got).ok());
      EXPECT_EQ(got, offset < all.size() ? all.substr(offset, len) : "");
    }
  }
}

TEST(LeafWalkTest, SplicesMatchGoldenRoots) {
  // Roots the cursor-driven splices produced for these inputs.
  MemChunkStore store;
  Rng rng(61);
  std::vector<std::string> elements;
  for (int i = 0; i < 5000; ++i) {
    elements.push_back(rng.NextString(1 + rng.Uniform(40)));
  }
  auto list = PosTree::BuildList(&store, elements);
  ASSERT_TRUE(list.ok());
  const PosTree list_tree(&store, ChunkType::kListLeaf, list->root);
  std::vector<std::string> inserts;
  for (int i = 0; i < 20; ++i) inserts.push_back(rng.NextString(10));
  struct Case {
    uint64_t at, remove;
    const char* root;
  };
  for (const Case& c :
       {Case{0, 0, "O55LRR67JUREEYCFJDVPXSR5B32IZILTXGTFGOQUWFASFLHIJ35A"},
        Case{0, 7, "ZJYHZSD2ZR36NAXZ5FPGQYASNG62Y2CQD3PXXX6NS6PV35WQWOVQ"},
        Case{1234, 50, "H4ATRJEX3CXO3LHYY7BN2FUO5IQD7GJUPQNTRGEKU6OORZ4P6NLA"},
        Case{4990, 100, "YX6GTVT4RR3TSEMDQJFDMQKQ6WTYIP2F4ME4XQNV243T7H56XKRA"},
        Case{5000, 0, "23F5XXXK532JFYJPGOM6LHKEGYJBASRJXVB7W6KWQID4FPPJQZ7A"},
        Case{7000, 3, "23F5XXXK532JFYJPGOM6LHKEGYJBASRJXVB7W6KWQID4FPPJQZ7A"}}) {
    auto spliced = list_tree.SpliceElements(c.at, c.remove, inserts);
    ASSERT_TRUE(spliced.ok());
    EXPECT_EQ(spliced->root.ToBase32(), c.root) << c.at << " " << c.remove;
  }
  auto blob = PosTree::BuildBlob(&store, rng.NextString(300000));
  ASSERT_TRUE(blob.ok());
  const PosTree blob_tree(&store, ChunkType::kBlobLeaf, blob->root,
                          TreeConfig::ForBlob());
  const std::string insert = rng.NextString(3000);
  for (const Case& c :
       {Case{0, 0, "3UMCHNBLITFVIK2K5P5LI2OHJAM5P3OJD7LBPDCL7HJNKW6OBDUA"},
        Case{0, 4000, "XNBUMYIWURBXJW34IRHSFRBEVFQ4TTO3WZZOY433JA5CXFHXZSHQ"},
        Case{100000, 5000,
             "MQZNQAEGHDR7EFJPFAQBUTTPRI7EZ7FGYY5CR6HHXWAZOFPXUBCA"},
        Case{299000, 5000,
             "XPXAZEHOIYMT6IVEPMMQ7MSB4IPFHKYMNPJSQLJZF6I3CEMFWJXA"},
        Case{300000, 0, "S2PWVCMT7OKVXH2D6EOKDWVE3ZI3CFSUTWLSLILDMZSM6ZKGBIHA"},
        Case{400000, 10,
             "S2PWVCMT7OKVXH2D6EOKDWVE3ZI3CFSUTWLSLILDMZSM6ZKGBIHA"}}) {
    auto spliced = blob_tree.SpliceBytes(c.at, c.remove, insert);
    ASSERT_TRUE(spliced.ok());
    EXPECT_EQ(spliced->root.ToBase32(), c.root) << c.at << " " << c.remove;
  }
}

TEST(LeafWalkTest, RangeReadsLoadHeightPlusRangeChunks) {
  // LeafIds reads the kept nodes of each level, and of the leaf level only
  // the first; the walk then reads each other kept leaf once. A range that
  // spans k leaves keeps one node at the root and at most k on each level
  // below it, so a range read costs at most 1 + k * (height - 1) loads.
  MemChunkStore store;
  auto loads_of = [&store](const std::function<Status()>& read) {
    const uint64_t before = store.stats().get_calls;
    EXPECT_TRUE(read().ok());
    return store.stats().get_calls - before;
  };
  auto check = [&](const PosTree& tree, uint32_t height,
                   const LeafRange& range,
                   const std::function<Status()>& read) {
    std::vector<Hash256> kept;
    const uint64_t index_loads =
        loads_of([&] { return tree.LeafIds(&kept, range); });
    ASSERT_GE(kept.size(), 1u);
    const uint64_t walk_loads = loads_of(read);
    EXPECT_EQ(walk_loads, index_loads + kept.size() - 1);
    EXPECT_LE(walk_loads, 1 + kept.size() * (height - 1));
  };
  const auto kvs = MakeKvs(100000, 45);
  auto map = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  ASSERT_TRUE(map.ok());
  ASSERT_GE(map->height, 3u);
  const PosTree map_tree(&store, ChunkType::kMapLeaf, map->root);
  std::vector<Hash256> leaves;
  ASSERT_TRUE(map_tree.LeafIds(&leaves).ok());
  ASSERT_GT(leaves.size(), 1000u);
  // The fourth range straddles the first two leaves.
  auto first_leaf = store.Get(leaves[0]);
  ASSERT_TRUE(first_leaf.ok());
  std::vector<EntryView> first_entries;
  ASSERT_TRUE(ParseLeafEntries(ChunkType::kMapLeaf, first_leaf->payload(),
                               &first_entries));
  ASSERT_GE(first_entries.size(), 5u);
  for (size_t at : {size_t{0}, kvs.size() / 2, kvs.size() - 11,
                    first_entries.size() - 5}) {
    SCOPED_TRACE("keys from " + std::to_string(at));
    const Slice begin = kvs[at].first, end = kvs[at + 10].first;
    size_t n = 0;
    check(map_tree, map->height, LeafRange::Keys(begin, end), [&] {
      return map_tree.ScanRange(begin, end, [&n](const EntryView&) {
        ++n;
        return Status::OK();
      });
    });
    EXPECT_EQ(n, 10u);
  }
  auto blob = PosTree::BuildBlob(&store, Rng(46).NextString(4 << 20));
  ASSERT_TRUE(blob.ok());
  ASSERT_GE(blob->height, 3u);
  const PosTree blob_tree(&store, ChunkType::kBlobLeaf, blob->root,
                          TreeConfig::ForBlob());
  ASSERT_TRUE(blob_tree.LeafIds(&leaves).ok());
  ASSERT_GT(leaves.size(), 500u);
  for (uint64_t offset : {uint64_t{1} << 20, (uint64_t{4} << 20) - 100}) {
    SCOPED_TRACE("bytes from " + std::to_string(offset));
    std::string out;
    check(blob_tree, blob->height, LeafRange::Positions(offset, offset + 100),
          [&] { return blob_tree.ReadBytes(offset, 100, &out); });
    EXPECT_EQ(out.size(), 100u);
  }
}

}  // namespace
}  // namespace forkbase
