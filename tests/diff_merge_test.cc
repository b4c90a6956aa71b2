// Tests for hash-pruned Diff (Fig. 5 semantics) and three-way merge
// (Fig. 3 semantics) at the POS-Tree level, and for the merge base the
// version DAG picks for them.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "chunk/mem_chunk_store.h"
#include "postree/diff.h"
#include "postree/merge.h"
#include "store/commit_graph.h"
#include "store/forkbase.h"
#include "util/random.h"

namespace forkbase {
namespace {

std::vector<std::pair<std::string, std::string>> MakeKvs(size_t n,
                                                         uint64_t seed) {
  Rng rng(seed);
  std::map<std::string, std::string> sorted;
  while (sorted.size() < n) {
    sorted["key" + rng.NextString(12)] = rng.NextString(24);
  }
  return {sorted.begin(), sorted.end()};
}

PosTree BuildMap(MemChunkStore* store,
                 const std::vector<std::pair<std::string, std::string>>& kvs) {
  auto info = PosTree::BuildKeyed(store, ChunkType::kMapLeaf, kvs);
  EXPECT_TRUE(info.ok());
  return PosTree(store, ChunkType::kMapLeaf, info->root);
}

// ------------------------------------------------------------- DiffKeyed --

TEST(DiffKeyedTest, IdenticalTreesDiffEmpty) {
  MemChunkStore store;
  auto kvs = MakeKvs(1000, 1);
  PosTree a = BuildMap(&store, kvs);
  PosTree b = BuildMap(&store, kvs);
  DiffMetrics metrics;
  auto deltas = DiffKeyed(a, b, &metrics);
  ASSERT_TRUE(deltas.ok());
  EXPECT_TRUE(deltas->empty());
  EXPECT_EQ(metrics.nodes_loaded, 0u) << "equal roots must prune instantly";
}

TEST(DiffKeyedTest, FindsSingleModification) {
  MemChunkStore store;
  auto kvs = MakeKvs(5000, 2);
  PosTree a = BuildMap(&store, kvs);
  auto edited = a.ApplyKeyedOps({{kvs[2500].first, std::string("changed")}});
  ASSERT_TRUE(edited.ok());
  PosTree b(&store, ChunkType::kMapLeaf, edited->root);

  auto deltas = DiffKeyed(a, b);
  ASSERT_TRUE(deltas.ok());
  ASSERT_EQ(deltas->size(), 1u);
  EXPECT_EQ((*deltas)[0].key, kvs[2500].first);
  EXPECT_TRUE((*deltas)[0].modified());
  EXPECT_EQ(*(*deltas)[0].left, kvs[2500].second);
  EXPECT_EQ(*(*deltas)[0].right, "changed");
}

TEST(DiffKeyedTest, FindsAddsAndRemoves) {
  MemChunkStore store;
  auto kvs = MakeKvs(2000, 3);
  PosTree a = BuildMap(&store, kvs);
  auto edited = a.ApplyKeyedOps({{std::string("zzznew"), std::string("v")},
                                 {kvs[10].first, std::nullopt}});
  ASSERT_TRUE(edited.ok());
  PosTree b(&store, ChunkType::kMapLeaf, edited->root);
  auto deltas = DiffKeyed(a, b);
  ASSERT_TRUE(deltas.ok());
  ASSERT_EQ(deltas->size(), 2u);
  // Sorted by key: the removed kvs[10] key starts with "key", before "zzz".
  EXPECT_TRUE((*deltas)[0].removed());
  EXPECT_EQ((*deltas)[0].key, kvs[10].first);
  EXPECT_TRUE((*deltas)[1].added());
  EXPECT_EQ((*deltas)[1].key, "zzznew");
}

class DiffAgreementTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DiffAgreementTest, PrunedDiffEqualsElementwiseDiff) {
  const size_t edits = GetParam();
  MemChunkStore store;
  auto kvs = MakeKvs(8000, 40 + edits);
  PosTree a = BuildMap(&store, kvs);

  Rng rng(50 + edits);
  std::vector<KeyedOp> ops;
  for (size_t i = 0; i < edits; ++i) {
    switch (rng.Uniform(3)) {
      case 0:  // modify
        ops.push_back(KeyedOp{kvs[rng.Uniform(kvs.size())].first,
                              rng.NextString(10)});
        break;
      case 1:  // insert
        ops.push_back(KeyedOp{"new" + rng.NextString(10), rng.NextString(10)});
        break;
      default:  // delete
        ops.push_back(KeyedOp{kvs[rng.Uniform(kvs.size())].first,
                              std::nullopt});
    }
  }
  auto edited = a.ApplyKeyedOps(ops);
  ASSERT_TRUE(edited.ok());
  PosTree b(&store, ChunkType::kMapLeaf, edited->root);

  DiffMetrics pruned_metrics;
  auto pruned = DiffKeyed(a, b, &pruned_metrics);
  auto element = DiffKeyedElementwise(a, b);
  ASSERT_TRUE(pruned.ok());
  ASSERT_TRUE(element.ok());
  ASSERT_EQ(pruned->size(), element->size());
  for (size_t i = 0; i < pruned->size(); ++i) {
    EXPECT_EQ((*pruned)[i].key, (*element)[i].key);
    EXPECT_EQ((*pruned)[i].left, (*element)[i].left);
    EXPECT_EQ((*pruned)[i].right, (*element)[i].right);
  }
}

INSTANTIATE_TEST_SUITE_P(EditCounts, DiffAgreementTest,
                         ::testing::Values(1, 4, 16, 64, 256));

TEST(DiffKeyedTest, PruningBoundsWork) {
  // O(D log N): a single edit in a large tree must load far fewer nodes
  // than the tree holds.
  MemChunkStore store;
  auto kvs = MakeKvs(50000, 4);
  PosTree a = BuildMap(&store, kvs);
  auto edited = a.ApplyKeyedOps({{kvs[25000].first, std::string("x")}});
  ASSERT_TRUE(edited.ok());
  PosTree b(&store, ChunkType::kMapLeaf, edited->root);

  auto shape = a.Shape();
  ASSERT_TRUE(shape.ok());
  DiffMetrics metrics;
  auto deltas = DiffKeyed(a, b, &metrics);
  ASSERT_TRUE(deltas.ok());
  EXPECT_EQ(deltas->size(), 1u);
  EXPECT_LT(metrics.nodes_loaded, shape->total_nodes / 4)
      << "diff touched " << metrics.nodes_loaded << " of "
      << shape->total_nodes << " nodes";
}

TEST(DiffKeyedTest, DisjointTreesDiffFully) {
  MemChunkStore store;
  auto kvs_a = MakeKvs(500, 5);
  std::vector<std::pair<std::string, std::string>> kvs_b;
  for (auto [k, v] : MakeKvs(500, 6)) kvs_b.emplace_back("other" + k, v);
  PosTree a = BuildMap(&store, kvs_a);
  PosTree b = BuildMap(&store, kvs_b);
  auto deltas = DiffKeyed(a, b);
  ASSERT_TRUE(deltas.ok());
  EXPECT_EQ(deltas->size(), kvs_a.size() + kvs_b.size());
}

TEST(DiffKeyedTest, EmptyVsNonEmpty) {
  MemChunkStore store;
  PosTree empty = BuildMap(&store, {});
  auto kvs = MakeKvs(100, 7);
  PosTree full = BuildMap(&store, kvs);
  auto deltas = DiffKeyed(empty, full);
  ASSERT_TRUE(deltas.ok());
  EXPECT_EQ(deltas->size(), kvs.size());
  for (const auto& d : *deltas) EXPECT_TRUE(d.added());
}

// ---------------------------------------------------------- DiffSequence --

TEST(DiffSequenceTest, IdenticalBlobsAreNullopt) {
  MemChunkStore store;
  std::string data = Rng(8).NextBytes(50000);
  auto a = PosTree::BuildBlob(&store, data);
  auto b = PosTree::BuildBlob(&store, data);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto delta = DiffSequence(
      PosTree(&store, ChunkType::kBlobLeaf, a->root, TreeConfig::ForBlob()),
      PosTree(&store, ChunkType::kBlobLeaf, b->root, TreeConfig::ForBlob()));
  ASSERT_TRUE(delta.ok());
  EXPECT_FALSE(delta->has_value());
}

TEST(DiffSequenceTest, LocalEditYieldsLocalRegion) {
  MemChunkStore store;
  std::string data = Rng(9).NextBytes(200000);
  std::string edited = data;
  edited[100000] = static_cast<char>(edited[100000] ^ 0x7f);

  auto a = PosTree::BuildBlob(&store, data);
  auto b = PosTree::BuildBlob(&store, edited);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  DiffMetrics metrics;
  auto delta = DiffSequence(
      PosTree(&store, ChunkType::kBlobLeaf, a->root, TreeConfig::ForBlob()),
      PosTree(&store, ChunkType::kBlobLeaf, b->root, TreeConfig::ForBlob()),
      &metrics);
  ASSERT_TRUE(delta.ok());
  ASSERT_TRUE(delta->has_value());
  // The differing region covers the edit and is a tiny fraction of the blob.
  EXPECT_LE((*delta)->left_start, 100000u);
  EXPECT_GE((*delta)->left_start + (*delta)->left_count, 100001u);
  EXPECT_LT((*delta)->left_count, 64 * 1024u);
  EXPECT_EQ((*delta)->left_count, (*delta)->right_count);
}

TEST(DiffSequenceTest, InsertionShiftsTrackedByCounts) {
  MemChunkStore store;
  Rng rng(10);
  std::vector<std::string> elems;
  for (int i = 0; i < 2000; ++i) elems.push_back(rng.NextString(12));
  auto a = PosTree::BuildList(&store, elems);
  std::vector<std::string> inserted = elems;
  inserted.insert(inserted.begin() + 1000, "NEW-ELEMENT");
  auto b = PosTree::BuildList(&store, inserted);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto delta = DiffSequence(PosTree(&store, ChunkType::kListLeaf, a->root),
                            PosTree(&store, ChunkType::kListLeaf, b->root));
  ASSERT_TRUE(delta.ok());
  ASSERT_TRUE(delta->has_value());
  EXPECT_EQ((*delta)->right_count, (*delta)->left_count + 1);
  // The inserted element is inside the right region.
  bool found = false;
  for (const auto& e : (*delta)->right_elems) {
    if (e == "NEW-ELEMENT") found = true;
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------------------------ MergeKeyed --

TEST(MergeKeyedTest, DisjointEditsMergeCleanly) {
  MemChunkStore store;
  auto kvs = MakeKvs(4000, 11);
  PosTree base = BuildMap(&store, kvs);
  auto left_info = base.ApplyKeyedOps({{kvs[100].first, std::string("L")}});
  auto right_info = base.ApplyKeyedOps({{kvs[3000].first, std::string("R")}});
  ASSERT_TRUE(left_info.ok());
  ASSERT_TRUE(right_info.ok());
  PosTree left(&store, ChunkType::kMapLeaf, left_info->root);
  PosTree right(&store, ChunkType::kMapLeaf, right_info->root);

  auto result = MergeKeyed(base, left, right);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->conflict_keys.empty());
  PosTree merged(&store, ChunkType::kMapLeaf, result->merged.root);
  auto l = merged.Lookup(kvs[100].first);
  auto r = merged.Lookup(kvs[3000].first);
  ASSERT_TRUE(l.ok());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**l, "L");
  EXPECT_EQ(**r, "R");

  // The merged tree equals the from-scratch build of the merged record set.
  std::map<std::string, std::string> reference(kvs.begin(), kvs.end());
  reference[kvs[100].first] = "L";
  reference[kvs[3000].first] = "R";
  MemChunkStore fresh;
  auto scratch = PosTree::BuildKeyed(
      &fresh, ChunkType::kMapLeaf,
      std::vector<std::pair<std::string, std::string>>(reference.begin(),
                                                       reference.end()));
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(result->merged.root, scratch->root);
}

TEST(MergeKeyedTest, SameEditOnBothSidesIsNotAConflict) {
  MemChunkStore store;
  auto kvs = MakeKvs(100, 12);
  PosTree base = BuildMap(&store, kvs);
  auto li = base.ApplyKeyedOps({{kvs[5].first, std::string("same")}});
  auto ri = base.ApplyKeyedOps({{kvs[5].first, std::string("same")}});
  ASSERT_TRUE(li.ok());
  ASSERT_TRUE(ri.ok());
  auto result = MergeKeyed(base, PosTree(&store, ChunkType::kMapLeaf, li->root),
                           PosTree(&store, ChunkType::kMapLeaf, ri->root));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->conflict_keys.empty());
}

TEST(MergeKeyedTest, ConflictingEditsFailStrict) {
  MemChunkStore store;
  auto kvs = MakeKvs(100, 13);
  PosTree base = BuildMap(&store, kvs);
  auto li = base.ApplyKeyedOps({{kvs[5].first, std::string("left")}});
  auto ri = base.ApplyKeyedOps({{kvs[5].first, std::string("right")}});
  ASSERT_TRUE(li.ok());
  ASSERT_TRUE(ri.ok());
  PosTree left(&store, ChunkType::kMapLeaf, li->root);
  PosTree right(&store, ChunkType::kMapLeaf, ri->root);
  auto strict = MergeKeyed(base, left, right, MergePolicy::kStrict);
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsMergeConflict());

  auto prefer_left = MergeKeyed(base, left, right, MergePolicy::kPreferLeft);
  ASSERT_TRUE(prefer_left.ok());
  PosTree ml(&store, ChunkType::kMapLeaf, prefer_left->merged.root);
  EXPECT_EQ(**ml.Lookup(kvs[5].first), "left");

  auto prefer_right = MergeKeyed(base, left, right, MergePolicy::kPreferRight);
  ASSERT_TRUE(prefer_right.ok());
  PosTree mr(&store, ChunkType::kMapLeaf, prefer_right->merged.root);
  EXPECT_EQ(**mr.Lookup(kvs[5].first), "right");
}

TEST(MergeKeyedTest, DeleteVsModifyConflicts) {
  MemChunkStore store;
  auto kvs = MakeKvs(100, 14);
  PosTree base = BuildMap(&store, kvs);
  auto li = base.ApplyKeyedOps({{kvs[7].first, std::nullopt}});
  auto ri = base.ApplyKeyedOps({{kvs[7].first, std::string("kept")}});
  ASSERT_TRUE(li.ok());
  ASSERT_TRUE(ri.ok());
  auto result =
      MergeKeyed(base, PosTree(&store, ChunkType::kMapLeaf, li->root),
                 PosTree(&store, ChunkType::kMapLeaf, ri->root));
  EXPECT_TRUE(result.status().IsMergeConflict());
}

TEST(MergeKeyedTest, MergeReusesChunksPhysically) {
  // Fig. 3: the merged tree shares disjointly-modified subtrees. Count how
  // many brand-new chunks the merge writes — must be a small fraction.
  MemChunkStore store;
  auto kvs = MakeKvs(20000, 15);
  PosTree base = BuildMap(&store, kvs);
  auto li = base.ApplyKeyedOps({{kvs[10].first, std::string("L")}});
  auto ri = base.ApplyKeyedOps({{kvs[19000].first, std::string("R")}});
  ASSERT_TRUE(li.ok());
  ASSERT_TRUE(ri.ok());

  uint64_t chunks_before = store.stats().chunk_count;
  auto result = MergeKeyed(base, PosTree(&store, ChunkType::kMapLeaf, li->root),
                           PosTree(&store, ChunkType::kMapLeaf, ri->root));
  ASSERT_TRUE(result.ok());
  uint64_t new_chunks = store.stats().chunk_count - chunks_before;

  PosTree merged(&store, ChunkType::kMapLeaf, result->merged.root);
  auto shape = merged.Shape();
  ASSERT_TRUE(shape.ok());
  EXPECT_LT(new_chunks, shape->total_nodes / 4)
      << "merge wrote " << new_chunks << " new chunks out of "
      << shape->total_nodes << " in the merged tree";
}

// --------------------------------------------------------- MergeSequence --

TEST(MergeSequenceTest, DisjointSplicesBothApplied) {
  MemChunkStore store;
  std::string data = Rng(16).NextBytes(150000);
  auto base_info = PosTree::BuildBlob(&store, data);
  ASSERT_TRUE(base_info.ok());
  PosTree base(&store, ChunkType::kBlobLeaf, base_info->root,
               TreeConfig::ForBlob());

  auto left_info = base.SpliceBytes(10000, 4, "LEFT");
  auto right_info = base.SpliceBytes(140000, 5, "RIGHT");
  ASSERT_TRUE(left_info.ok());
  ASSERT_TRUE(right_info.ok());
  PosTree left(&store, ChunkType::kBlobLeaf, left_info->root,
               TreeConfig::ForBlob());
  PosTree right(&store, ChunkType::kBlobLeaf, right_info->root,
                TreeConfig::ForBlob());

  auto result = MergeSequence(base, left, right);
  ASSERT_TRUE(result.ok());
  std::string expected = data;
  expected.replace(140000, 5, "RIGHT");
  expected.replace(10000, 4, "LEFT");
  PosTree merged(&store, ChunkType::kBlobLeaf, result->merged.root,
                 TreeConfig::ForBlob());
  std::string out;
  ASSERT_TRUE(merged.ReadBytes(0, expected.size(), &out).ok());
  EXPECT_EQ(out, expected);
}

TEST(MergeSequenceTest, OneSideUnchangedFastForwards) {
  MemChunkStore store;
  std::string data = Rng(17).NextBytes(50000);
  auto base_info = PosTree::BuildBlob(&store, data);
  ASSERT_TRUE(base_info.ok());
  PosTree base(&store, ChunkType::kBlobLeaf, base_info->root,
               TreeConfig::ForBlob());
  auto left_info = base.SpliceBytes(100, 1, "Z");
  ASSERT_TRUE(left_info.ok());
  PosTree left(&store, ChunkType::kBlobLeaf, left_info->root,
               TreeConfig::ForBlob());
  auto result = MergeSequence(base, left, base);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->merged.root, left.root());
}

TEST(MergeSequenceTest, OverlappingEditsConflictStrict) {
  MemChunkStore store;
  std::string data = Rng(18).NextBytes(100000);
  auto base_info = PosTree::BuildBlob(&store, data);
  ASSERT_TRUE(base_info.ok());
  PosTree base(&store, ChunkType::kBlobLeaf, base_info->root,
               TreeConfig::ForBlob());
  auto li = base.SpliceBytes(50000, 10, "AAAA");
  auto ri = base.SpliceBytes(50004, 10, "BBBB");
  ASSERT_TRUE(li.ok());
  ASSERT_TRUE(ri.ok());
  PosTree left(&store, ChunkType::kBlobLeaf, li->root, TreeConfig::ForBlob());
  PosTree right(&store, ChunkType::kBlobLeaf, ri->root, TreeConfig::ForBlob());
  auto strict = MergeSequence(base, left, right, MergePolicy::kStrict);
  EXPECT_TRUE(strict.status().IsMergeConflict());

  auto prefer_left = MergeSequence(base, left, right, MergePolicy::kPreferLeft);
  ASSERT_TRUE(prefer_left.ok());
  EXPECT_EQ(prefer_left->merged.root, left.root());
}

// ------------------------------------------------------------ merge base --

// master commits Y then X; `b` forks at X and adds 2 commits; `a` forks at X
// and adds 10, the last of which sets r; a side branch forked at Y is then
// merged into `a`. The merge base of a and b is X. A breadth-first search
// from both heads meets at Y first, through the side branch's short path,
// and a strict merge against Y sees both sides change r.
TEST(MergeBaseTest, ShortPathThroughAMergedSideBranchDoesNotWin) {
  ForkBase db(std::make_shared<MemChunkStore>());
  auto y = db.PutMap("doc", {{"r", "v0"}});
  ASSERT_TRUE(y.ok());
  auto x = db.UpdateMap("doc", {KeyedOp{"r", "v1"}});
  ASSERT_TRUE(x.ok());
  ASSERT_TRUE(db.Branch("doc", "b").ok());
  ASSERT_TRUE(db.Branch("doc", "a").ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(db.UpdateMap("doc", {KeyedOp{"b" + std::to_string(i), "x"}},
                             "b")
                    .ok());
  }
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(db.UpdateMap("doc", {KeyedOp{"a" + std::to_string(i), "x"}},
                             "a")
                    .ok());
  }
  ASSERT_TRUE(db.UpdateMap("doc", {KeyedOp{"r", "v2"}}, "a").ok());
  ASSERT_TRUE(db.BranchFromVersion("doc", "side", *y).ok());
  ASSERT_TRUE(db.UpdateMap("doc", {KeyedOp{"s", "side"}}, "side").ok());
  ASSERT_TRUE(db.Merge("doc", "a", "side").ok());

  auto base = db.CommonAncestor(*db.Head("doc", "a"), *db.Head("doc", "b"));
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_EQ(*base, *x);
  auto merged = db.Merge("doc", "a", "b", MergePolicy::kStrict);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  auto map = db.GetMap("doc", "a");
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(**map->Get("r"), "v2");
  EXPECT_EQ(**map->Get("s"), "side");
  EXPECT_EQ(**map->Get("b1"), "x");
}

// Random version DAGs (long chains, branches off anywhere, merges,
// criss-crosses, disjoint roots) against brute-force ancestor sets: the
// merge bases are exactly the common ancestors no other common ancestor
// descends from, ordered by generation then uid; CommonAncestor is the
// first of them; HistoryContains is ancestor-set membership.
TEST(MergeBaseTest, RandomDagsMatchBruteForceAncestorSets) {
  size_t multi_base_queries = 0, disjoint_queries = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    auto store = std::make_shared<MemChunkStore>();
    const size_t n = 20 + rng.Uniform(100);
    std::vector<std::vector<size_t>> parents(n);
    for (size_t i = 1; i < n; ++i) {
      if (!parents[i].empty() || rng.Uniform(15) == 0) continue;  // a root
      const uint64_t shape = rng.Uniform(10);
      const size_t p = rng.Uniform(i), q = rng.Uniform(i);
      if (shape < 4) {
        parents[i] = {i - 1};
      } else if (shape < 7 || p == q) {
        parents[i] = {p};
      } else if (shape < 9 || i + 1 == n) {
        parents[i] = {p, q};
      } else {
        // Criss-cross: two merges of the same pair, in both orders.
        parents[i] = {p, q};
        parents[i + 1] = {q, p};
      }
    }
    std::vector<Hash256> uids(n);
    std::vector<uint64_t> generation(n, 1);
    std::vector<std::vector<bool>> ancestors(n, std::vector<bool>(n, false));
    for (size_t i = 0; i < n; ++i) {
      FNode node;
      node.key = "k";
      node.value = Value::Int(static_cast<int64_t>(i));
      ancestors[i][i] = true;
      for (size_t p : parents[i]) {
        node.bases.push_back(uids[p]);
        generation[i] = std::max(generation[i], generation[p] + 1);
        for (size_t a = 0; a < n; ++a) {
          if (ancestors[p][a]) ancestors[i][a] = true;
        }
      }
      auto uid = node.Write(store.get());
      ASSERT_TRUE(uid.ok());
      uids[i] = *uid;
    }

    ForkBase db(store);  // its commit graph fills lazily from the store
    for (int query = 0; query < 60; ++query) {
      const size_t a = rng.Uniform(n), b = rng.Uniform(n);
      std::vector<size_t> maximal;
      for (size_t c = 0; c < n; ++c) {
        if (!ancestors[a][c] || !ancestors[b][c]) continue;
        bool below_another = false;
        for (size_t d = 0; d < n && !below_another; ++d) {
          below_another = d != c && ancestors[a][d] && ancestors[b][d] &&
                          ancestors[d][c];
        }
        if (!below_another) maximal.push_back(c);
      }
      std::sort(maximal.begin(), maximal.end(), [&](size_t l, size_t r) {
        if (generation[l] != generation[r]) {
          return generation[l] > generation[r];
        }
        return uids[l] < uids[r];
      });
      std::vector<Hash256> expected;
      for (size_t c : maximal) expected.push_back(uids[c]);
      multi_base_queries += expected.size() > 1;
      disjoint_queries += expected.empty();

      CommitGraph cold;
      auto bases = MergeBases(*store, query % 2 ? &cold : db.commit_graph(),
                              uids[a], uids[b]);
      ASSERT_TRUE(bases.ok()) << bases.status().ToString();
      EXPECT_EQ(*bases, expected) << "seed " << seed << " nodes " << a
                                  << ", " << b;
      auto base = db.CommonAncestor(uids[a], uids[b]);
      if (expected.empty()) {
        EXPECT_TRUE(base.status().IsNotFound());
      } else {
        ASSERT_TRUE(base.ok());
        EXPECT_EQ(*base, expected.front());
      }
      auto contains =
          HistoryContains(*store, db.commit_graph(), uids[a], uids[b]);
      ASSERT_TRUE(contains.ok());
      EXPECT_EQ(*contains, static_cast<bool>(ancestors[a][b]));
    }
  }
  EXPECT_GT(multi_base_queries, 0u) << "no criss-cross was exercised";
  EXPECT_GT(disjoint_queries, 0u) << "no disjoint pair was exercised";
}

}  // namespace
}  // namespace forkbase
