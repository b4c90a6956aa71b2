// Property-based tests of the SIRI definition (Def. 1) and the POS-Tree's
// probabilistic-balance / dedup guarantees, swept over sizes and seeds with
// parameterized gtest.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <type_traits>

#include "chunk/mem_chunk_store.h"
#include "postree/diff.h"
#include "postree/tree.h"
#include "types/map.h"
#include "types/set.h"
#include "util/codec.h"
#include "util/random.h"

namespace forkbase {
namespace {

std::vector<std::pair<std::string, std::string>> RandomKvs(size_t n,
                                                           uint64_t seed) {
  Rng rng(seed);
  std::map<std::string, std::string> sorted;
  while (sorted.size() < n) {
    sorted[rng.NextString(16)] = rng.NextString(16);
  }
  return {sorted.begin(), sorted.end()};
}

// ------------------------------------------ Property 1: structural invariance

class StructuralInvariance
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(StructuralInvariance, AnyMutationPathYieldsSameTree) {
  const auto [n, seed] = GetParam();
  auto kvs = RandomKvs(n, seed);

  // Path A: bulk build.
  MemChunkStore store_a;
  auto bulk = PosTree::BuildKeyed(&store_a, ChunkType::kMapLeaf, kvs);
  ASSERT_TRUE(bulk.ok());

  // Path B: build half, then apply the rest in three batches of ops,
  // interleaved with some inserted-then-deleted keys (history noise).
  MemChunkStore store_b;
  std::vector<std::pair<std::string, std::string>> half(
      kvs.begin(), kvs.begin() + kvs.size() / 2);
  auto partial = PosTree::BuildKeyed(&store_b, ChunkType::kMapLeaf, half);
  ASSERT_TRUE(partial.ok());
  PosTree tree(&store_b, ChunkType::kMapLeaf, partial->root);

  Rng rng(seed ^ 0xabcd);
  std::vector<KeyedOp> noise;
  for (int i = 0; i < 20; ++i) {
    noise.push_back(KeyedOp{"noise-" + rng.NextString(8), rng.NextString(8)});
  }
  auto with_noise = tree.ApplyKeyedOps(noise);
  ASSERT_TRUE(with_noise.ok());
  tree = PosTree(&store_b, ChunkType::kMapLeaf, with_noise->root);

  std::vector<KeyedOp> rest_and_denoise;
  for (size_t i = kvs.size() / 2; i < kvs.size(); ++i) {
    rest_and_denoise.push_back(KeyedOp{kvs[i].first, kvs[i].second});
  }
  for (const auto& op : noise) {
    rest_and_denoise.push_back(KeyedOp{op.key, std::nullopt});
  }
  auto final_info = tree.ApplyKeyedOps(rest_and_denoise);
  ASSERT_TRUE(final_info.ok());

  EXPECT_EQ(final_info->root, bulk->root)
      << "R(I1) = R(I2) must imply P(I1) = P(I2) regardless of history";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StructuralInvariance,
    ::testing::Combine(::testing::Values(16, 256, 2048, 8192),
                       ::testing::Values(1u, 2u, 3u)));

// ------------------------------------------ Property 2: recursively identical

class RecursiveIdentity : public ::testing::TestWithParam<size_t> {};

TEST_P(RecursiveIdentity, OneRecordChangesFewPages) {
  const size_t n = GetParam();
  MemChunkStore store;
  auto kvs = RandomKvs(n, 77);
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  ASSERT_TRUE(info.ok());
  PosTree tree(&store, ChunkType::kMapLeaf, info->root);

  auto plus_one = tree.ApplyKeyedOps(
      {KeyedOp{std::string("extra-record"), std::string("v")}});
  ASSERT_TRUE(plus_one.ok());
  PosTree tree2(&store, ChunkType::kMapLeaf, plus_one->root);

  std::vector<Hash256> pages1, pages2;
  ASSERT_TRUE(tree.ReachableChunks(&pages1).ok());
  ASSERT_TRUE(tree2.ReachableChunks(&pages2).ok());
  std::set<Hash256> set1(pages1.begin(), pages1.end());
  size_t shared = 0;
  for (const auto& p : pages2) shared += set1.count(p);
  size_t unique = pages2.size() - shared;
  // |P(I2) - P(I1)| << |P(I2) ∩ P(I1)|: new pages are one root-to-leaf path.
  EXPECT_LE(unique, 4u) << "only the edited path may differ";
  if (pages2.size() > 8) {
    EXPECT_GT(shared, unique * 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RecursiveIdentity,
                         ::testing::Values(512, 4096, 32768));

// ------------------------------------------ Property 3: universally reusable

TEST(UniversalReusability, SmallTreePagesAppearInLargerTree) {
  // Build I1 with records R; build I2 with R + records beyond R's key range.
  // Interior pages of I1 must appear in I2.
  MemChunkStore store;
  std::vector<std::pair<std::string, std::string>> small_kvs;
  Rng rng(99);
  std::map<std::string, std::string> sorted;
  while (sorted.size() < 4096) {
    sorted["m" + rng.NextString(12)] = rng.NextString(12);
  }
  small_kvs.assign(sorted.begin(), sorted.end());
  auto small_info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, small_kvs);
  ASSERT_TRUE(small_info.ok());

  auto big_kvs = small_kvs;
  for (int i = 0; i < 2000; ++i) {
    big_kvs.emplace_back("z" + rng.NextString(12), rng.NextString(12));
  }
  std::sort(big_kvs.begin(), big_kvs.end());
  auto big_info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, big_kvs);
  ASSERT_TRUE(big_info.ok());

  PosTree small(&store, ChunkType::kMapLeaf, small_info->root);
  PosTree big(&store, ChunkType::kMapLeaf, big_info->root);
  std::vector<Hash256> small_pages, big_pages;
  ASSERT_TRUE(small.ReachableChunks(&small_pages).ok());
  ASSERT_TRUE(big.ReachableChunks(&big_pages).ok());
  std::set<Hash256> big_set(big_pages.begin(), big_pages.end());
  size_t reused = 0;
  for (const auto& p : small_pages) reused += big_set.count(p);
  EXPECT_GT(reused, small_pages.size() / 2)
      << "a larger instance must reuse most pages of the smaller one";
  EXPECT_GT(big_pages.size(), small_pages.size());
}

// ------------------------------------------------- Probabilistic balance

class BalanceSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(BalanceSweep, HeightIsLogarithmic) {
  MemChunkStore store;
  auto kvs = RandomKvs(GetParam(), 5);
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  ASSERT_TRUE(info.ok());
  // Expected fanout ~ 2^q / entry-size >> 2, so height stays small.
  EXPECT_LE(info->height, 6u);
  PosTree tree(&store, ChunkType::kMapLeaf, info->root);
  auto shape = tree.Shape();
  ASSERT_TRUE(shape.ok());
  if (shape->leaf_nodes >= 16) {
    // Mean leaf size should be near the splitter's 2^q expectation — at
    // least, far from the min/max clamps on average.
    double mean_leaf_bytes =
        static_cast<double>(shape->total_bytes) /
        static_cast<double>(shape->total_nodes);
    EXPECT_GT(mean_leaf_bytes, 256.0);
    EXPECT_LT(mean_leaf_bytes, 8192.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BalanceSweep,
                         ::testing::Values(100, 1000, 10000, 60000));

// ------------------------------------------------- Blob chunking stability

class BlobEditSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(BlobEditSweep, LocalEditPreservesDistantChunks) {
  const size_t edit_at = GetParam();
  MemChunkStore store;
  std::string data = Rng(123).NextBytes(300000);
  auto a = PosTree::BuildBlob(&store, data);
  ASSERT_TRUE(a.ok());
  std::string edited = data;
  edited[edit_at] = static_cast<char>(edited[edit_at] ^ 0x55);
  auto b = PosTree::BuildBlob(&store, edited);
  ASSERT_TRUE(b.ok());

  PosTree ta(&store, ChunkType::kBlobLeaf, a->root, TreeConfig::ForBlob());
  PosTree tb(&store, ChunkType::kBlobLeaf, b->root, TreeConfig::ForBlob());
  std::vector<Hash256> pa, pb;
  ASSERT_TRUE(ta.ReachableChunks(&pa).ok());
  ASSERT_TRUE(tb.ReachableChunks(&pb).ok());
  std::set<Hash256> sa(pa.begin(), pa.end());
  size_t shared = 0;
  for (const auto& p : pb) shared += sa.count(p);
  // A 1-byte flip must leave the vast majority of ~4 KiB chunks shared.
  EXPECT_GT(shared * 10, pb.size() * 8)
      << "shared " << shared << " of " << pb.size();
}

INSTANTIATE_TEST_SUITE_P(Positions, BlobEditSweep,
                         ::testing::Values(0, 1, 150000, 299998));

// ------------------------------------------------- Diff complexity sweep

class DiffComplexity : public ::testing::TestWithParam<size_t> {};

TEST_P(DiffComplexity, NodesLoadedScalesWithEditsNotSize) {
  const size_t edits = GetParam();
  MemChunkStore store;
  auto kvs = RandomKvs(30000, 11);
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  ASSERT_TRUE(info.ok());
  PosTree a(&store, ChunkType::kMapLeaf, info->root);

  Rng rng(12);
  std::vector<KeyedOp> ops;
  for (size_t i = 0; i < edits; ++i) {
    ops.push_back(
        KeyedOp{kvs[rng.Uniform(kvs.size())].first, rng.NextString(8)});
  }
  auto edited = a.ApplyKeyedOps(ops);
  ASSERT_TRUE(edited.ok());
  PosTree b(&store, ChunkType::kMapLeaf, edited->root);

  DiffMetrics metrics;
  auto deltas = DiffKeyed(a, b, &metrics);
  ASSERT_TRUE(deltas.ok());
  auto shape = a.Shape();
  ASSERT_TRUE(shape.ok());
  // Loose O(D log N) envelope: c * (D+1) * height, far below total nodes for
  // small D.
  const uint64_t bound = 8 * (edits + 2) * shape->height;
  EXPECT_LE(metrics.nodes_loaded, std::max<uint64_t>(bound, 24))
      << "edits=" << edits << " loaded=" << metrics.nodes_loaded
      << " total=" << shape->total_nodes;
}

INSTANTIATE_TEST_SUITE_P(EditCounts, DiffComplexity,
                         ::testing::Values(1, 2, 8, 32));

// ------------------------------------------------- Random splice fuzzing

TEST(BlobSpliceFuzz, RandomSplicesMatchReferenceString) {
  MemChunkStore store;
  Rng rng(321);
  std::string reference = rng.NextBytes(50000);
  auto info = PosTree::BuildBlob(&store, reference);
  ASSERT_TRUE(info.ok());
  PosTree tree(&store, ChunkType::kBlobLeaf, info->root,
               TreeConfig::ForBlob());

  for (int round = 0; round < 12; ++round) {
    uint64_t offset = rng.Uniform(reference.size() + 1);
    uint64_t remove = rng.Uniform(2000);
    std::string insert = rng.NextBytes(rng.Uniform(2000));
    auto spliced = tree.SpliceBytes(offset, remove, insert);
    ASSERT_TRUE(spliced.ok()) << "round " << round;
    uint64_t actual_remove =
        std::min<uint64_t>(remove, reference.size() - std::min<uint64_t>(
                                                          offset,
                                                          reference.size()));
    reference = reference.substr(0, offset) + insert +
                reference.substr(std::min<uint64_t>(offset + actual_remove,
                                                    reference.size()));
    tree = PosTree(&store, ChunkType::kBlobLeaf, spliced->root,
                   TreeConfig::ForBlob());
    std::string out;
    ASSERT_TRUE(tree.ReadBytes(0, reference.size() + 10, &out).ok());
    ASSERT_EQ(out.size(), reference.size()) << "round " << round;
    ASSERT_EQ(out, reference) << "round " << round;
  }
  ASSERT_TRUE(tree.Validate().ok());
}

// ------------------------------------- Incremental keyed updates (O(height))

// Small nodes: a few thousand entries already build trees of height 4+, with
// subtrees reused at level >= 2 and single-child nodes on the right spine.
TreeConfig SmallNodes() {
  TreeConfig config;
  config.leaf = SplitConfig{16, 6, 64, 512};
  config.index = SplitConfig{16, 6, 64, 512};
  return config;
}

using Model = std::map<std::string, std::string>;

// An incremental update must be bit-identical to a from-scratch build of the
// same records: same root, count and height, and a valid tree.
void ExpectMatchesRebuild(ChunkStore* store, ChunkType type,
                          const TreeConfig& config, const Model& model,
                          const TreeInfo& info, const std::string& what) {
  std::vector<std::pair<std::string, std::string>> kvs(model.begin(),
                                                       model.end());
  auto rebuilt = PosTree::BuildKeyed(store, type, kvs, config);
  ASSERT_TRUE(rebuilt.ok()) << what;
  EXPECT_EQ(info.root, rebuilt->root) << what;
  EXPECT_EQ(info.count, rebuilt->count) << what;
  EXPECT_EQ(info.height, rebuilt->height) << what;
  EXPECT_TRUE(PosTree(store, type, info.root, config).Validate().ok()) << what;
}

// One random op batch over `model`, of one of several shapes: point edits,
// bulk edits, appends past the max key, delete-to-empty, growth, shrink, and
// deletion of a key prefix or suffix. Ops may repeat a key (last wins).
// Batches of random edits, appends or growth hold at most `max_ops` ops.
std::vector<KeyedOp> RandomBatch(Rng& rng, const Model& model, bool is_set,
                                 size_t key_len, uint64_t* append_seq,
                                 size_t max_ops = 2000) {
  std::vector<std::string> keys;
  keys.reserve(model.size());
  for (const auto& [k, v] : model) keys.push_back(k);
  auto value = [&]() -> std::string {
    return is_set ? std::string() : rng.NextString(rng.Uniform(24));
  };
  auto present = [&]() { return keys[rng.Uniform(keys.size())]; };
  auto fresh = [&]() { return rng.NextString(key_len); };
  std::vector<KeyedOp> ops;
  switch (rng.Uniform(7)) {
    case 0:  // a few mixed point ops
    case 1: {  // up to max_ops mixed ops
      const size_t n = rng.Uniform(2) ? 1 + rng.Uniform(20)
                                      : 1 + rng.Uniform(max_ops);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t kind = rng.Uniform(4);
        if (kind == 0 && !keys.empty()) {
          ops.push_back({present(), value()});  // update
        } else if (kind == 1 && !keys.empty()) {
          ops.push_back({present(), std::nullopt});  // delete present
        } else if (kind == 2) {
          ops.push_back({fresh(), std::nullopt});  // delete (likely) absent
        } else {
          ops.push_back({fresh(), value()});  // insert
        }
      }
      break;
    }
    case 2: {  // appends past the max key ('~' sorts after [a-z0-9])
      const size_t n =
          1 + rng.Uniform(rng.Uniform(2) ? 3 : std::min<size_t>(300, max_ops));
      for (size_t i = 0; i < n; ++i) {
        ops.push_back({"~" + std::to_string(1000000 + (*append_seq)++),
                       value()});
      }
      break;
    }
    case 3:  // delete to empty
      for (const auto& k : keys) ops.push_back({k, std::nullopt});
      break;
    case 4: {  // growth
      const size_t n = 1 + rng.Uniform(max_ops);
      for (size_t i = 0; i < n; ++i) ops.push_back({fresh(), value()});
      break;
    }
    case 5:  // shrink: drop ~90% of the keys
      for (const auto& k : keys) {
        if (rng.Uniform(10) != 0) ops.push_back({k, std::nullopt});
      }
      break;
    default: {  // drop a key prefix or suffix, plus one edit beyond it
      const size_t pivot = keys.empty() ? 0 : rng.Uniform(keys.size());
      const bool prefix = rng.Uniform(2) == 0;
      for (size_t i = 0; i < keys.size(); ++i) {
        if ((i < pivot) == prefix) ops.push_back({keys[i], std::nullopt});
      }
      ops.push_back({fresh(), value()});
      break;
    }
  }
  if (ops.empty()) ops.push_back({fresh(), std::nullopt});
  if (rng.Uniform(4) == 0) {  // the same key twice: the later op wins
    ops.push_back({ops[rng.Uniform(ops.size())].key,
                   rng.Uniform(2) ? std::optional<std::string>(value())
                                  : std::nullopt});
  }
  return ops;
}

TEST(IncrementalUpdate, RandomBatchesMatchRebuild) {
  // 24 chains x 13 batches = 312 cases over maps and sets, default and small
  // nodes, short, long and oversized keys, starting sizes 0 to 30k.
  constexpr int kChains = 24;
  constexpr int kBatches = 13;
  int cases = 0;
  for (int chain = 0; chain < kChains; ++chain) {
    Rng rng(9000 + chain);
    const bool is_set = chain % 2 == 1;
    const ChunkType type = is_set ? ChunkType::kSetLeaf : ChunkType::kMapLeaf;
    const TreeConfig config =
        chain % 4 < 2 ? TreeConfig::ForEntries() : SmallNodes();
    size_t key_len, start, max_ops = 2000;
    if (chain >= 16) {
      // Oversized keys: an index entry alone reaches the index split
      // bounds — 260-byte keys pass min_bytes (a pattern in the key closes
      // the node), 9,000-byte keys pass max_bytes. Such an entry must not
      // close an index node by itself: that recursed level over level
      // until the stack overflowed. Few keys and small batches keep the
      // trees a few MB.
      const bool huge = chain >= 20;
      key_len = huge ? 9000 : 260;
      start = huge ? 40 : 200;
      max_ops = huge ? 20 : 200;
    } else {
      // Long keys: few entries per node, so tall trees with many narrow
      // index nodes.
      const bool long_keys = chain % 8 == 5;
      key_len = long_keys ? 200 : 8 + rng.Uniform(9);
      static constexpr size_t kStartSizes[] = {0, 50, 2000, 30000};
      start = kStartSizes[chain / 4];
      if (long_keys) start = std::min<size_t>(start, 2000);
      if (start > 0) start = start / 2 + rng.Uniform(start / 2 + 1);
    }

    MemChunkStore store;
    Model model;
    while (model.size() < start) {
      model[rng.NextString(key_len)] = is_set ? "" : rng.NextString(16);
    }
    std::vector<std::pair<std::string, std::string>> kvs(model.begin(),
                                                         model.end());
    auto built = PosTree::BuildKeyed(&store, type, kvs, config);
    ASSERT_TRUE(built.ok());
    PosTree tree(&store, type, built->root, config);
    uint64_t append_seq = 0;
    for (int batch = 0; batch < kBatches; ++batch) {
      auto ops =
          RandomBatch(rng, model, is_set, key_len, &append_seq, max_ops);
      for (const auto& op : ops) {
        if (op.value) {
          model[op.key] = *op.value;
        } else {
          model.erase(op.key);
        }
      }
      const std::string what = "chain " + std::to_string(chain) + " batch " +
                               std::to_string(batch) + " (" +
                               std::to_string(ops.size()) + " ops, " +
                               std::to_string(model.size()) + " keys)";
      auto info = tree.ApplyKeyedOps(std::move(ops));
      ASSERT_TRUE(info.ok()) << what << ": " << info.status().ToString();
      ExpectMatchesRebuild(&store, type, config, model, *info, what);
      if (HasFailure()) return;
      tree = PosTree(&store, type, info->root, config);
      ++cases;
    }
  }
  EXPECT_GE(cases, 300);
}

TEST(BulkCreate, MapAndSetMatchReferenceBuildInAnyInputOrder) {
  // FMap::Create and FSet::Create sort only input that is out of order and
  // dedup in place. Whatever the order and repeats, the root must equal a
  // reference: std::map (last wins) / std::set, streamed entry by entry
  // into a TreeBuilder in the documented entry format.
  int cases = 0;
  for (uint64_t seed = 0; seed < 240; ++seed) {
    Rng rng(7000 + seed);
    const size_t n = rng.Uniform(seed % 8 == 0 ? 3000 : 400);
    const size_t key_space = 1 + rng.Uniform(2 * n + 1);
    std::vector<std::pair<std::string, std::string>> kvs;
    for (size_t i = 0; i < n; ++i) {
      kvs.emplace_back(std::to_string(rng.Uniform(key_space)),
                       rng.NextString(rng.Uniform(24)));
    }
    switch (seed % 3) {
      case 0:  // sorted, repeats adjacent in input order
        std::stable_sort(kvs.begin(), kvs.end(),
                         [](const auto& a, const auto& b) {
                           return a.first < b.first;
                         });
        break;
      case 1:
        std::reverse(kvs.begin(), kvs.end());
        break;
      default:
        break;  // random order
    }
    std::map<std::string, std::string> map_ref;
    std::set<std::string> set_ref;
    std::vector<std::string> members;
    for (const auto& [k, v] : kvs) {
      map_ref[k] = v;
      set_ref.insert(k);
      members.push_back(k);
    }

    MemChunkStore store;
    auto reference = [&store](ChunkType type, const auto& entries) {
      TreeBuilder builder(&store, type, TreeConfig::ForEntries());
      std::string entry;
      for (const auto& e : entries) {
        entry.clear();
        if constexpr (std::is_same_v<std::decay_t<decltype(e)>,
                                     std::string>) {
          PutLengthPrefixed(&entry, e);
          EXPECT_TRUE(builder.AddEntry(entry, e).ok());
        } else {
          PutLengthPrefixed(&entry, e.first);
          PutLengthPrefixed(&entry, e.second);
          EXPECT_TRUE(builder.AddEntry(entry, e.first).ok());
        }
      }
      auto info = builder.Finish();
      EXPECT_TRUE(info.ok());
      return info.ok() ? info->root : Hash256{};
    };
    const std::string what = "seed " + std::to_string(seed) + " (" +
                             std::to_string(n) + " entries)";
    auto map = FMap::Create(&store, kvs);
    ASSERT_TRUE(map.ok()) << what;
    EXPECT_EQ(map->root(), reference(ChunkType::kMapLeaf, map_ref)) << what;
    auto set = FSet::Create(&store, members);
    ASSERT_TRUE(set.ok()) << what;
    EXPECT_EQ(set->root(), reference(ChunkType::kSetLeaf, set_ref)) << what;
    if (HasFailure()) return;
    ++cases;
  }
  EXPECT_GE(cases, 200);
}

// Counts chunk loads, to pin the update's complexity.
class CountingStore : public MemChunkStore {
 public:
  StatusOr<Chunk> Get(const Hash256& id) const override {
    ++gets;
    return MemChunkStore::Get(id);
  }
  mutable uint64_t gets = 0;
};

TEST(IncrementalUpdate, OneKeyUpdateCostsHeightNotSize) {
  // A one-key update rewrites the edited root-to-leaf path (plus, rarely, a
  // neighbour until node boundaries resynchronize) and loads about as many
  // chunks. A full re-chunk of this tree would write ~1,300 nodes.
  CountingStore store;
  auto kvs = RandomKvs(100000, 5);
  auto built = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  ASSERT_TRUE(built.ok());
  PosTree tree(&store, ChunkType::kMapLeaf, built->root);
  ASSERT_GE(built->height, 3u);
  Rng rng(6);
  constexpr int kUpdates = 200;
  // Edits move index split points, so the height can change between
  // updates; the bound is against each update's own height.
  uint64_t written = 0, heights = 0;
  for (int i = 0; i < kUpdates; ++i) {
    store.gets = 0;
    auto info = tree.ApplyKeyedOps({KeyedOp{
        kvs[rng.Uniform(kvs.size())].first, "v" + std::to_string(i)}});
    ASSERT_TRUE(info.ok());
    EXPECT_LE(store.gets, 3u * info->height) << "update " << i;
    written += info->nodes_written;
    heights += info->height;
    tree = PosTree(&store, ChunkType::kMapLeaf, info->root);
  }
  EXPECT_LE(double(written) / kUpdates, double(heights) / kUpdates + 1.0);
}

TEST(IncrementalUpdate, ReuseAboveLevelOneDoesNotCollapseToNewLeaf) {
  // Keep only the root's first child X (a level >= 2 subtree, reused whole)
  // and add one key past the old maximum (a single new leaf). The new leaf's
  // level-1 node holds one entry but is not the topmost level, so it must
  // close; collapsing there would return the lone leaf as the root.
  MemChunkStore store;
  const TreeConfig config = SmallNodes();
  Model model;
  Rng rng(17);
  while (model.size() < 3000) model[rng.NextString(12)] = rng.NextString(16);
  std::vector<std::pair<std::string, std::string>> kvs(model.begin(),
                                                       model.end());
  auto built = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs, config);
  ASSERT_TRUE(built.ok());
  ASSERT_GE(built->height, 4u) << "X must sit at level >= 2";
  auto root = store.Get(built->root);
  ASSERT_TRUE(root.ok());
  std::vector<IndexEntry> children;
  ASSERT_TRUE(ParseIndexEntries(root->payload(), &children));
  ASSERT_GE(children.size(), 2u);
  const IndexEntry& x = children[0];

  std::vector<KeyedOp> ops;
  for (auto it = model.upper_bound(x.key); it != model.end();) {
    ops.push_back({it->first, std::nullopt});
    it = model.erase(it);
  }
  ops.push_back({"~past-the-max", std::string("v")});
  model["~past-the-max"] = "v";

  PosTree tree(&store, ChunkType::kMapLeaf, built->root, config);
  auto info = tree.ApplyKeyedOps(std::move(ops));
  ASSERT_TRUE(info.ok());
  ExpectMatchesRebuild(&store, ChunkType::kMapLeaf, config, model, *info,
                       "reuse X + one new leaf");
  EXPECT_EQ(info->height, built->height);
  EXPECT_EQ(info->count, x.count + 1);
}

TEST(IncrementalUpdate, SingleChildTailAloneRebuildsLikeScratch) {
  // The old tree's last node on a level can have one child (Finish closed
  // it). Delete every key before it and it is all that is left: a scratch
  // build of its entries collapses that single-child level away, so the
  // update must not hand the node over whole.
  const TreeConfig config = SmallNodes();
  int checked = 0;
  for (uint64_t seed = 0; seed < 200 && checked < 5; ++seed) {
    MemChunkStore store;
    Model model;
    Rng rng(seed);
    const size_t n = 200 + rng.Uniform(3000);
    while (model.size() < n) model[rng.NextString(10)] = rng.NextString(8);
    std::vector<std::pair<std::string, std::string>> kvs(model.begin(),
                                                         model.end());
    auto built = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs, config);
    ASSERT_TRUE(built.ok());
    // Walk the right spine below the root for a one-child index node.
    uint64_t tail_count = 0;
    Hash256 id = built->root;
    for (bool at_root = true; tail_count == 0; at_root = false) {
      auto chunk = store.Get(id);
      ASSERT_TRUE(chunk.ok());
      if (chunk->type() != ChunkType::kMeta) break;
      std::vector<IndexEntry> children;
      ASSERT_TRUE(ParseIndexEntries(chunk->payload(), &children));
      if (!at_root && children.size() == 1) tail_count = children[0].count;
      id = children.back().child;
    }
    if (tail_count == 0) continue;
    std::vector<KeyedOp> ops;
    while (model.size() > tail_count) {
      ops.push_back({model.begin()->first, std::nullopt});
      model.erase(model.begin());
    }
    PosTree tree(&store, ChunkType::kMapLeaf, built->root, config);
    auto info = tree.ApplyKeyedOps(std::move(ops));
    ASSERT_TRUE(info.ok());
    ExpectMatchesRebuild(&store, ChunkType::kMapLeaf, config, model, *info,
                         "seed " + std::to_string(seed));
    ++checked;
  }
  EXPECT_EQ(checked, 5) << "too few trees with a one-child tail node";
}

// ------------------------------------ Point reads against the scan oracle
//
// Lookup, Element and Count search each node in place instead of parsing
// it into vectors; the leaf walk (Scan, ReadBytes) still parses whole
// nodes, so it is the oracle.

// Every split key of every index node of `tree`.
std::vector<std::string> SplitKeys(const PosTree& tree) {
  std::vector<std::string> keys;
  EXPECT_TRUE(tree.WalkLevels(
                      false,
                      [&](uint32_t, const IndexEntry&, const Chunk&,
                          const std::vector<IndexEntry>& children) {
                        for (const auto& c : children) keys.push_back(c.key);
                        return Status::OK();
                      })
                  .ok());
  return keys;
}

TEST(PointReadParity, LookupMatchesScanForMapsAndSets) {
  int trees = 0;
  for (const ChunkType type : {ChunkType::kMapLeaf, ChunkType::kSetLeaf}) {
    for (const bool small : {false, true}) {
      for (const size_t n : {0, 1, 300, 5000}) {
        const TreeConfig config =
            small ? SmallNodes() : TreeConfig::ForEntries();
        auto kvs = RandomKvs(n, 700 + n);
        if (type == ChunkType::kSetLeaf) {
          for (auto& kv : kvs) kv.second.clear();
        }
        MemChunkStore store;
        auto built = PosTree::BuildKeyed(&store, type, kvs, config);
        ASSERT_TRUE(built.ok());
        PosTree tree(&store, type, built->root, config);
        Model oracle;
        ASSERT_TRUE(tree.Scan([&](const EntryView& e) {
                          oracle[e.key.ToString()] = e.value.ToString();
                          return Status::OK();
                        })
                        .ok());
        ASSERT_EQ(oracle.size(), n);
        auto count = tree.Count();
        ASSERT_TRUE(count.ok());
        EXPECT_EQ(*count, n);

        std::vector<std::string> probes = SplitKeys(tree);
        EXPECT_EQ(probes.empty(), built->height <= 1);
        Rng rng(800 + n);
        for (const auto& [k, v] : oracle) {
          probes.push_back(k);                   // present
          probes.push_back(k + '\0');            // absent, just above k
          probes.push_back(k.substr(0, k.size() - 1));  // absent prefix
          if (rng.Uniform(8) == 0) probes.push_back(rng.NextString(16));
        }
        probes.push_back("");  // below the minimum
        probes.push_back(std::string(1, '\x01'));
        probes.push_back(oracle.empty() ? "~" : oracle.rbegin()->first + "~");
        probes.push_back("\xff\xff");  // above the maximum
        for (const std::string& key : probes) {
          auto got = tree.Lookup(key);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          auto it = oracle.find(key);
          if (it == oracle.end()) {
            EXPECT_FALSE(got->has_value()) << "absent key " << key;
          } else {
            ASSERT_TRUE(got->has_value()) << "present key " << key;
            EXPECT_EQ(**got, it->second);
          }
        }
        ++trees;
      }
    }
  }
  EXPECT_EQ(trees, 16);
}

TEST(PointReadParity, ElementMatchesScanForListsAndBlobs) {
  for (const size_t n : {1, 50, 3000}) {
    MemChunkStore store;
    Rng rng(900 + n);
    std::vector<std::string> elements;
    for (size_t i = 0; i < n; ++i) {
      elements.push_back(rng.NextString(rng.Uniform(40)));
    }
    auto built = PosTree::BuildList(&store, elements, SmallNodes());
    ASSERT_TRUE(built.ok());
    PosTree list(&store, ChunkType::kListLeaf, built->root, SmallNodes());
    std::vector<std::string> scanned;
    ASSERT_TRUE(list.Scan([&](const EntryView& e) {
                      scanned.push_back(e.value.ToString());
                      return Status::OK();
                    })
                    .ok());
    ASSERT_EQ(scanned, elements);
    for (size_t i = 0; i < n; ++i) {
      auto got = list.Element(i);
      ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
      ASSERT_EQ(*got, scanned[i]) << "element " << i;
    }
    EXPECT_EQ(list.Element(n).status().code(), StatusCode::kNotFound);
    auto count = list.Count();
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, n);
  }
  for (const size_t n : {1, 5000, 40000}) {
    MemChunkStore store;
    auto built = PosTree::BuildBlob(&store, Rng(950 + n).NextBytes(n));
    ASSERT_TRUE(built.ok());
    PosTree blob(&store, ChunkType::kBlobLeaf, built->root,
                 TreeConfig::ForBlob());
    std::string scanned;
    ASSERT_TRUE(blob.ReadBytes(0, n, &scanned).ok());
    ASSERT_EQ(scanned.size(), n);
    for (size_t i = 0; i < n; ++i) {
      auto got = blob.Element(i);
      ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
      ASSERT_EQ(*got, scanned.substr(i, 1)) << "byte " << i;
    }
    EXPECT_EQ(blob.Element(n).status().code(), StatusCode::kNotFound);
    auto count = blob.Count();
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, n);
  }
}

TEST(PointReadParity, MalformedTailAfterTheSearchedEntryIsCorruption) {
  // A search finds its entry first in the node, but the node's tail does
  // not decode: the point read must still fail, as a whole-node parse did.
  MemChunkStore store;
  std::string good_leaf;
  AppendMapEntry(&good_leaf, "a", "1");
  AppendMapEntry(&good_leaf, "b", "2");
  const Chunk leaf = Chunk::Make(ChunkType::kMapLeaf, good_leaf);
  ASSERT_TRUE(store.Put(leaf).ok());
  const std::string index =
      EncodeIndexEntry(IndexEntry{leaf.hash(), 2, "b"}) +
      EncodeIndexEntry(IndexEntry{leaf.hash(), 2, "d"});
  // Tails that cut the next entry short: a bare length prefix, and (index)
  // a child id of 5 bytes.
  for (const std::string& tail :
       {std::string("\x05", 1), std::string("\x05zz", 3),
        std::string(5, '\x07')}) {
    const Chunk bad_index = Chunk::Make(ChunkType::kMeta, index + tail);
    ASSERT_TRUE(store.Put(bad_index).ok());
    PosTree via_index(&store, ChunkType::kMapLeaf, bad_index.hash());
    for (const char* key : {"", "a", "b", "c", "z"}) {
      auto got = via_index.Lookup(key);
      ASSERT_FALSE(got.ok()) << key;
      EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
      EXPECT_NE(got.status().ToString().find("malformed index node"),
                std::string::npos)
          << got.status().ToString();
    }
    EXPECT_EQ(via_index.Element(0).status().code(), StatusCode::kCorruption);
    EXPECT_EQ(via_index.Count().status().code(), StatusCode::kCorruption);

    const Chunk bad_leaf = Chunk::Make(ChunkType::kMapLeaf, good_leaf + tail);
    ASSERT_TRUE(store.Put(bad_leaf).ok());
    PosTree direct(&store, ChunkType::kMapLeaf, bad_leaf.hash());
    const Chunk parent = Chunk::Make(
        ChunkType::kMeta, EncodeIndexEntry(IndexEntry{bad_leaf.hash(), 2, "b"}));
    ASSERT_TRUE(store.Put(parent).ok());
    PosTree via_parent(&store, ChunkType::kMapLeaf, parent.hash());
    for (const PosTree* tree : {&direct, &via_parent}) {
      for (const char* key : {"", "a", "b"}) {
        auto got = tree->Lookup(key);
        ASSERT_FALSE(got.ok()) << key;
        EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
        EXPECT_NE(got.status().ToString().find("malformed leaf payload"),
                  std::string::npos)
            << got.status().ToString();
      }
      EXPECT_EQ(tree->Element(0).status().code(), StatusCode::kCorruption);
    }
    EXPECT_EQ(direct.Count().status().code(), StatusCode::kCorruption);
  }
  std::string list_leaf;
  AppendListEntry(&list_leaf, "x");
  const Chunk bad_list =
      Chunk::Make(ChunkType::kListLeaf, list_leaf + std::string("\x09", 1));
  ASSERT_TRUE(store.Put(bad_list).ok());
  PosTree list(&store, ChunkType::kListLeaf, bad_list.hash());
  auto got = list.Element(0);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().ToString().find("malformed leaf payload"),
            std::string::npos);
}

}  // namespace
}  // namespace forkbase
