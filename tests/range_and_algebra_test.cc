// Tests for range scans (seek to a lower bound) and set algebra.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

#include "chunk/mem_chunk_store.h"
#include "postree/tree.h"
#include "types/map.h"
#include "types/set.h"
#include "util/random.h"

namespace forkbase {
namespace {

std::vector<std::pair<std::string, std::string>> MakeKvs(size_t n,
                                                         uint64_t seed) {
  Rng rng(seed);
  std::map<std::string, std::string> sorted;
  while (sorted.size() < n) {
    sorted[rng.NextString(12)] = rng.NextString(8);
  }
  return {sorted.begin(), sorted.end()};
}

// ------------------------------------------------------------- range seek --

// The first key ScanRange(probe, "") delivers, or nullopt when it delivers
// none.
std::optional<std::string> LowerBound(const ChunkStore& store,
                                      const Hash256& root, Slice probe) {
  PosTree tree(&store, ChunkType::kMapLeaf, root);
  std::optional<std::string> first;
  Status s = tree.ScanRange(probe, Slice(), [&](const EntryView& e) {
    first = e.key.ToString();
    return Status::Unavailable("seen the first");
  });
  EXPECT_TRUE(first ? s.code() == StatusCode::kUnavailable : s.ok())
      << s.ToString();
  return first;
}

class RangeSeekTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RangeSeekTest, ScanRangeStartsAtTheLowerBound) {
  MemChunkStore store;
  auto kvs = MakeKvs(GetParam(), GetParam() + 7);
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  ASSERT_TRUE(info.ok());
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::string probe = trial % 2 ? rng.NextString(12)
                                  : kvs[rng.Uniform(kvs.size())].first;
    const auto first = LowerBound(store, info->root, probe);
    auto it = std::lower_bound(
        kvs.begin(), kvs.end(), probe,
        [](const auto& kv, const std::string& k) { return kv.first < k; });
    if (it == kvs.end()) {
      EXPECT_FALSE(first.has_value()) << probe;
    } else {
      ASSERT_TRUE(first.has_value()) << probe;
      EXPECT_EQ(*first, it->first);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RangeSeekTest,
                         ::testing::Values(1, 50, 5000, 50000));

TEST(RangeSeekTest, SeekBeforeFirstAndAfterLast) {
  MemChunkStore store;
  auto kvs = MakeKvs(100, 3);
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(LowerBound(store, info->root, ""), kvs.front().first);
  EXPECT_FALSE(LowerBound(store, info->root, "zzzzzzzzzzzzzz").has_value());
}

// ------------------------------------------------------------ map ranges --

TEST(MapRangeTest, RangeMatchesReference) {
  MemChunkStore store;
  auto kvs = MakeKvs(20000, 9);
  auto map = FMap::Create(&store, kvs);
  ASSERT_TRUE(map.ok());

  Rng rng(10);
  for (int trial = 0; trial < 20; ++trial) {
    std::string lo = rng.NextString(12);
    std::string hi = rng.NextString(12);
    if (hi < lo) std::swap(lo, hi);
    auto got = map->Range(lo, hi);
    ASSERT_TRUE(got.ok());
    std::vector<std::pair<std::string, std::string>> expected;
    for (const auto& kv : kvs) {
      if (kv.first >= lo && kv.first < hi) expected.push_back(kv);
    }
    EXPECT_EQ(*got, expected) << "[" << lo << ", " << hi << ")";
  }
}

TEST(MapRangeTest, OpenEndedRange) {
  MemChunkStore store;
  auto map = FMap::Create(&store, {{"a", "1"}, {"m", "2"}, {"z", "3"}});
  ASSERT_TRUE(map.ok());
  auto tail = map->Range("m", Slice());
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->size(), 2u);
  EXPECT_EQ((*tail)[0].first, "m");
  EXPECT_EQ((*tail)[1].first, "z");
  auto all = map->Range("", Slice());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 3u);
}

TEST(MapRangeTest, EmptyRange) {
  MemChunkStore store;
  auto map = FMap::Create(&store, {{"b", "1"}, {"d", "2"}});
  ASSERT_TRUE(map.ok());
  auto empty = map->Range("c", "c");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  auto between = map->Range("c", "d");
  ASSERT_TRUE(between.ok());
  EXPECT_TRUE(between->empty());
}

TEST(MapRangeTest, EarlyStopPropagates) {
  MemChunkStore store;
  auto kvs = MakeKvs(1000, 11);
  auto map = FMap::Create(&store, kvs);
  ASSERT_TRUE(map.ok());
  int seen = 0;
  Status s = map->ForEachInRange("", Slice(), [&seen](Slice, Slice) {
    return ++seen == 3 ? Status::InvalidArgument("stop") : Status::OK();
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(seen, 3);
}

// ------------------------------------------------------------ set algebra --

class SetAlgebraTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SetAlgebraTest, MatchesStdSetAlgebra) {
  MemChunkStore store;
  Rng rng(GetParam());
  std::set<std::string> ra, rb;
  for (size_t i = 0; i < GetParam(); ++i) {
    // Overlapping membership.
    std::string m = "m" + std::to_string(rng.Uniform(GetParam() * 2));
    if (rng.Uniform(2)) ra.insert(m);
    if (rng.Uniform(2)) rb.insert(m);
  }
  auto a = FSet::Create(&store,
                        std::vector<std::string>(ra.begin(), ra.end()));
  auto b = FSet::Create(&store,
                        std::vector<std::string>(rb.begin(), rb.end()));
  ASSERT_TRUE(a.ok() && b.ok());

  std::set<std::string> expected_union = ra;
  expected_union.insert(rb.begin(), rb.end());
  std::set<std::string> expected_inter, expected_sub;
  for (const auto& m : ra) {
    if (rb.count(m)) expected_inter.insert(m);
    else expected_sub.insert(m);
  }

  auto u = a->Union(*b);
  auto i = a->Intersect(*b);
  auto s = a->Subtract(*b);
  ASSERT_TRUE(u.ok() && i.ok() && s.ok());
  EXPECT_EQ(*u->Members(), std::vector<std::string>(expected_union.begin(),
                                                    expected_union.end()));
  EXPECT_EQ(*i->Members(), std::vector<std::string>(expected_inter.begin(),
                                                    expected_inter.end()));
  EXPECT_EQ(*s->Members(), std::vector<std::string>(expected_sub.begin(),
                                                    expected_sub.end()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SetAlgebraTest,
                         ::testing::Values(10, 200, 5000));

TEST(SetAlgebraTest, AlgebraIdentities) {
  MemChunkStore store;
  auto a = FSet::Create(&store, {"x", "y", "z"});
  auto empty = FSet::Create(&store, {});
  ASSERT_TRUE(a.ok() && empty.ok());
  // A ∪ ∅ = A, A ∩ ∅ = ∅, A \ A = ∅  — structural invariance makes these
  // literal root equalities, not just logical ones.
  EXPECT_EQ(a->Union(*empty)->root(), a->root());
  EXPECT_EQ(a->Intersect(*empty)->root(), empty->root());
  EXPECT_EQ(a->Subtract(*a)->root(), empty->root());
  EXPECT_EQ(a->Union(*a)->root(), a->root());
}

}  // namespace
}  // namespace forkbase
