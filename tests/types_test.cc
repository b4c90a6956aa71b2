// Unit tests for the typed-object layer: Value encoding, FBlob, FList, FMap,
// FSet behaviour against reference containers.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "chunk/mem_chunk_store.h"
#include "types/blob.h"
#include "types/list.h"
#include "types/map.h"
#include "types/set.h"
#include "types/value.h"
#include "util/random.h"

namespace forkbase {
namespace {

// ----------------------------------------------------------------- Value --

TEST(ValueTest, EncodeDecodeAllTypes) {
  std::vector<Value> values = {
      Value::Null(),
      Value::Bool(true),
      Value::Bool(false),
      Value::Int(-123456789),
      Value::Int(0),
      Value::Double(3.25),
      Value::String("hello world"),
      Value::String(""),
      Value::OfBlob(Sha256(Slice("b"))),
      Value::OfList(Sha256(Slice("l"))),
      Value::OfMap(Sha256(Slice("m"))),
      Value::OfSet(Sha256(Slice("s"))),
      Value::OfTable(Sha256(Slice("t"))),
  };
  for (const auto& v : values) {
    std::string buf;
    v.Encode(&buf);
    Decoder dec(buf);
    auto decoded = Value::Decode(&dec);
    ASSERT_TRUE(decoded.ok()) << ValueTypeToString(v.type());
    EXPECT_EQ(*decoded, v) << ValueTypeToString(v.type());
    EXPECT_TRUE(dec.AtEnd());
  }
}

TEST(ValueTest, DistinctTypesCompareUnequal) {
  EXPECT_NE(Value::Int(1), Value::Bool(true));
  EXPECT_NE(Value::String("1"), Value::Int(1));
  EXPECT_NE(Value::OfMap(Sha256(Slice("x"))), Value::OfSet(Sha256(Slice("x"))));
  EXPECT_EQ(Value::Int(7), Value::Int(7));
}

TEST(ValueTest, DecodeRejectsTruncation) {
  std::string buf;
  Value::Int(42).Encode(&buf);
  buf.resize(buf.size() - 1);
  Decoder dec(buf);
  EXPECT_FALSE(Value::Decode(&dec).ok());
}

TEST(ValueTest, ContainerPredicate) {
  EXPECT_FALSE(Value::Int(1).is_container());
  EXPECT_FALSE(Value::String("x").is_container());
  EXPECT_TRUE(Value::OfBlob(Hash256::Null()).is_container());
  EXPECT_TRUE(Value::OfTable(Hash256::Null()).is_container());
}

// ----------------------------------------------------------------- FBlob --

TEST(FBlobTest, CreateReadRoundTrip) {
  MemChunkStore store;
  std::string data = Rng(1).NextBytes(123456);
  auto blob = FBlob::Create(&store, data);
  ASSERT_TRUE(blob.ok());
  auto size = blob->Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, data.size());
  auto all = blob->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, data);
  auto part = blob->Read(1000, 50);
  ASSERT_TRUE(part.ok());
  EXPECT_EQ(*part, data.substr(1000, 50));
}

TEST(FBlobTest, SpliceAndAppend) {
  MemChunkStore store;
  std::string data = Rng(2).NextBytes(50000);
  auto blob = FBlob::Create(&store, data);
  ASSERT_TRUE(blob.ok());
  auto spliced = blob->Splice(100, 10, "0123456789AB");
  ASSERT_TRUE(spliced.ok());
  std::string expected = data.substr(0, 100) + "0123456789AB" +
                         data.substr(110);
  EXPECT_EQ(*spliced->ReadAll(), expected);

  auto appended = spliced->Append("!!!");
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(*appended->ReadAll(), expected + "!!!");
  // Original blob untouched (immutability).
  EXPECT_EQ(*blob->ReadAll(), data);
}

TEST(FBlobTest, EmptyBlob) {
  MemChunkStore store;
  auto blob = FBlob::Create(&store, Slice());
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(*blob->Size(), 0u);
  EXPECT_EQ(*blob->ReadAll(), "");
  auto appended = blob->Append("start");
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(*appended->ReadAll(), "start");
}

TEST(FBlobTest, IdenticalContentIdenticalRoot) {
  MemChunkStore store;
  std::string data = Rng(3).NextBytes(30000);
  auto a = FBlob::Create(&store, data);
  auto b = FBlob::Create(&store, data);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->root(), b->root());
}

TEST(FBlobTest, DiffIdenticalAndEdited) {
  MemChunkStore store;
  std::string data = Rng(4).NextBytes(80000);
  auto a = FBlob::Create(&store, data);
  ASSERT_TRUE(a.ok());
  auto same = FBlob::Create(&store, data);
  auto delta0 = a->Diff(*same);
  ASSERT_TRUE(delta0.ok());
  EXPECT_FALSE(delta0->has_value());

  auto edited = a->Splice(40000, 1, "X");
  ASSERT_TRUE(edited.ok());
  auto delta1 = a->Diff(*edited);
  ASSERT_TRUE(delta1.ok());
  ASSERT_TRUE(delta1->has_value());
  EXPECT_LE((*delta1)->left_start, 40000u);
}

// ----------------------------------------------------------------- FList --

TEST(FListTest, OperationsMatchVector) {
  MemChunkStore store;
  Rng rng(5);
  std::vector<std::string> reference;
  for (int i = 0; i < 500; ++i) reference.push_back(rng.NextString(10));
  auto list = FList::Create(&store, reference);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(*list->Size(), reference.size());
  EXPECT_EQ(*list->Get(123), reference[123]);
  EXPECT_EQ(*list->Elements(), reference);

  auto inserted = list->Insert(100, "INSERTED");
  ASSERT_TRUE(inserted.ok());
  reference.insert(reference.begin() + 100, "INSERTED");
  EXPECT_EQ(*inserted->Elements(), reference);

  auto deleted = inserted->Delete(0);
  ASSERT_TRUE(deleted.ok());
  reference.erase(reference.begin());
  EXPECT_EQ(*deleted->Elements(), reference);

  auto updated = deleted->Update(50, "UPDATED");
  ASSERT_TRUE(updated.ok());
  reference[50] = "UPDATED";
  EXPECT_EQ(*updated->Elements(), reference);

  auto appended = updated->Append("LAST");
  ASSERT_TRUE(appended.ok());
  reference.push_back("LAST");
  EXPECT_EQ(*appended->Elements(), reference);
  ASSERT_TRUE(appended->Validate().ok());
}

TEST(FListTest, EmptyList) {
  MemChunkStore store;
  auto list = FList::Create(&store, {});
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(*list->Size(), 0u);
  EXPECT_TRUE(list->Get(0).status().IsNotFound());
  auto appended = list->Append("first");
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(*appended->Size(), 1u);
}

TEST(FListTest, ElementsWithEmbeddedBinary) {
  MemChunkStore store;
  std::vector<std::string> elems{std::string("\0\0", 2), "tab\tsep",
                                 std::string(1000, '\xff'), ""};
  auto list = FList::Create(&store, elems);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(*list->Elements(), elems);
}

// ------------------------------------------------------------------ FMap --

TEST(FMapTest, CrudMatchesStdMap) {
  MemChunkStore store;
  Rng rng(6);
  std::map<std::string, std::string> reference;
  std::vector<std::pair<std::string, std::string>> kvs;
  for (int i = 0; i < 1000; ++i) {
    std::string k = rng.NextString(10), v = rng.NextString(10);
    reference[k] = v;
    kvs.emplace_back(k, v);
  }
  auto map = FMap::Create(&store, kvs);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(*map->Size(), reference.size());

  auto set = map->Set("akey", "avalue");
  ASSERT_TRUE(set.ok());
  reference["akey"] = "avalue";
  auto got = set->Get("akey");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(**got, "avalue");

  const std::string victim = reference.begin()->first;
  auto removed = set->Remove(victim);
  ASSERT_TRUE(removed.ok());
  reference.erase(victim);
  auto gone = removed->Get(victim);
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(gone->has_value());

  auto entries = removed->Entries();
  ASSERT_TRUE(entries.ok());
  std::vector<std::pair<std::string, std::string>> expected(reference.begin(),
                                                            reference.end());
  EXPECT_EQ(*entries, expected);
}

TEST(FMapTest, DuplicateKeysLastWins) {
  MemChunkStore store;
  auto map = FMap::Create(&store, {{"k", "first"}, {"k", "second"}});
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(*map->Size(), 1u);
  EXPECT_EQ(**map->Get("k"), "second");
}

TEST(FMapTest, InsertionOrderIrrelevant) {
  MemChunkStore store;
  std::vector<std::pair<std::string, std::string>> kvs;
  Rng rng(7);
  for (int i = 0; i < 800; ++i) {
    kvs.emplace_back(rng.NextString(12), rng.NextString(8));
  }
  auto forward = FMap::Create(&store, kvs);
  std::reverse(kvs.begin(), kvs.end());
  auto backward = FMap::Create(&store, kvs);
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(backward.ok());
  EXPECT_EQ(forward->root(), backward->root());
}

TEST(FMapTest, RepeatedKeysGiveTheSameRootInAnyOrder) {
  MemChunkStore store;
  std::vector<std::pair<std::string, std::string>> sorted;
  Rng rng(9);
  for (int i = 0; i < 600; ++i) {
    const std::string key = std::to_string(1000 + i);
    for (int r = 0; r < 1 + i % 3; ++r) sorted.emplace_back(key, key + "v");
  }
  auto from_sorted = FMap::Create(&store, sorted);
  ASSERT_TRUE(from_sorted.ok());
  EXPECT_EQ(*from_sorted->Size(), 600u);

  auto reversed = sorted;
  std::reverse(reversed.begin(), reversed.end());
  auto shuffled = sorted;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
  }
  for (const auto& kvs : {reversed, shuffled}) {
    auto map = FMap::Create(&store, kvs);
    ASSERT_TRUE(map.ok());
    EXPECT_EQ(map->root(), from_sorted->root());
  }
}

TEST(FMapTest, LastWinsWhetherOrNotInputIsSorted) {
  MemChunkStore store;
  // Already in key order: no sort runs, the in-place dedup keeps the last.
  auto sorted = FMap::Create(
      &store, {{"a", "1"}, {"k", "first"}, {"k", "second"}, {"z", "2"}});
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(*sorted->Size(), 3u);
  EXPECT_EQ(**sorted->Get("k"), "second");
  // Out of order: the stable sort keeps "second" after "first".
  auto unsorted = FMap::Create(
      &store, {{"z", "2"}, {"k", "first"}, {"a", "1"}, {"k", "second"}});
  ASSERT_TRUE(unsorted.ok());
  EXPECT_EQ(unsorted->root(), sorted->root());
  auto reversed = FMap::Create(
      &store, {{"z", "2"}, {"k", "second"}, {"k", "first"}, {"a", "1"}});
  ASSERT_TRUE(reversed.ok());
  EXPECT_EQ(**reversed->Get("k"), "first");
}

TEST(FMapTest, ForEachSeesSortedEntries) {
  MemChunkStore store;
  auto map = FMap::Create(&store, {{"b", "2"}, {"a", "1"}, {"c", "3"}});
  ASSERT_TRUE(map.ok());
  std::vector<std::string> keys;
  ASSERT_TRUE(map->ForEach([&](Slice k, Slice) {
                   keys.push_back(k.ToString());
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(FMapTest, Merge3EndToEnd) {
  MemChunkStore store;
  auto base = FMap::Create(&store, {{"a", "1"}, {"b", "2"}, {"c", "3"}});
  ASSERT_TRUE(base.ok());
  auto left = base->Set("a", "L");
  auto right = base->Set("c", "R");
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  auto merged = FMap::Merge3(*base, *left, *right);
  ASSERT_TRUE(merged.ok());
  FMap m = FMap::Attach(&store, merged->merged.root);
  EXPECT_EQ(**m.Get("a"), "L");
  EXPECT_EQ(**m.Get("b"), "2");
  EXPECT_EQ(**m.Get("c"), "R");
}

// ------------------------------------------------------------------ FSet --

TEST(FSetTest, OperationsMatchStdSet) {
  MemChunkStore store;
  Rng rng(8);
  std::set<std::string> reference;
  std::vector<std::string> members;
  for (int i = 0; i < 500; ++i) {
    std::string m = rng.NextString(10);
    reference.insert(m);
    members.push_back(m);
  }
  auto set = FSet::Create(&store, members);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(*set->Size(), reference.size());
  EXPECT_TRUE(*set->Contains(*reference.begin()));
  EXPECT_FALSE(*set->Contains("definitely-not-present"));

  auto inserted = set->Insert("zzz-new");
  ASSERT_TRUE(inserted.ok());
  reference.insert("zzz-new");
  auto erased = inserted->Erase(*reference.begin());
  ASSERT_TRUE(erased.ok());
  reference.erase(reference.begin());
  auto all = erased->Members();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, std::vector<std::string>(reference.begin(), reference.end()));
}

TEST(FSetTest, DuplicatesCollapse) {
  MemChunkStore store;
  auto set = FSet::Create(&store, {"x", "x", "y", "x"});
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(*set->Size(), 2u);
}

TEST(FSetTest, RepeatedMembersGiveTheSameRootInAnyOrder) {
  MemChunkStore store;
  std::vector<std::string> sorted;
  for (int i = 0; i < 900; ++i) {
    for (int r = 0; r < 1 + i % 3; ++r) {
      sorted.push_back(std::to_string(1000 + i));
    }
  }
  auto from_sorted = FSet::Create(&store, sorted);
  ASSERT_TRUE(from_sorted.ok());
  EXPECT_EQ(*from_sorted->Size(), 900u);

  auto unique = sorted;
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  auto reversed = sorted;
  std::reverse(reversed.begin(), reversed.end());
  auto shuffled = sorted;
  Rng rng(10);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
  }
  for (const auto& members : {unique, reversed, shuffled}) {
    auto set = FSet::Create(&store, members);
    ASSERT_TRUE(set.ok());
    EXPECT_EQ(set->root(), from_sorted->root());
  }
}

TEST(FSetTest, DiffReportsSymmetricDifference) {
  MemChunkStore store;
  auto a = FSet::Create(&store, {"a", "b", "c"});
  auto b = FSet::Create(&store, {"b", "c", "d"});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto deltas = a->Diff(*b);
  ASSERT_TRUE(deltas.ok());
  ASSERT_EQ(deltas->size(), 2u);
  EXPECT_EQ((*deltas)[0].key, "a");
  EXPECT_TRUE((*deltas)[0].removed());
  EXPECT_EQ((*deltas)[1].key, "d");
  EXPECT_TRUE((*deltas)[1].added());
}

TEST(FSetTest, Merge3Union) {
  MemChunkStore store;
  auto base = FSet::Create(&store, {"a", "b"});
  ASSERT_TRUE(base.ok());
  auto left = base->Insert("left-only");
  auto right = base->Insert("right-only");
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  auto merged = FSet::Merge3(*base, *left, *right);
  ASSERT_TRUE(merged.ok());
  FSet m = FSet::Attach(&store, merged->merged.root);
  EXPECT_TRUE(*m.Contains("left-only"));
  EXPECT_TRUE(*m.Contains("right-only"));
  EXPECT_EQ(*m.Size(), 4u);
}

}  // namespace
}  // namespace forkbase
