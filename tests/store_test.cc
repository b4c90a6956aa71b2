// Unit tests for the version layer: FNode identity, branch table, the
// ForkBase facade (Put/Get/Branch/Merge/Diff/History/Verify), LCA and
// tamper evidence under the §II-D threat model.
#include <gtest/gtest.h>

#include <filesystem>
#include <mutex>
#include <unordered_map>

#include "chunk/mem_chunk_store.h"
#include "store/forkbase.h"
#include "util/datagen.h"
#include "util/random.h"

namespace forkbase {
namespace {

std::shared_ptr<MemChunkStore> NewStore() {
  return std::make_shared<MemChunkStore>();
}

// ----------------------------------------------------------------- FNode --

TEST(FNodeTest, RoundTrip) {
  auto store = NewStore();
  FNode node;
  node.key = "dataset";
  node.value = Value::String("v1");
  node.bases = {Sha256(Slice("parent"))};
  node.author = "alice";
  node.message = "initial";
  node.logical_time = 7;
  auto uid = node.Write(store.get());
  ASSERT_TRUE(uid.ok());
  auto loaded = FNode::Load(store.get(), *uid);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->key, "dataset");
  EXPECT_EQ(loaded->value, Value::String("v1"));
  EXPECT_EQ(loaded->bases, node.bases);
  EXPECT_EQ(loaded->author, "alice");
  EXPECT_EQ(loaded->logical_time, 7u);
}

TEST(FNodeTest, UidCoversValueAndHistory) {
  FNode a;
  a.key = "k";
  a.value = Value::Int(1);
  FNode b = a;
  EXPECT_EQ(a.ToChunk().hash(), b.ToChunk().hash())
      << "equal value + history => equal uid (paper's equivalence)";
  b.bases = {Sha256(Slice("x"))};
  EXPECT_NE(a.ToChunk().hash(), b.ToChunk().hash())
      << "different history => different uid";
  FNode c = a;
  c.value = Value::Int(2);
  EXPECT_NE(a.ToChunk().hash(), c.ToChunk().hash());
}

TEST(FNodeTest, LoadDetectsTampering) {
  auto store = NewStore();
  FNode node;
  node.key = "k";
  node.value = Value::String("sensitive");
  auto uid = node.Write(store.get());
  ASSERT_TRUE(uid.ok());
  ASSERT_TRUE(store->TamperForTesting(*uid, 4, 0x01));
  auto loaded = FNode::Load(store.get(), *uid);
  EXPECT_TRUE(loaded.status().IsCorruption());
}

// ----------------------------------------------------------- BranchTable --

TEST(BranchTableTest, ForkRenameDelete) {
  BranchTable table;
  Hash256 v1 = Sha256(Slice("v1"));
  table.SetHead("k", "master", v1);
  ASSERT_TRUE(table.Fork("k", "dev", "master").ok());
  EXPECT_EQ(*table.Head("k", "dev"), v1);
  EXPECT_TRUE(table.Fork("k", "dev", "master").code() ==
              StatusCode::kAlreadyExists);
  ASSERT_TRUE(table.Rename("k", "dev", "feature").ok());
  EXPECT_FALSE(table.Exists("k", "dev"));
  EXPECT_TRUE(table.Exists("k", "feature"));
  ASSERT_TRUE(table.Delete("k", "feature").ok());
  EXPECT_FALSE(table.Exists("k", "feature"));
  EXPECT_TRUE(table.Delete("k", "feature").IsNotFound());
}

TEST(BranchTableTest, SaveLoadRoundTrip) {
  BranchTable table;
  table.SetHead("key-a", "master", Sha256(Slice("1")));
  table.SetHead("key-a", "dev", Sha256(Slice("2")));
  table.SetHead("key-b", "master", Sha256(Slice("3")));
  std::string path = ::testing::TempDir() + "/branches_test.tsv";
  ASSERT_TRUE(table.SaveToFile(path).ok());
  BranchTable loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  EXPECT_EQ(*loaded.Head("key-a", "dev"), Sha256(Slice("2")));
  EXPECT_EQ(loaded.Keys(), (std::vector<std::string>{"key-a", "key-b"}));
  std::filesystem::remove(path);
}

// -------------------------------------------------------------- ForkBase --

TEST(ForkBaseTest, PutGetRoundTripAllTypes) {
  ForkBase db(NewStore());
  ASSERT_TRUE(db.Put("s", Value::String("str")).ok());
  ASSERT_TRUE(db.Put("i", Value::Int(-5)).ok());
  ASSERT_TRUE(db.Put("b", Value::Bool(true)).ok());
  ASSERT_TRUE(db.PutBlob("blob", "raw bytes").ok());
  ASSERT_TRUE(db.PutMap("map", {{"k", "v"}}).ok());
  ASSERT_TRUE(db.PutSet("set", {"m1", "m2"}).ok());
  ASSERT_TRUE(db.PutList("list", {"e1", "e2"}).ok());

  EXPECT_EQ(db.Get("s")->string_value(), "str");
  EXPECT_EQ(db.Get("i")->int_value(), -5);
  EXPECT_TRUE(db.Get("b")->bool_value());
  EXPECT_EQ(*db.GetBlob("blob")->ReadAll(), "raw bytes");
  EXPECT_EQ(**db.GetMap("map")->Get("k"), "v");
  EXPECT_TRUE(*db.GetSet("set")->Contains("m2"));
  EXPECT_EQ(*db.GetList("list")->Get(1), "e2");
}

TEST(ForkBaseTest, TypedGetRejectsWrongType) {
  ForkBase db(NewStore());
  ASSERT_TRUE(db.Put("k", Value::String("str")).ok());
  EXPECT_FALSE(db.GetMap("k").ok());
  EXPECT_FALSE(db.GetBlob("k").ok());
}

TEST(ForkBaseTest, HeadAdvancesAndHistoryChains) {
  ForkBase db(NewStore());
  auto v1 = db.Put("k", Value::Int(1), "master", {"alice", "one"});
  auto v2 = db.Put("k", Value::Int(2), "master", {"bob", "two"});
  auto v3 = db.Put("k", Value::Int(3), "master", {"carol", "three"});
  ASSERT_TRUE(v1.ok() && v2.ok() && v3.ok());
  EXPECT_EQ(*db.Head("k"), *v3);
  EXPECT_TRUE(db.IsBranchHead("k", *v3));
  EXPECT_FALSE(db.IsBranchHead("k", *v1));

  auto history = db.History("k");
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->size(), 3u);
  EXPECT_EQ((*history)[0].uid, *v3);
  EXPECT_EQ((*history)[1].uid, *v2);
  EXPECT_EQ((*history)[2].uid, *v1);
  EXPECT_EQ((*history)[0].author, "carol");
  EXPECT_EQ((*history)[2].message, "one");
  EXPECT_TRUE((*history)[2].bases.empty());
  EXPECT_EQ((*history)[0].bases, std::vector<Hash256>{*v2});

  // Old versions remain addressable.
  EXPECT_EQ(db.GetVersion(*v1)->int_value(), 1);
}

TEST(ForkBaseTest, GetVersionByUidAndMeta) {
  ForkBase db(NewStore());
  auto uid = db.Put("k", Value::String("x"), "master", {"dev", "note"});
  ASSERT_TRUE(uid.ok());
  auto meta = db.Meta(*uid);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->key, "k");
  EXPECT_EQ(meta->type, ValueType::kString);
  EXPECT_EQ(meta->author, "dev");
  EXPECT_EQ(meta->message, "note");
  EXPECT_EQ(meta->uid_base32().size(), 52u);
}

TEST(ForkBaseTest, BranchingIsolatesEdits) {
  ForkBase db(NewStore());
  ASSERT_TRUE(db.PutMap("data", {{"a", "1"}, {"b", "2"}}).ok());
  ASSERT_TRUE(db.Branch("data", "vendor").ok());
  // Edit only the vendor branch.
  auto vendor_map = db.GetMap("data", "vendor");
  ASSERT_TRUE(vendor_map.ok());
  auto edited = vendor_map->Set("a", "vendor-edit");
  ASSERT_TRUE(edited.ok());
  ASSERT_TRUE(db.Put("data", Value::OfMap(edited->root()), "vendor").ok());

  EXPECT_EQ(**db.GetMap("data", "master")->Get("a"), "1");
  EXPECT_EQ(**db.GetMap("data", "vendor")->Get("a"), "vendor-edit");
  auto branches = db.ListBranches("data");
  ASSERT_TRUE(branches.ok());
  EXPECT_EQ(*branches, (std::vector<std::string>{"master", "vendor"}));
}

TEST(ForkBaseTest, BranchFromVersionPinsHistory) {
  ForkBase db(NewStore());
  auto v1 = db.Put("k", Value::Int(1));
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(db.Put("k", Value::Int(2)).ok());
  ASSERT_TRUE(db.BranchFromVersion("k", "pinned", *v1).ok());
  EXPECT_EQ(db.Get("k", "pinned")->int_value(), 1);
  // Wrong key is rejected.
  ASSERT_TRUE(db.Put("other", Value::Int(9)).ok());
  auto other_head = db.Head("other");
  ASSERT_TRUE(other_head.ok());
  EXPECT_FALSE(db.BranchFromVersion("k", "bad", *other_head).ok());
}

TEST(ForkBaseTest, LatestListsAllBranchHeads) {
  ForkBase db(NewStore());
  ASSERT_TRUE(db.Put("k", Value::Int(1)).ok());
  ASSERT_TRUE(db.Branch("k", "dev").ok());
  auto dev_uid = db.Put("k", Value::Int(2), "dev");
  ASSERT_TRUE(dev_uid.ok());
  auto latest = db.Latest("k");
  ASSERT_TRUE(latest.ok());
  ASSERT_EQ(latest->size(), 2u);
  EXPECT_EQ((*latest)[0].first, "dev");
  EXPECT_EQ((*latest)[0].second, *dev_uid);
  EXPECT_EQ((*latest)[1].first, "master");
}

TEST(ForkBaseTest, MergeFastForward) {
  ForkBase db(NewStore());
  ASSERT_TRUE(db.Put("k", Value::Int(1)).ok());
  ASSERT_TRUE(db.Branch("k", "dev").ok());
  auto dev_head = db.Put("k", Value::Int(2), "dev");
  ASSERT_TRUE(dev_head.ok());
  // master has not advanced: merging dev into master fast-forwards.
  auto merged = db.Merge("k", "master", "dev");
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, *dev_head);
  EXPECT_EQ(*db.Head("k", "master"), *dev_head);
}

TEST(ForkBaseTest, MergeAlreadyContainedIsNoOp) {
  ForkBase db(NewStore());
  ASSERT_TRUE(db.Put("k", Value::Int(1)).ok());
  ASSERT_TRUE(db.Branch("k", "dev").ok());
  auto master_head = db.Put("k", Value::Int(2));  // master advances
  ASSERT_TRUE(master_head.ok());
  auto merged = db.Merge("k", "master", "dev");  // dev is an ancestor
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, *master_head);
}

TEST(ForkBaseTest, ThreeWayMergeOfMaps) {
  ForkBase db(NewStore());
  ASSERT_TRUE(db.PutMap("k", {{"a", "1"}, {"b", "2"}, {"c", "3"}}).ok());
  ASSERT_TRUE(db.Branch("k", "dev").ok());

  auto master_map = db.GetMap("k");
  auto m2 = master_map->Set("a", "master-edit");
  ASSERT_TRUE(m2.ok());
  ASSERT_TRUE(db.Put("k", Value::OfMap(m2->root())).ok());

  auto dev_map = db.GetMap("k", "dev");
  auto d2 = dev_map->Set("c", "dev-edit");
  ASSERT_TRUE(d2.ok());
  ASSERT_TRUE(db.Put("k", Value::OfMap(d2->root()), "dev").ok());

  auto merged_uid = db.Merge("k", "master", "dev");
  ASSERT_TRUE(merged_uid.ok()) << merged_uid.status().ToString();
  auto merged = db.GetMap("k", "master");
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(**merged->Get("a"), "master-edit");
  EXPECT_EQ(**merged->Get("c"), "dev-edit");

  // The merge commit has two bases (both previous heads).
  auto meta = db.Meta(*merged_uid);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->bases.size(), 2u);
}

TEST(ForkBaseTest, MergeConflictSurfaces) {
  ForkBase db(NewStore());
  ASSERT_TRUE(db.PutMap("k", {{"a", "1"}}).ok());
  ASSERT_TRUE(db.Branch("k", "dev").ok());
  auto m = db.GetMap("k")->Set("a", "L");
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(db.Put("k", Value::OfMap(m->root())).ok());
  auto d = db.GetMap("k", "dev")->Set("a", "R");
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(db.Put("k", Value::OfMap(d->root()), "dev").ok());

  auto strict = db.Merge("k", "master", "dev");
  EXPECT_TRUE(strict.status().IsMergeConflict());
  auto prefer = db.Merge("k", "master", "dev", MergePolicy::kPreferRight);
  ASSERT_TRUE(prefer.ok());
  EXPECT_EQ(**db.GetMap("k")->Get("a"), "R");
}

TEST(ForkBaseTest, CommonAncestorOnDag) {
  ForkBase db(NewStore());
  auto base = db.Put("k", Value::Int(0));
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(db.Branch("k", "dev").ok());
  auto m1 = db.Put("k", Value::Int(1));
  auto d1 = db.Put("k", Value::Int(2), "dev");
  ASSERT_TRUE(m1.ok() && d1.ok());
  auto lca = db.CommonAncestor(*m1, *d1);
  ASSERT_TRUE(lca.ok());
  EXPECT_EQ(*lca, *base);
  EXPECT_EQ(*db.CommonAncestor(*m1, *m1), *m1);
  EXPECT_EQ(*db.CommonAncestor(*base, *m1), *base);
}

TEST(ForkBaseTest, PrimitiveMergeTakesChangedSide) {
  ForkBase db(NewStore());
  ASSERT_TRUE(db.Put("k", Value::Int(0)).ok());
  ASSERT_TRUE(db.Branch("k", "dev").ok());
  ASSERT_TRUE(db.Put("k", Value::Int(42), "dev").ok());
  ASSERT_TRUE(db.Put("k", Value::Int(0)).ok());  // master re-commits same value
  auto merged = db.Merge("k", "master", "dev");
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(db.Get("k")->int_value(), 42);
}

// --------------------------------------------------------------- Tamper --

TEST(ForkBaseVerifyTest, CleanVersionVerifies) {
  ForkBase db(NewStore());
  CsvGenOptions opts;
  opts.num_rows = 500;
  auto uid = db.PutTableFromCsv("ds", GenerateCsv(opts));
  ASSERT_TRUE(uid.ok());
  EXPECT_TRUE(db.Verify(*uid).ok());
}

TEST(ForkBaseVerifyTest, DetectsDataChunkTampering) {
  auto store = NewStore();
  ForkBase db(store);
  CsvGenOptions opts;
  opts.num_rows = 2000;
  auto uid = db.PutTableFromCsv("ds", GenerateCsv(opts));
  ASSERT_TRUE(uid.ok());

  // Tamper with a row-map chunk (data page).
  auto table = db.GetTable("ds");
  ASSERT_TRUE(table.ok());
  std::vector<Hash256> chunks;
  ASSERT_TRUE(table->rows().tree().ReachableChunks(&chunks).ok());
  ASSERT_TRUE(store->TamperForTesting(chunks.back(), 9, 0x10));
  Status verify = db.Verify(*uid);
  EXPECT_TRUE(verify.IsCorruption()) << verify.ToString();
}

TEST(ForkBaseVerifyTest, DetectsHistoryTampering) {
  auto store = NewStore();
  ForkBase db(store);
  auto v1 = db.Put("k", Value::String("one"));
  auto v2 = db.Put("k", Value::String("two"));
  ASSERT_TRUE(v1.ok() && v2.ok());
  ASSERT_TRUE(db.Verify(*v2).ok());
  // Tamper with the ANCESTOR FNode — history forgery.
  ASSERT_TRUE(store->TamperForTesting(*v1, 6, 0x01));
  Status verify = db.Verify(*v2);
  EXPECT_TRUE(verify.IsCorruption()) << verify.ToString();
}

TEST(ForkBaseVerifyTest, DetectsFNodeTampering) {
  auto store = NewStore();
  ForkBase db(store);
  auto uid = db.Put("k", Value::String("v"));
  ASSERT_TRUE(uid.ok());
  ASSERT_TRUE(store->TamperForTesting(*uid, 3, 0x80));
  EXPECT_TRUE(db.Verify(*uid).IsCorruption());
}

// Counts chunk reads per id, through Get and GetMany alike.
class CountingStore : public MemChunkStore {
 public:
  StatusOr<Chunk> Get(const Hash256& id) const override {
    Record({&id, 1});
    return MemChunkStore::Get(id);
  }
  std::vector<StatusOr<Chunk>> GetMany(
      std::span<const Hash256> ids) const override {
    Record(ids);
    return MemChunkStore::GetMany(ids);
  }
  std::unordered_map<Hash256, int, Hash256Hasher> TakeLoads() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(loads_, {});
  }

 private:
  void Record(std::span<const Hash256> ids) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& id : ids) ++loads_[id];
  }
  mutable std::mutex mu_;
  mutable std::unordered_map<Hash256, int, Hash256Hasher> loads_;
};

TEST(ForkBaseVerifyTest, LoadsEachChunkOfAVersionOnce) {
  auto store = std::make_shared<CountingStore>();
  ForkBase db(store);
  CsvGenOptions opts;
  opts.num_rows = 20000;
  ASSERT_TRUE(db.PutTableFromCsv("table", GenerateCsv(opts)).ok());
  ASSERT_TRUE(db.UpdateTableCell("table", "r00001500", 2, "edited").ok());
  std::vector<std::pair<std::string, std::string>> kvs;
  for (int i = 0; i < 5000; ++i) {
    kvs.emplace_back("k" + std::to_string(100000 + i), std::to_string(i));
  }
  ASSERT_TRUE(db.PutMap("map", kvs).ok());
  ASSERT_TRUE(db.UpdateMap("map", {KeyedOp{"k100042", "edited"}}).ok());

  for (const std::string key : {"table", "map"}) {
    SCOPED_TRACE(key);
    auto uid = db.Head(key);
    ASSERT_TRUE(uid.ok());
    auto value = db.Get(key);
    ASSERT_TRUE(value.ok());
    // A table's value root is its header chunk, read by Attach and then
    // again by the header's own re-hash check.
    Hash256 tree_root = value->root();
    size_t header_loads = 0;
    if (key == "table") {
      tree_root = db.GetTable(key)->rows().root();
      header_loads = 2;
    }
    std::vector<Hash256> reachable;
    ASSERT_TRUE(PosTree(store.get(), ChunkType::kMapLeaf, tree_root)
                    .ReachableChunks(&reachable)
                    .ok());
    ASSERT_GT(reachable.size(), 20u);
    store->TakeLoads();

    ASSERT_TRUE(db.Verify(*uid).ok());
    auto loads = store->TakeLoads();
    size_t not_once = 0;
    for (const auto& id : reachable) not_once += loads[id] != 1;
    EXPECT_EQ(not_once, 0u) << "tree chunks not loaded exactly once";
    size_t total = 0;
    for (const auto& [id, n] : loads) total += n;
    const size_t fnode_loads = 2;  // the version and its one ancestor
    EXPECT_EQ(total, reachable.size() + header_loads + fnode_loads);
  }
}

// ------------------------------------------------------------------ Stat --

TEST(ForkBaseTest, StatCountsCatalogue) {
  ForkBase db(NewStore());
  ASSERT_TRUE(db.Put("a", Value::Int(1)).ok());
  ASSERT_TRUE(db.Put("a", Value::Int(2)).ok());
  ASSERT_TRUE(db.Put("b", Value::Int(3)).ok());
  ASSERT_TRUE(db.Branch("a", "dev").ok());
  ForkBaseStats stats = db.Stat();
  EXPECT_EQ(stats.keys, 2u);
  EXPECT_EQ(stats.branches, 3u);
  EXPECT_EQ(stats.commits, 3u);
  EXPECT_GT(stats.chunks.chunk_count, 0u);
}

TEST(ForkBaseTest, EmptyKeyRejected) {
  ForkBase db(NewStore());
  EXPECT_FALSE(db.Put("", Value::Int(1)).ok());
}

TEST(ForkBaseTest, MissingKeyAndBranchAreNotFound) {
  ForkBase db(NewStore());
  EXPECT_TRUE(db.Get("absent").status().IsNotFound());
  ASSERT_TRUE(db.Put("k", Value::Int(1)).ok());
  EXPECT_TRUE(db.Get("k", "absent-branch").status().IsNotFound());
  EXPECT_TRUE(db.Latest("absent").status().IsNotFound());
  EXPECT_TRUE(db.ListBranches("absent").status().IsNotFound());
}

}  // namespace
}  // namespace forkbase
