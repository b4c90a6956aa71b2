// Unit tests for the version layer: FNode identity, branch table and its
// head log (torn tails, compaction, the TSV import, failed appends), the
// ForkBase facade (Put/Get/Branch/Merge/Diff/History/Verify), LCA and
// tamper evidence under the §II-D threat model.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "chunk/mem_chunk_store.h"
#include "store/forkbase.h"
#include "testing/remote_chunk_store.h"
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
  ASSERT_TRUE(table.Create("k", "dev", v1).ok());
  EXPECT_EQ(*table.Head("k", "dev"), v1);
  EXPECT_TRUE(table.Create("k", "dev", Sha256(Slice("v2"))).code() ==
              StatusCode::kAlreadyExists);
  EXPECT_EQ(*table.Head("k", "dev"), v1);
  ASSERT_TRUE(table.Rename("k", "dev", "feature").ok());
  EXPECT_FALSE(table.Head("k", "dev").ok());
  EXPECT_TRUE(table.Head("k", "feature").ok());
  ASSERT_TRUE(table.Delete("k", "feature").ok());
  EXPECT_FALSE(table.Head("k", "feature").ok());
  EXPECT_TRUE(table.Delete("k", "feature").IsNotFound());
}

// A temporary directory per test, removed on exit.
class HeadLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fb_head_log_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string LogPath() const { return dir_ + "/heads.fbh"; }
  uint64_t LogSize() const { return std::filesystem::file_size(LogPath()); }
  std::string ReadLog() const {
    std::ifstream in(LogPath(), std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }
  void WriteLog(const std::string& bytes) const {
    std::ofstream(LogPath(), std::ios::binary | std::ios::trunc) << bytes;
  }

  std::string dir_;
};

TEST_F(HeadLogTest, TruncationAtAnyByteKeepsEveryCompleteRecord) {
  const Hash256 u1 = Sha256(Slice("dev"));
  std::vector<uint64_t> ends;  // log size after each of the last appends
  {
    BranchTable table;
    ASSERT_TRUE(table.Attach(dir_, /*fsync=*/false).ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(table.SetHead("k" + std::to_string(i), "master",
                                Sha256(Slice(std::to_string(i))))
                      .ok());
    }
    ends.push_back(LogSize());
    ASSERT_TRUE(table.SetHead("k1", "dev", u1).ok());
    ends.push_back(LogSize());
    ASSERT_TRUE(table.Rename("k1", "dev", "feature").ok());  // S + D
    ends.push_back(LogSize());
    ASSERT_TRUE(table.Delete("k2", "master").ok());
    ends.push_back(LogSize());
  }
  const std::string full = ReadLog();
  ASSERT_EQ(full.size(), ends.back());
  for (uint64_t cut = ends[0]; cut <= ends.back(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    WriteLog(full.substr(0, cut));
    BranchTable table;
    ASSERT_TRUE(table.Attach(dir_, false).ok());
    // Nothing before the last three appends is ever lost.
    for (int i = 0; i < 10; ++i) {
      if (i == 2 && cut == ends[3]) continue;  // the delete is complete
      auto head = table.Head("k" + std::to_string(i), "master");
      ASSERT_TRUE(head.ok()) << i;
      EXPECT_EQ(*head, Sha256(Slice(std::to_string(i))));
    }
    EXPECT_EQ(table.Head("k2", "master").ok(), cut < ends[3]);
    if (cut < ends[1]) {
      EXPECT_FALSE(table.Head("k1", "dev").ok());
      EXPECT_FALSE(table.Head("k1", "feature").ok());
    } else if (cut < ends[2]) {
      // Mid-rename: the old name survives, the new one only if its record
      // is complete; the uid is never unreachable.
      EXPECT_EQ(*table.Head("k1", "dev"), u1);
      if (table.Head("k1", "feature").ok()) {
        EXPECT_EQ(*table.Head("k1", "feature"), u1);
      }
    } else {
      EXPECT_FALSE(table.Head("k1", "dev").ok());
      EXPECT_EQ(*table.Head("k1", "feature"), u1);
    }
    // Replay cut the torn tail: a new append lands on a record boundary
    // and survives the next replay.
    ASSERT_TRUE(table.SetHead("after", "master", u1).ok());
    BranchTable reread;
    ASSERT_TRUE(reread.Attach(dir_, false).ok());
    EXPECT_EQ(*reread.Head("after", "master"), u1);
    EXPECT_EQ(reread.Keys(), table.Keys());
  }
}

TEST_F(HeadLogTest, ChurnCompactsTheLog) {
  BranchTable table;
  ASSERT_TRUE(table.Attach(dir_, false).ok());
  ASSERT_TRUE(table.SetHead("k", "master", Sha256(Slice("0"))).ok());
  const uint64_t record = LogSize();
  for (int i = 1; i < 3000; ++i) {
    ASSERT_TRUE(
        table.SetHead("k", "master", Sha256(Slice(std::to_string(i)))).ok());
  }
  // records <= 2 x live + 1024 + 1 after every append.
  EXPECT_LE(LogSize(), (2 + 1024 + 1) * record);
  BranchTable reread;
  ASSERT_TRUE(reread.Attach(dir_, false).ok());
  EXPECT_EQ(*reread.Head("k", "master"), Sha256(Slice("2999")));
  EXPECT_EQ(reread.Keys(), (std::vector<std::string>{"k"}));
}

TEST_F(HeadLogTest, LegacyTsvIsImportedOnce) {
  Hash256 head;
  {
    auto db = ForkBase::Open(dir_);
    ASSERT_TRUE(db.ok());
    head = *(*db)->Put("k", Value::String("v"));
  }
  // An older build's directory: heads in branches.tsv, no head log.
  std::filesystem::remove(LogPath());
  std::ofstream(dir_ + "/branches.tsv")
      << "k\tmaster\t" << head.ToBase32() << "\n"
      << "k\tdev\t" << head.ToBase32() << "\n";
  {
    auto db = ForkBase::Open(dir_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*db)->Get("k", "dev")->ToString(), "v");
    EXPECT_FALSE(std::filesystem::exists(dir_ + "/branches.tsv"));
    ASSERT_TRUE((*db)->DeleteBranch("k", "dev").ok());
  }
  // Once imported, a stray TSV file is not read again.
  std::ofstream(dir_ + "/branches.tsv")
      << "k\tstray\t" << head.ToBase32() << "\n";
  auto db = ForkBase::Open(dir_);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(*(*db)->ListBranches("k"), (std::vector<std::string>{"master"}));
  EXPECT_EQ(*(*db)->Head("k"), head);
}

TEST_F(HeadLogTest, FailedImportSnapshotLeavesTheTsvForTheNextAttach) {
  const Hash256 uid = Sha256(Slice("v"));
  std::ofstream(dir_ + "/branches.tsv")
      << "k\tmaster\t" << uid.ToBase32() << "\n";
  // A directory where the snapshot's tmp file goes makes its write fail.
  std::filesystem::create_directory(LogPath() + ".tmp");
  {
    BranchTable table;
    EXPECT_EQ(table.Attach(dir_, false).code(), StatusCode::kIOError);
  }
  // No log, empty or otherwise, hides the TSV from the next attach.
  EXPECT_FALSE(std::filesystem::exists(LogPath()));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/branches.tsv"));
  std::filesystem::remove(LogPath() + ".tmp");
  {
    BranchTable table;
    ASSERT_TRUE(table.Attach(dir_, false).ok());
    EXPECT_EQ(*table.Head("k", "master"), uid);
    EXPECT_FALSE(std::filesystem::exists(dir_ + "/branches.tsv"));
  }
  BranchTable reread;
  ASSERT_TRUE(reread.Attach(dir_, false).ok());
  EXPECT_EQ(*reread.Head("k", "master"), uid);
  EXPECT_EQ(reread.Keys(), (std::vector<std::string>{"k"}));
}

TEST_F(HeadLogTest, MalformedLegacyTsvFailsOpen) {
  std::ofstream(dir_ + "/branches.tsv") << "no tabs here\n";
  EXPECT_TRUE(ForkBase::Open(dir_).status().IsCorruption());
}

TEST_F(HeadLogTest, FailedAppendPublishesNoHead) {
  ForkBase db(NewStore());
  ASSERT_TRUE(db.branches().Attach(dir_, false).ok());
  auto v1 = db.Put("k", Value::String("v1"));
  ASSERT_TRUE(v1.ok());
  {
    // Cap this process's file size a few bytes past the log's end: the
    // next append writes a torn prefix and then fails with EFBIG.
    struct rlimit saved;
    ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
    auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
    struct rlimit capped = saved;
    capped.rlim_cur = LogSize() + 5;
    ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);
    auto v2 = db.Put("k", Value::String("v2"));
    Status fork = db.Branch("k", "dev");
    setrlimit(RLIMIT_FSIZE, &saved);
    std::signal(SIGXFSZ, old_handler);
    EXPECT_EQ(v2.status().code(), StatusCode::kIOError);
    EXPECT_EQ(fork.code(), StatusCode::kIOError);
  }
  EXPECT_EQ(*db.Head("k"), *v1);
  EXPECT_FALSE(db.branches().Head("k", "dev").ok());
  // The torn bytes were cut back: the log keeps working and replays.
  auto v3 = db.Put("k", Value::String("v3"));
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  BranchTable reread;
  ASSERT_TRUE(reread.Attach(dir_, false).ok());
  EXPECT_EQ(*reread.Head("k", "master"), *v3);
  EXPECT_FALSE(reread.Head("k", "dev").ok());
}

TEST_F(HeadLogTest, ConcurrentWritersAndReadersSurviveReopen) {
  constexpr int kWriters = 4;
  constexpr int kPuts = 40;
  std::vector<Hash256> last(kWriters);
  {
    auto db_or = ForkBase::Open(dir_);
    ASSERT_TRUE(db_or.ok());
    ForkBase& db = **db_or;
    ASSERT_TRUE(db.Put("shared", Value::Int(0)).ok());
    std::atomic<bool> done{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kWriters; ++t) {
      threads.emplace_back([&db, &last, t] {
        const std::string branch = "w" + std::to_string(t);
        for (int i = 0; i < kPuts; ++i) {
          auto uid = db.Put("k", Value::Int(i), branch);
          ASSERT_TRUE(uid.ok());
          last[t] = *uid;
        }
        ASSERT_TRUE(db.Branch("shared", "from-" + branch).ok());
        ASSERT_TRUE(
            db.RenameBranch("shared", "from-" + branch, "to-" + branch).ok());
      });
    }
    threads.emplace_back([&db, &done] {
      while (!done.load()) {
        (void)db.Head("k", "w0");
        (void)db.ListBranches("shared");
      }
    });
    for (int t = 0; t < kWriters; ++t) threads[t].join();
    done = true;
    threads.back().join();
  }
  auto db = ForkBase::Open(dir_);
  ASSERT_TRUE(db.ok());
  for (int t = 0; t < kWriters; ++t) {
    EXPECT_EQ(*(*db)->Head("k", "w" + std::to_string(t)), last[t]);
    EXPECT_TRUE(
        (*db)->branches().Head("shared", "to-w" + std::to_string(t)).ok());
  }
  EXPECT_EQ((*db)->ListBranches("shared")->size(), kWriters + 1u);
}

TEST_F(HeadLogTest, HostileNamesSurviveReopen) {
  // Tabs, newlines and NUL bytes are ordinary bytes in keys and branches.
  const std::string key = std::string("ta\tb\nnu\0l", 9);
  const std::string branch = std::string("\n\t\0", 3);
  const std::string other = "line\nbreak";
  Hash256 head;
  {
    auto db = ForkBase::Open(dir_);
    ASSERT_TRUE(db.ok());
    head = *(*db)->Put(key, Value::String("v"), branch);
    ASSERT_TRUE((*db)->Put(other, Value::String("w")).ok());
    ASSERT_TRUE((*db)->Branch(key, "copy\t1", branch).ok());
    ASSERT_TRUE((*db)->RenameBranch(key, "copy\t1", "copy\n2").ok());
  }
  auto db = ForkBase::Open(dir_);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->branches().Head(key, branch).ok());
  EXPECT_EQ(*(*db)->Head(key, branch), head);
  EXPECT_EQ(*(*db)->Head(key, "copy\n2"), head);
  EXPECT_EQ((*db)->Get(other)->ToString(), "w");
  EXPECT_EQ((*db)->ListKeys(), (std::vector<std::string>{other, key}));
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

TEST(ForkBaseTest, RacingBranchFromVersionCreatesTheBranchOnce) {
  // Every store read takes 2 ms, so both racers load their version after
  // both checked that the name is free: only an atomic create-if-absent
  // keeps the later one from overwriting the first.
  ForkBase db(std::make_shared<RemoteChunkStore>(
      NewStore(), RemoteChunkStore::Options{.batch_latency_us = 2000}));
  std::vector<Hash256> versions;
  for (int i = 0; i < 2; ++i) {
    auto v = db.Put("k", Value::Int(i));
    ASSERT_TRUE(v.ok());
    versions.push_back(*v);
  }
  for (int round = 0; round < 20; ++round) {
    const std::string name = "b" + std::to_string(round);
    Status results[2];
    std::thread racers[2];
    for (int t = 0; t < 2; ++t) {
      racers[t] = std::thread([&, t] {
        results[t] = db.BranchFromVersion("k", name, versions[t]);
      });
    }
    for (auto& racer : racers) racer.join();
    // Exactly one creator wins; the loser fails instead of overwriting.
    ASSERT_NE(results[0].ok(), results[1].ok()) << name;
    const int winner = results[0].ok() ? 0 : 1;
    EXPECT_EQ(results[1 - winner].code(), StatusCode::kAlreadyExists);
    EXPECT_EQ(*db.Head("k", name), versions[winner]);
  }
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
    // A table's value root is its header chunk, read once: the read that
    // re-hashes it also yields the schema and the rows root.
    Hash256 tree_root = value->root();
    size_t header_loads = 0;
    if (key == "table") {
      tree_root = db.GetTable(key)->rows().root();
      header_loads = 1;
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

TEST(ForkBaseVerifyTest, TableVerifyReadsItsHeaderOnce) {
  auto store = NewStore();
  ForkBase db(store);
  CsvGenOptions opts;
  opts.num_rows = 2000;
  auto uid = db.PutTableFromCsv("ds", GenerateCsv(opts));
  ASSERT_TRUE(uid.ok());
  auto table = db.GetTable("ds");
  ASSERT_TRUE(table.ok());
  std::vector<Hash256> rows;
  ASSERT_TRUE(table->rows().tree().ReachableChunks(&rows).ok());

  // The FNode, the header, and each row-tree chunk: one read apiece.
  uint64_t before = store->stats().get_calls;
  ASSERT_TRUE(db.Verify(*uid).ok());
  EXPECT_EQ(store->stats().get_calls - before, 1 + 1 + rows.size());

  before = store->stats().get_calls;
  ASSERT_TRUE(FTable::Verify(store.get(), table->id()).ok());
  EXPECT_EQ(store->stats().get_calls - before, 1 + rows.size());

  // A flipped schema byte still parses, so only the re-hash catches it.
  ASSERT_TRUE(store->TamperForTesting(table->id(), 3, 0x01));
  Status verify = db.Verify(*uid);
  EXPECT_TRUE(verify.IsCorruption()) << verify.ToString();
  EXPECT_NE(verify.ToString().find("table header tampered"), std::string::npos)
      << verify.ToString();
}

// ------------------------------------------------------------------ Stat --

TEST(ForkBaseTest, StatCountsCatalogue) {
  const std::string dir = ::testing::TempDir() + "/fb_stat_catalogue";
  std::filesystem::remove_all(dir);
  {
    auto opened = ForkBase::Open(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ForkBase& db = **opened;
    ASSERT_TRUE(db.Put("a", Value::Int(1)).ok());
    ASSERT_TRUE(db.Put("a", Value::Int(2)).ok());
    ASSERT_TRUE(db.Put("b", Value::Int(3)).ok());
    ASSERT_TRUE(db.Branch("a", "dev").ok());
    ForkBaseStats stats = db.Stat();
    EXPECT_EQ(stats.keys, 2u);
    EXPECT_EQ(stats.branches, 3u);
    EXPECT_EQ(stats.commits, 3u);
    EXPECT_GT(stats.chunks.chunk_count, 0u);

    ASSERT_TRUE(db.RenameBranch("a", "dev", "feature").ok());
    EXPECT_EQ(db.Stat().branches, 3u);
    ASSERT_TRUE(db.Branch("b", "tmp").ok());
    ASSERT_TRUE(db.DeleteBranch("b", "tmp").ok());
    stats = db.Stat();
    EXPECT_EQ(stats.keys, 2u);
    EXPECT_EQ(stats.branches, 3u);
    // Deleting a key's last branch drops the key.
    ASSERT_TRUE(db.DeleteBranch("b", "master").ok());
    stats = db.Stat();
    EXPECT_EQ(stats.keys, 1u);
    EXPECT_EQ(stats.branches, 2u);
  }
  auto reopened = ForkBase::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ForkBaseStats replayed = (*reopened)->Stat();
  EXPECT_EQ(replayed.keys, 1u);
  EXPECT_EQ(replayed.branches, 2u);
  reopened->reset();
  std::filesystem::remove_all(dir);
}

TEST(ForkBaseTest, SecondOpenOfALockedDirectoryFailsUntilTheFirstCloses) {
  const std::string dir = ::testing::TempDir() + "/fb_dir_lock";
  const std::string cold = dir + "_cold";
  const std::string other = dir + "_other";
  for (const auto& d : {dir, cold, other}) std::filesystem::remove_all(d);
  ForkBase::Config config;
  config.tier.cold_dir = cold;
  config.tier.write_back = true;
  auto listing = [](const std::string& d) {
    std::map<std::string, std::pair<uint64_t, std::filesystem::file_time_type>>
        files;
    for (const auto& entry : std::filesystem::directory_iterator(d)) {
      files[entry.path().filename().string()] = {
          entry.file_size(), std::filesystem::last_write_time(entry.path())};
    }
    return files;
  };
  {
    auto first = ForkBase::Open(dir, config);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE((*first)->Put("k", Value::Int(7)).ok());
    const auto hot_files = listing(dir);
    const auto cold_files = listing(cold);

    auto second = ForkBase::Open(dir, config);
    ASSERT_FALSE(second.ok());
    EXPECT_NE(second.status().message().find(dir), std::string::npos)
        << second.status().ToString();
    // The cold directory is locked too, whichever hot directory asks.
    auto third = ForkBase::Open(other, config);
    ASSERT_FALSE(third.ok());
    EXPECT_NE(third.status().message().find(cold), std::string::npos)
        << third.status().ToString();
    EXPECT_EQ(listing(dir), hot_files);
    EXPECT_EQ(listing(cold), cold_files);
  }
  auto reopened = ForkBase::Open(dir, config);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto value = (*reopened)->Get("k");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->int_value(), 7);
  reopened->reset();
  for (const auto& d : {dir, cold, other}) std::filesystem::remove_all(d);
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
