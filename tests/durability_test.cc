// Durability fuzz: a randomized multi-session workload against a
// file-backed ForkBase — puts, branches, merges, schema edits — with the
// process "restarting" (store reopened through ForkBase::Open, which
// replays the head log) between sessions, and a final full verification
// sweep. A shadow model in memory checks every read.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

#include "chunk/file_chunk_store.h"
#include "chunk/tiered_chunk_store.h"
#include "store/forkbase.h"
#include "testing/remote_chunk_store.h"
#include "util/random.h"

namespace forkbase {
namespace {

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fb_durability";
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<ForkBase> Open() {
    auto db_or = ForkBase::Open(dir_);
    EXPECT_TRUE(db_or.ok()) << db_or.status().ToString();
    return std::move(*db_or);
  }

  std::string dir_;
};

TEST_F(DurabilityTest, RandomWorkloadSurvivesManyReopens) {
  // Shadow model: (key, branch) -> map<string,string> content.
  std::map<std::pair<std::string, std::string>,
           std::map<std::string, std::string>>
      shadow;
  Rng rng(2026);
  const std::vector<std::string> keys = {"alpha", "beta", "gamma"};

  for (int session = 0; session < 6; ++session) {
    auto db = Open();
    for (int op = 0; op < 40; ++op) {
      const std::string& key = keys[rng.Uniform(keys.size())];
      auto branches_of = [&]() {
        std::vector<std::string> out;
        for (const auto& [kb, content] : shadow) {
          (void)content;
          if (kb.first == key) out.push_back(kb.second);
        }
        return out;
      };
      auto existing = branches_of();
      const uint64_t action = rng.Uniform(10);
      if (existing.empty() || action < 2) {
        // Fresh put on master.
        std::map<std::string, std::string> content;
        for (int i = 0; i < 20; ++i) {
          content["k" + std::to_string(rng.Uniform(100))] =
              rng.NextString(12);
        }
        std::vector<std::pair<std::string, std::string>> kvs(content.begin(),
                                                             content.end());
        ASSERT_TRUE(db->PutMap(key, kvs).ok());
        shadow[{key, "master"}] = content;
      } else if (action < 7) {
        // Edit a random existing branch.
        const std::string& branch = existing[rng.Uniform(existing.size())];
        std::string k = "k" + std::to_string(rng.Uniform(100));
        std::string v = rng.NextString(12);
        ASSERT_TRUE(
            db->UpdateMap(key, {KeyedOp{k, v}}, branch).ok());
        shadow[{key, branch}][k] = v;
      } else if (action < 9 && existing.size() < 4) {
        // Fork a new branch.
        const std::string& from = existing[rng.Uniform(existing.size())];
        std::string to = "b" + std::to_string(rng.Uniform(1000));
        if (db->Branch(key, to, from).ok()) {
          shadow[{key, to}] = shadow[{key, from}];
        }
      } else {
        // Read-validate a random branch against the shadow model.
        const std::string& branch = existing[rng.Uniform(existing.size())];
        auto map = db->GetMap(key, branch);
        ASSERT_TRUE(map.ok()) << key << "@" << branch;
        auto entries = map->Entries();
        ASSERT_TRUE(entries.ok());
        const auto& expected = shadow[{key, branch}];
        ASSERT_EQ(entries->size(), expected.size()) << key << "@" << branch;
        for (const auto& [k, v] : *entries) {
          auto it = expected.find(k);
          ASSERT_NE(it, expected.end());
          ASSERT_EQ(it->second, v);
        }
      }
    }
    // db destroyed here — simulated process exit; nothing is saved by hand.
  }

  // Final session: everything must still be present, correct, verifiable.
  auto db = Open();
  size_t verified = 0;
  for (const auto& [kb, expected] : shadow) {
    auto map = db->GetMap(kb.first, kb.second);
    ASSERT_TRUE(map.ok()) << kb.first << "@" << kb.second;
    auto entries = map->Entries();
    ASSERT_TRUE(entries.ok());
    std::map<std::string, std::string> got(entries->begin(), entries->end());
    EXPECT_EQ(got, expected) << kb.first << "@" << kb.second;
    auto head = db->Head(kb.first, kb.second);
    ASSERT_TRUE(head.ok());
    EXPECT_TRUE(db->Verify(*head).ok()) << kb.first << "@" << kb.second;
    ++verified;
  }
  EXPECT_GE(verified, 3u);
  // Histories stayed intact across sessions.
  for (const auto& key : keys) {
    if (!db->branches().Head(key, "master").ok()) continue;
    auto history = db->History(key);
    ASSERT_TRUE(history.ok());
    EXPECT_GE(history->size(), 1u);
  }
}

TEST_F(DurabilityTest, GroupCommitRunsAreCrashDurable) {
  // Racing grouped commits, then a simulated crash that tears the tail of
  // the active segment. Recovery must keep every commit whose Put returned
  // OK: a commit group publishes heads only after its PutMany flushed, so the
  // torn bytes can only be the garbage we appended — never a returned uid.
  std::vector<Hash256> returned;
  {
    auto db_or = ForkBase::Open(dir_);
    ASSERT_TRUE(db_or.ok());
    ForkBase& db = **db_or;
    std::mutex mu;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&db, &mu, &returned, t] {
        for (int i = 0; i < 25; ++i) {
          auto uid = db.Put("crash-key",
                            Value::String(std::to_string(t * 100 + i)),
                            "b" + std::to_string(t));
          ASSERT_TRUE(uid.ok());
          std::lock_guard<std::mutex> lock(mu);
          returned.push_back(*uid);
        }
      });
    }
    for (auto& t : threads) t.join();
    // db drops here WITHOUT any explicit flush beyond what Put guaranteed.
  }
  // Tear the tail: a partial record (valid magic, truncated payload), as a
  // crash mid-append would leave.
  {
    std::ofstream seg(dir_ + "/segment-0.fbc",
                      std::ios::binary | std::ios::app);
    const uint32_t magic = 0x46424331;
    seg.write(reinterpret_cast<const char*>(&magic), 4);
    seg.write("torn", 4);
  }
  auto db = Open();
  for (const auto& uid : returned) {
    EXPECT_TRUE(db->GetVersion(uid).ok()) << uid.ToBase32();
    EXPECT_TRUE(db->Verify(uid).ok()) << uid.ToBase32();
  }
  for (int t = 0; t < 4; ++t) {
    auto history = db->History("crash-key", "b" + std::to_string(t));
    ASSERT_TRUE(history.ok());
    EXPECT_EQ(history->size(), 25u);
  }
}

TEST_F(DurabilityTest, CrashDuringDemotionLeavesEveryChunkReachable) {
  // Write-back tiering, then a "kill" mid write-back: the demotion drain
  // dies after landing only a prefix of its batches on the cold tier (a
  // scripted remote fault models the process dying between round trips,
  // since a real kill can land anywhere a fault can), and the cold tier's
  // active segment additionally takes a torn tail. Recovery must find every
  // acknowledged chunk in at least one tier — the hot tier still holds what
  // never demoted (torn-tail recovery already covers hot-tier appends) —
  // and, with the persistent dirty manifest beside the hot segments, the
  // reopened store must know exactly which chunks still owe a demotion and
  // finish the job.
  const std::string cold_dir = ::testing::TempDir() + "/fb_durability_cold";
  std::filesystem::remove_all(cold_dir);
  auto faults = std::make_shared<FaultSchedule>();

  auto open_tiered = [&]() -> std::shared_ptr<TieredChunkStore> {
    auto hot_or = FileChunkStore::Open(dir_);
    EXPECT_TRUE(hot_or.ok());
    auto cold_or = FileChunkStore::Open(cold_dir);
    EXPECT_TRUE(cold_or.ok());
    RemoteChunkStore::Options remote_options;
    remote_options.faults = faults;
    auto cold = std::make_shared<RemoteChunkStore>(
        std::shared_ptr<ChunkStore>(std::move(*cold_or)), remote_options);
    auto manifest_or = DirtyManifest::Open(dir_);
    EXPECT_TRUE(manifest_or.ok());
    TieredChunkStore::Options tier_options;
    tier_options.policy = TierPolicy::kWriteBack;
    tier_options.background_demotion = false;  // the test is the drain
    tier_options.demote_batch = 16;
    tier_options.dirty_manifest = std::move(*manifest_or);
    return std::make_shared<TieredChunkStore>(
        std::shared_ptr<ChunkStore>(std::move(*hot_or)), std::move(cold),
        tier_options);
  };

  std::vector<Hash256> returned;
  {
    auto tiered = open_tiered();
    ForkBase db(tiered);
    ASSERT_TRUE(db.branches().Attach(dir_, /*fsync=*/false).ok());
    for (int i = 0; i < 60; ++i) {
      auto uid = db.Put("demote-key", Value::String("v" + std::to_string(i)),
                        "b" + std::to_string(i % 3));
      ASSERT_TRUE(uid.ok());
      returned.push_back(*uid);
    }
    // The drain dies after its second cold round trip.
    faults->InjectOnce(FaultSchedule::Op::kPutBatch,
                       {FaultSchedule::Kind::kTransient}, /*skip=*/2);
    Status flush = tiered->FlushColdTier();
    ASSERT_FALSE(flush.ok()) << "fault schedule never fired";
    auto stats = tiered->tier_stats();
    EXPECT_GT(stats.demotions, 0u) << "no batch landed before the crash";
    EXPECT_GT(stats.dirty_pending, 0u) << "nothing left undemoted";
    // Simulated kill: the stack is torn down with faults still armed, so
    // the destructor's best-effort flush dies on the same schedule instead
    // of quietly completing the demotion.
    faults->InjectOnce(FaultSchedule::Op::kPutBatch,
                       {FaultSchedule::Kind::kTransient});
  }
  // The crash also tore the tail of the cold tier's active segment.
  {
    std::ofstream seg(cold_dir + "/segment-0.fbc",
                      std::ios::binary | std::ios::app);
    const uint32_t magic = 0x46424331;
    seg.write(reinterpret_cast<const char*>(&magic), 4);
    seg.write("torn", 4);
  }

  faults->Clear();
  auto tiered = open_tiered();
  // Manifest replay: the reopened store knows exactly which chunks the
  // crashed drain never landed — no guessing from tier contents.
  const std::vector<Hash256> owed = tiered->manifest()->DirtyIds();
  ASSERT_FALSE(owed.empty()) << "manifest lost the crashed drain's debt";
  EXPECT_EQ(tiered->tier_stats().dirty_pending, owed.size());
  for (const auto& id : owed) {
    EXPECT_FALSE(tiered->cold()->Contains(id)) << "already demoted: not owed";
  }

  ForkBase db(tiered);
  ASSERT_TRUE(db.branches().Attach(dir_, /*fsync=*/false).ok());
  for (const auto& uid : returned) {
    EXPECT_TRUE(db.GetVersion(uid).ok()) << uid.ToBase32();
    EXPECT_TRUE(db.Verify(uid).ok()) << uid.ToBase32();
  }
  for (int b = 0; b < 3; ++b) {
    auto history = db.History("demote-key", "b" + std::to_string(b));
    ASSERT_TRUE(history.ok());
    EXPECT_EQ(history->size(), 20u);
  }

  // Resumed demotion finishes the crashed drain's work: every owed chunk
  // reaches the cold tier, verified by cold-tier round trips (the cold
  // store serves each one directly, bypassing the hot tier), and the
  // manifest's debt drops to zero.
  const uint64_t demoted_before = tiered->tier_stats().demotions;
  ASSERT_TRUE(tiered->FlushColdTier().ok());
  EXPECT_EQ(tiered->tier_stats().demotions - demoted_before, owed.size());
  size_t cold_round_trips = 0;
  for (const auto& id : owed) {
    auto got = tiered->cold()->Get(id);
    ASSERT_TRUE(got.ok()) << id.ToBase32();
    EXPECT_EQ(got->hash(), id);
    ++cold_round_trips;
  }
  EXPECT_EQ(cold_round_trips, owed.size());
  EXPECT_EQ(tiered->manifest()->dirty_count(), 0u);
  EXPECT_EQ(tiered->tier_stats().dirty_pending, 0u);
  std::filesystem::remove_all(cold_dir);
}

TEST_F(DurabilityTest, ColdCacheReadsAfterReopen) {
  Hash256 head;
  {
    auto db = Open();
    std::vector<std::pair<std::string, std::string>> kvs;
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
      kvs.emplace_back(rng.NextString(12), rng.NextString(24));
    }
    ASSERT_TRUE(db->PutMap("big", kvs).ok());
    head = *db->Head("big");
  }
  auto db = Open();
  // Point lookups straight off disk.
  auto map = db->GetMap("big");
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(*map->Size(), 10000u);
  EXPECT_TRUE(db->Verify(head).ok());
}

}  // namespace
}  // namespace forkbase
