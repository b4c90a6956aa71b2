// Fault-injection harness: randomized fault schedules (transient Get/Put
// failures, timeouts/latency spikes, short reads) driven through the tiered
// store stack and the full ForkBase facade. The invariant under test is the
// failure contract, not any particular success path: every operation either
// fails cleanly with a Status or succeeds with bit-exact data — no silent
// corruption, no error remembered as "absent", no acknowledged write lost.
//
// All schedules are seeded, so a failure reproduces from the test name
// alone. The suite runs in the ASan and TSan CI jobs; the concurrent
// scenario exists specifically for TSan.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <thread>

#include "chunk/caching_chunk_store.h"
#include "chunk/mem_chunk_store.h"
#include "chunk/tiered_chunk_store.h"
#include "store/forkbase.h"
#include "testing/remote_chunk_store.h"
#include "util/random.h"

namespace forkbase {
namespace {

constexpr double kFaultP = 0.25;

std::vector<FaultSchedule::Kind> AllReadKinds() {
  return {FaultSchedule::Kind::kTransient, FaultSchedule::Kind::kTimeout,
          FaultSchedule::Kind::kShortRead};
}
std::vector<FaultSchedule::Kind> AllWriteKinds() {
  return {FaultSchedule::Kind::kTransient, FaultSchedule::Kind::kTimeout};
}

/// Tiered stack with a fault-injected remote cold tier. Timeouts are kept
/// short (the sim sleeps them out for real) and latency at zero so the
/// randomized runs stay fast.
struct FaultedStack {
  explicit FaultedStack(TierPolicy policy, uint64_t seed,
                        uint64_t hot_budget = 0) {
    hot = std::make_shared<MemChunkStore>();
    cold_backend = std::make_shared<MemChunkStore>();
    faults = std::make_shared<FaultSchedule>();
    // Reads reach the cold tier only as batches (a scalar Get is a one-id
    // batch), so kGetBatch is the one read class armed.
    faults->SetProbability(FaultSchedule::Op::kGetBatch, kFaultP,
                           AllReadKinds(), seed + 1);
    faults->SetProbability(FaultSchedule::Op::kPut, kFaultP, AllWriteKinds(),
                           seed + 2);
    faults->SetProbability(FaultSchedule::Op::kPutBatch, kFaultP,
                           AllWriteKinds(), seed + 3);
    RemoteChunkStore::Options remote_options;
    remote_options.timeout_us = 100;
    remote_options.connections = 2;
    remote_options.faults = faults;
    cold = std::make_shared<RemoteChunkStore>(cold_backend, remote_options);
    TieredChunkStore::Options options;
    options.policy = policy;
    options.demote_batch = 8;
    options.write_back_watermark = 16;
    options.hot_bytes_budget = hot_budget;
    options.evict_batch = 8;
    tiered = std::make_shared<TieredChunkStore>(hot, cold, options);
  }

  std::shared_ptr<MemChunkStore> hot;
  std::shared_ptr<MemChunkStore> cold_backend;
  std::shared_ptr<FaultSchedule> faults;
  std::shared_ptr<RemoteChunkStore> cold;
  std::shared_ptr<TieredChunkStore> tiered;
};

Chunk RandomChunk(Rng& rng) {
  return Chunk::Make(ChunkType::kCell, rng.NextBytes(32 + rng.Uniform(96)));
}

/// Drives a randomized put/get/flush workload against `stack`, recording
/// every chunk whose write was acknowledged. Returns the shadow model.
std::map<std::string, std::pair<Hash256, std::string>> RunWorkload(
    FaultedStack& stack, uint64_t seed, int ops) {
  std::map<std::string, std::pair<Hash256, std::string>> shadow;
  std::vector<Hash256> known;
  Rng rng(seed);
  for (int op = 0; op < ops; ++op) {
    const uint64_t action = rng.Uniform(10);
    if (action < 4) {
      // Batched put of fresh chunks. Only acknowledged batches enter the
      // shadow — a failed batch may be partially resident, which is
      // harmless under content addressing (retrying is idempotent).
      std::vector<Chunk> chunks;
      const size_t n = 1 + rng.Uniform(8);
      for (size_t i = 0; i < n; ++i) chunks.push_back(RandomChunk(rng));
      if (stack.tiered->PutMany(chunks).ok()) {
        for (const auto& chunk : chunks) {
          shadow[chunk.hash().ToBase32()] = {chunk.hash(),
                                             chunk.bytes().ToString()};
          known.push_back(chunk.hash());
        }
      }
    } else if (action < 8 && !known.empty()) {
      // Batched read of known ids plus an absent one. Slots either carry
      // the exact bytes, kNotFound (absent id), or a clean error.
      std::vector<Hash256> ids;
      const size_t n = 1 + rng.Uniform(12);
      for (size_t i = 0; i < n; ++i) {
        ids.push_back(known[rng.Uniform(known.size())]);
      }
      ids.push_back(Sha256(Slice("absent-" + std::to_string(op))));
      auto slots = stack.tiered->GetMany(ids);
      EXPECT_EQ(slots.size(), ids.size());
      for (size_t i = 0; i < slots.size(); ++i) {
        if (!slots[i].ok()) {
          // A clean failure is fine — but an ACKNOWLEDGED chunk must never
          // be reported absent: unreachable may not collapse into
          // kNotFound.
          EXPECT_FALSE(slots[i].status().IsNotFound() &&
                       shadow.count(ids[i].ToBase32()) > 0)
              << "acknowledged chunk reported absent in slot " << i;
          continue;
        }
        EXPECT_EQ(slots[i]->hash(), ids[i])
            << "silent corruption in slot " << i;
        auto it = shadow.find(ids[i].ToBase32());
        EXPECT_NE(it, shadow.end());
        if (it != shadow.end()) {
          EXPECT_EQ(slots[i]->bytes().ToString(), it->second.second);
        }
      }
    } else if (action == 8 && !known.empty()) {
      auto got = stack.tiered->Get(known[rng.Uniform(known.size())]);
      if (got.ok()) {
        EXPECT_EQ(got->bytes().ToString(),
                  shadow[got->hash().ToBase32()].second);
      } else {
        EXPECT_FALSE(got.status().IsNotFound())
            << "acknowledged chunk reported absent";
      }
    } else {
      // Demotion under faults: may fail cleanly; ids stay dirty.
      (void)stack.tiered->FlushColdTier();
    }
  }
  return shadow;
}

void VerifyAllReadable(
    FaultedStack& stack,
    const std::map<std::string, std::pair<Hash256, std::string>>& shadow) {
  stack.faults->Clear();
  // With faults off the flush must land every dirty chunk.
  ASSERT_TRUE(stack.tiered->FlushColdTier().ok());
  for (const auto& [name, entry] : shadow) {
    auto got = stack.tiered->Get(entry.first);
    ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
    EXPECT_EQ(got->bytes().ToString(), entry.second) << name;
  }
}

TEST(FaultInjectionTest, RandomizedFaultsWriteThrough) {
  FaultedStack stack(TierPolicy::kWriteThrough, 1001);
  auto shadow = RunWorkload(stack, 2001, 400);
  EXPECT_GT(stack.faults->injected_count(), 0u) << "schedule never fired";
  EXPECT_GT(shadow.size(), 0u);
  VerifyAllReadable(stack, shadow);
}

TEST(FaultInjectionTest, RandomizedFaultsWriteBack) {
  FaultedStack stack(TierPolicy::kWriteBack, 1003);
  auto shadow = RunWorkload(stack, 2003, 400);
  EXPECT_GT(stack.faults->injected_count(), 0u) << "schedule never fired";
  EXPECT_GT(shadow.size(), 0u);
  VerifyAllReadable(stack, shadow);
  // Write-back promise: after a clean flush the cold tier holds every
  // acknowledged chunk, whatever the faults did to individual drains.
  for (const auto& [name, entry] : shadow) {
    EXPECT_TRUE(stack.cold_backend->Contains(entry.first)) << name;
  }
}

TEST(FaultInjectionTest, WriteThroughPutRetriesConverge) {
  // A caller that retries a failed batch must eventually land it, and the
  // partial residue of failed attempts must never corrupt anything.
  FaultedStack stack(TierPolicy::kWriteThrough, 1005);
  Rng rng(2005);
  for (int round = 0; round < 20; ++round) {
    std::vector<Chunk> chunks;
    for (int i = 0; i < 6; ++i) chunks.push_back(RandomChunk(rng));
    int attempts = 0;
    while (!stack.tiered->PutMany(chunks).ok()) {
      ASSERT_LT(++attempts, 200) << "retry did not converge";
    }
    for (const auto& chunk : chunks) {
      EXPECT_TRUE(stack.hot->Contains(chunk.hash()));
      EXPECT_TRUE(stack.cold_backend->Contains(chunk.hash()));
    }
  }
}

TEST(FaultInjectionTest, ConcurrentWorkloadUnderFaults) {
  // Four writers/readers on one faulted write-back stack with background
  // demotion racing them — the TSan target for the whole tier machinery.
  FaultedStack stack(TierPolicy::kWriteBack, 1007);
  std::mutex mu;
  std::map<std::string, std::pair<Hash256, std::string>> shadow;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&stack, &mu, &shadow, t] {
      Rng rng(3000 + static_cast<uint64_t>(t));
      std::vector<Hash256> mine;
      for (int op = 0; op < 120; ++op) {
        if (rng.Uniform(2) == 0 || mine.empty()) {
          std::vector<Chunk> chunks;
          const size_t n = 1 + rng.Uniform(4);
          for (size_t i = 0; i < n; ++i) chunks.push_back(RandomChunk(rng));
          if (stack.tiered->PutMany(chunks).ok()) {
            std::lock_guard<std::mutex> lock(mu);
            for (const auto& chunk : chunks) {
              shadow[chunk.hash().ToBase32()] = {chunk.hash(),
                                                 chunk.bytes().ToString()};
              mine.push_back(chunk.hash());
            }
          }
        } else {
          std::vector<Hash256> ids;
          for (size_t i = 0; i < 4 && i < mine.size(); ++i) {
            ids.push_back(mine[rng.Uniform(mine.size())]);
          }
          auto slots = stack.tiered->GetMany(ids);
          for (size_t i = 0; i < slots.size(); ++i) {
            if (slots[i].ok()) {
              EXPECT_EQ(slots[i]->hash(), ids[i]);
            }
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  VerifyAllReadable(stack, shadow);
}

TEST(FaultInjectionTest, ConcurrentEvictionRacesDemotionUnderFaults) {
  // The bounded-tier TSan target: a write-back stack whose hot budget is a
  // fraction of the working set, so the evictor (running on putting and
  // draining threads alike) races background demotion, faulted cold writes
  // re-marking chunks dirty, and readers healing evicted slots from the
  // cold tier — all at once. The invariant is unchanged: acknowledged
  // chunks are never reported absent and always read back bit-exact.
  FaultedStack stack(TierPolicy::kWriteBack, 1011, /*hot_budget=*/4096);
  std::mutex mu;
  std::map<std::string, std::pair<Hash256, std::string>> shadow;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&stack, &mu, &shadow, t] {
      Rng rng(4000 + static_cast<uint64_t>(t));
      std::vector<Hash256> mine;
      for (int op = 0; op < 150; ++op) {
        const uint64_t action = rng.Uniform(10);
        if (action < 5 || mine.empty()) {
          std::vector<Chunk> chunks;
          const size_t n = 1 + rng.Uniform(4);
          for (size_t i = 0; i < n; ++i) chunks.push_back(RandomChunk(rng));
          if (stack.tiered->PutMany(chunks).ok()) {
            std::lock_guard<std::mutex> lock(mu);
            for (const auto& chunk : chunks) {
              shadow[chunk.hash().ToBase32()] = {chunk.hash(),
                                                 chunk.bytes().ToString()};
              mine.push_back(chunk.hash());
            }
          }
        } else if (action < 9) {
          std::vector<Hash256> ids;
          for (size_t i = 0; i < 6 && i < mine.size(); ++i) {
            ids.push_back(mine[rng.Uniform(mine.size())]);
          }
          auto slots = stack.tiered->GetMany(ids);
          for (size_t i = 0; i < slots.size(); ++i) {
            if (slots[i].ok()) {
              EXPECT_EQ(slots[i]->hash(), ids[i]);
            } else {
              EXPECT_FALSE(slots[i].status().IsNotFound())
                  << "evicted chunk lost instead of healed from cold";
            }
          }
        } else {
          // Drains race the evictor directly (both run on this thread's
          // FlushColdTier and on the background pool).
          (void)stack.tiered->FlushColdTier();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // A read-only pass with write faults off: whatever it injects is a read
  // fault, so this proves the cold read path is really under fire.
  stack.faults->SetProbability(FaultSchedule::Op::kPut, 0, {});
  stack.faults->SetProbability(FaultSchedule::Op::kPutBatch, 0, {});
  const uint64_t before_reads = stack.faults->injected_count();
  std::vector<Hash256> ids;
  for (const auto& [name, entry] : shadow) ids.push_back(entry.first);
  for (size_t start = 0; start < ids.size(); start += 8) {
    const size_t n = std::min<size_t>(8, ids.size() - start);
    auto slots = stack.tiered->GetMany(
        std::span<const Hash256>(ids).subspan(start, n));
    for (size_t i = 0; i < n; ++i) {
      if (slots[i].ok()) {
        EXPECT_EQ(slots[i]->hash(), ids[start + i]);
      } else {
        EXPECT_FALSE(slots[i].status().IsNotFound())
            << "acknowledged chunk reported absent";
      }
    }
  }
  EXPECT_GT(stack.faults->injected_count(), before_reads)
      << "no read fault fired";
  VerifyAllReadable(stack, shadow);
  auto tier = stack.tiered->tier_stats();
  EXPECT_GT(tier.evictions, 0u) << "budget never bit — test is vacuous";
  // The budget held: the tracker (exact for a Mem hot tier) is back under
  // it once the final flush unpinned everything and the evictor ran.
  stack.tiered->EnforceHotBudget();
  EXPECT_LE(stack.tiered->tier_stats().hot_bytes, 4096u);
}

TEST(FaultInjectionTest, ForkBaseCommitsSurviveColdTierFaults) {
  // Full facade over the faulted stack (cache on top, like ForkBase::Open
  // builds it): commits may fail with a clean Status, but every commit that
  // returned a uid must verify once the weather clears.
  FaultedStack stack(TierPolicy::kWriteThrough, 1009);
  ForkBase db(std::make_shared<CachingChunkStore>(stack.tiered, 1u << 20));
  Rng rng(2009);
  std::vector<Hash256> committed;
  int failures = 0;
  for (int i = 0; i < 120; ++i) {
    const std::string key = "key" + std::to_string(rng.Uniform(5));
    auto uid = db.PutMap(key, {{rng.NextString(8), rng.NextString(16)},
                               {rng.NextString(8), rng.NextString(16)}});
    if (uid.ok()) {
      committed.push_back(*uid);
    } else {
      ++failures;
      EXPECT_NE(uid.status().code(), StatusCode::kOk);
    }
  }
  EXPECT_GT(committed.size(), 0u);
  EXPECT_GT(failures, 0) << "fault schedule never hit a commit";
  stack.faults->Clear();
  for (const auto& uid : committed) {
    EXPECT_TRUE(db.GetVersion(uid).ok()) << uid.ToBase32();
    EXPECT_TRUE(db.Verify(uid).ok()) << uid.ToBase32();
  }
}

TEST(FaultInjectionTest, ScriptedShortReadAndTimeoutSurfaceCleanly) {
  FaultedStack stack(TierPolicy::kWriteThrough, 1011);
  stack.faults->Clear();  // scripted only
  auto chunk = Chunk::Make(ChunkType::kCell, Slice("payload"));
  ASSERT_TRUE(stack.tiered->Put(chunk).ok());
  // Evict the hot copy so reads must take the remote path.
  ASSERT_TRUE(stack.hot->Erase(std::vector<Hash256>{chunk.hash()}).ok());

  // A scalar Get reaches the cold tier as a one-id ranged fetch.
  stack.faults->InjectOnce(FaultSchedule::Op::kGetBatch,
                           {FaultSchedule::Kind::kShortRead});
  auto short_read = stack.tiered->Get(chunk.hash());
  ASSERT_FALSE(short_read.ok());
  EXPECT_EQ(short_read.status().code(), StatusCode::kIOError);
  EXPECT_NE(short_read.status().message().find("short read"),
            std::string::npos);

  stack.faults->InjectOnce(FaultSchedule::Op::kGetBatch,
                           {FaultSchedule::Kind::kTimeout});
  auto timeout = stack.tiered->Get(chunk.hash());
  ASSERT_FALSE(timeout.ok());
  EXPECT_EQ(timeout.status().code(), StatusCode::kIOError);
  EXPECT_NE(timeout.status().message().find("timeout"), std::string::npos);

  // Both were transient conditions: the store is intact.
  auto ok = stack.tiered->Get(chunk.hash());
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->bytes().ToString(), chunk.bytes().ToString());
}

}  // namespace
}  // namespace forkbase
