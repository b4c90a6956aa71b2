// TieredChunkStore behavior: policy semantics (write-through vs write-back),
// batch-grouped promotion and demotion, cross-tier batch splitting (sync and
// async), error-vs-absent discipline on the cold tier, and the full ForkBase
// workload suite (put, scan, diff, GC, group commit) running end-to-end on a
// tiered persistent stack — including recovery of a lost hot tier from the
// cold backend.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "chunk/file_chunk_store.h"
#include "chunk/mem_chunk_store.h"
#include "chunk/tiered_chunk_store.h"
#include "store/forkbase.h"
#include "store/gc.h"
#include "testing/remote_chunk_store.h"
#include "util/random.h"

namespace forkbase {
namespace {

std::vector<Chunk> MakeChunks(size_t n, uint64_t seed, size_t bytes = 64) {
  Rng rng(seed);
  std::vector<Chunk> chunks;
  chunks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    chunks.push_back(Chunk::Make(ChunkType::kCell, rng.NextBytes(bytes)));
  }
  return chunks;
}

/// In-memory tiered harness: hot Mem, cold Remote-over-Mem with a shared
/// fault schedule. The raw tier pointers stay visible for assertions.
struct TieredHarness {
  explicit TieredHarness(TieredChunkStore::Options options = {},
                         RemoteChunkStore::Options remote_options = {}) {
    hot = std::make_shared<MemChunkStore>();
    cold_backend = std::make_shared<MemChunkStore>();
    faults = std::make_shared<FaultSchedule>();
    remote_options.faults = faults;
    if (remote_options.connections == 0) remote_options.connections = 1;
    cold = std::make_shared<RemoteChunkStore>(cold_backend, remote_options);
    tiered = std::make_shared<TieredChunkStore>(hot, cold, options);
  }

  std::shared_ptr<MemChunkStore> hot;
  std::shared_ptr<MemChunkStore> cold_backend;
  std::shared_ptr<FaultSchedule> faults;
  std::shared_ptr<RemoteChunkStore> cold;
  std::shared_ptr<TieredChunkStore> tiered;
};

TEST(TieredStoreTest, WriteThroughLandsInBothTiers) {
  TieredHarness h;
  auto chunks = MakeChunks(8, 1);
  ASSERT_TRUE(h.tiered->PutMany(chunks).ok());
  for (const auto& chunk : chunks) {
    EXPECT_TRUE(h.hot->Contains(chunk.hash()));
    EXPECT_TRUE(h.cold_backend->Contains(chunk.hash()));
  }
  EXPECT_EQ(h.tiered->tier_stats().dirty_pending, 0u);
}

TEST(TieredStoreTest, WriteBackDefersColdUntilFlush) {
  TieredChunkStore::Options options;
  options.policy = TierPolicy::kWriteBack;
  options.background_demotion = false;
  TieredHarness h(options);
  auto chunks = MakeChunks(10, 2);
  ASSERT_TRUE(h.tiered->PutMany(chunks).ok());
  for (const auto& chunk : chunks) {
    EXPECT_TRUE(h.hot->Contains(chunk.hash()));
    EXPECT_FALSE(h.cold_backend->Contains(chunk.hash()));
  }
  EXPECT_EQ(h.tiered->tier_stats().dirty_pending, chunks.size());

  ASSERT_TRUE(h.tiered->FlushColdTier().ok());
  for (const auto& chunk : chunks) {
    EXPECT_TRUE(h.cold_backend->Contains(chunk.hash()));
  }
  auto stats = h.tiered->tier_stats();
  EXPECT_EQ(stats.dirty_pending, 0u);
  EXPECT_EQ(stats.demotions, chunks.size());
}

TEST(TieredStoreTest, DemotionGroupsBatches) {
  // 10 dirty chunks with demote_batch = 4 → 3 cold PutMany round trips, not
  // 10 scalar puts. The remote's batch-latency accounting proves grouping:
  // each round trip draws one kPutBatch fault decision.
  TieredChunkStore::Options options;
  options.policy = TierPolicy::kWriteBack;
  options.background_demotion = false;
  options.demote_batch = 4;
  TieredHarness h(options);
  auto chunks = MakeChunks(10, 3);
  ASSERT_TRUE(h.tiered->PutMany(chunks).ok());
  // Script a fault for the 4th batch put — it must never fire in a 3-batch
  // drain, proving the drain really grouped 10 chunks into 3 round trips.
  h.faults->InjectOnce(FaultSchedule::Op::kPutBatch,
                       {FaultSchedule::Kind::kTransient}, /*skip=*/3);
  ASSERT_TRUE(h.tiered->FlushColdTier().ok());
  EXPECT_EQ(h.faults->injected_count(), 0u);
  EXPECT_EQ(h.tiered->tier_stats().demotions, chunks.size());
}

TEST(TieredStoreTest, WatermarkTriggersBackgroundDemotion) {
  TieredChunkStore::Options options;
  options.policy = TierPolicy::kWriteBack;
  options.background_demotion = true;
  options.write_back_watermark = 8;
  TieredHarness h(options);
  auto chunks = MakeChunks(24, 4);
  for (const auto& chunk : chunks) {
    ASSERT_TRUE(h.tiered->Put(chunk).ok());
  }
  // FlushColdTier waits out the background drain and demotes the remainder.
  ASSERT_TRUE(h.tiered->FlushColdTier().ok());
  auto stats = h.tiered->tier_stats();
  EXPECT_EQ(stats.demotions, chunks.size());
  EXPECT_EQ(stats.dirty_pending, 0u);
  for (const auto& chunk : chunks) {
    EXPECT_TRUE(h.cold_backend->Contains(chunk.hash()));
  }
}

TEST(TieredStoreTest, DestructorFlushesWriteBack) {
  auto hot = std::make_shared<MemChunkStore>();
  auto cold = std::make_shared<MemChunkStore>();
  auto chunks = MakeChunks(5, 5);
  {
    TieredChunkStore::Options options;
    options.policy = TierPolicy::kWriteBack;
    options.background_demotion = false;
    TieredChunkStore tiered(hot, cold, options);
    ASSERT_TRUE(tiered.PutMany(chunks).ok());
    EXPECT_FALSE(cold->Contains(chunks[0].hash()));
  }
  for (const auto& chunk : chunks) {
    EXPECT_TRUE(cold->Contains(chunk.hash()));
  }
}

TEST(TieredStoreTest, ColdHitsAreServedAndPromoted) {
  TieredHarness h;
  auto chunks = MakeChunks(6, 6);
  // Seed the cold backend directly — the "reopened with a fresh hot tier"
  // state.
  ASSERT_TRUE(h.cold_backend->PutMany(chunks).ok());
  for (const auto& chunk : chunks) {
    ASSERT_FALSE(h.hot->Contains(chunk.hash()));
    auto got = h.tiered->Get(chunk.hash());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->bytes().ToString(), chunk.bytes().ToString());
    // Promoted: the next read is local.
    EXPECT_TRUE(h.hot->Contains(chunk.hash()));
  }
  auto stats = h.tiered->tier_stats();
  EXPECT_EQ(stats.cold_hits, chunks.size());
  EXPECT_EQ(stats.promotions, chunks.size());
  // Re-read everything: all hot now.
  for (const auto& chunk : chunks) {
    ASSERT_TRUE(h.tiered->Get(chunk.hash()).ok());
  }
  EXPECT_EQ(h.tiered->tier_stats().hot_hits, chunks.size());
}

TEST(TieredStoreTest, PromotionCanBeDisabled) {
  TieredChunkStore::Options options;
  options.promote_on_read = false;
  TieredHarness h(options);
  auto chunks = MakeChunks(3, 7);
  ASSERT_TRUE(h.cold_backend->PutMany(chunks).ok());
  for (const auto& chunk : chunks) {
    ASSERT_TRUE(h.tiered->Get(chunk.hash()).ok());
    EXPECT_FALSE(h.hot->Contains(chunk.hash()));
  }
  EXPECT_EQ(h.tiered->tier_stats().promotions, 0u);
}

TEST(TieredStoreTest, GetManySplitsAcrossTiersAndPromotesInOneBatch) {
  TieredHarness h;
  auto hot_chunks = MakeChunks(5, 8);
  auto cold_chunks = MakeChunks(5, 9);
  ASSERT_TRUE(h.hot->PutMany(hot_chunks).ok());
  ASSERT_TRUE(h.cold_backend->PutMany(cold_chunks).ok());

  std::vector<Hash256> ids;
  for (size_t i = 0; i < 5; ++i) {
    ids.push_back(hot_chunks[i].hash());
    ids.push_back(cold_chunks[i].hash());
  }
  const Hash256 absent = Sha256(Slice("absent-tiered"));
  ids.push_back(absent);

  auto slots = h.tiered->GetMany(ids);
  ASSERT_EQ(slots.size(), ids.size());
  for (size_t i = 0; i + 1 < ids.size(); ++i) {
    ASSERT_TRUE(slots[i].ok()) << i;
    EXPECT_EQ(slots[i]->hash(), ids[i]);
  }
  EXPECT_TRUE(slots.back().status().IsNotFound());

  auto stats = h.tiered->tier_stats();
  EXPECT_EQ(stats.hot_hits, 5u);
  EXPECT_EQ(stats.cold_hits, 5u);
  EXPECT_EQ(stats.promotions, 5u);
  for (const auto& chunk : cold_chunks) {
    EXPECT_TRUE(h.hot->Contains(chunk.hash()));
  }
}

TEST(TieredStoreTest, AsyncGetManyMatchesSyncAcrossTiers) {
  RemoteChunkStore::Options remote_options;
  remote_options.batch_latency_us = 200;  // real overlap window
  TieredHarness h({}, remote_options);
  auto hot_chunks = MakeChunks(8, 10);
  auto cold_chunks = MakeChunks(8, 11);
  ASSERT_TRUE(h.hot->PutMany(hot_chunks).ok());
  ASSERT_TRUE(h.cold_backend->PutMany(cold_chunks).ok());
  ASSERT_TRUE(h.tiered->SupportsAsyncGet());

  std::vector<Hash256> ids;
  for (size_t i = 0; i < 8; ++i) {
    ids.push_back(cold_chunks[i].hash());
    ids.push_back(hot_chunks[i].hash());
  }
  ids.push_back(Sha256(Slice("absent-async")));

  auto handle = h.tiered->GetManyAsync(ids);
  ASSERT_TRUE(handle.valid());
  auto async_slots = handle.Take();
  // Promotion already ran at Take; a sync read now is fully hot.
  auto sync_slots = h.tiered->GetMany(ids);
  ASSERT_EQ(async_slots.size(), sync_slots.size());
  for (size_t i = 0; i < sync_slots.size(); ++i) {
    EXPECT_EQ(async_slots[i].ok(), sync_slots[i].ok()) << i;
    if (async_slots[i].ok()) {
      EXPECT_EQ(async_slots[i]->bytes().ToString(),
                sync_slots[i]->bytes().ToString());
    }
  }
  for (const auto& chunk : cold_chunks) {
    EXPECT_TRUE(h.hot->Contains(chunk.hash()));
  }
}

TEST(TieredStoreTest, DuplicateColdIdsInOneBatchPromoteOnce) {
  TieredHarness h;
  auto chunk = MakeChunks(1, 22)[0];
  ASSERT_TRUE(h.cold_backend->Put(chunk).ok());
  std::vector<Hash256> ids{chunk.hash(), chunk.hash(), chunk.hash()};
  auto slots = h.tiered->GetMany(ids);
  ASSERT_EQ(slots.size(), 3u);
  for (const auto& slot : slots) ASSERT_TRUE(slot.ok());
  auto stats = h.tiered->tier_stats();
  EXPECT_EQ(stats.cold_hits, 3u);   // every slot was served cold
  EXPECT_EQ(stats.promotions, 1u);  // but the chunk promoted once
}

TEST(TieredStoreTest, AsyncHotOverSyncColdDefersColdReadToTake) {
  // Async hot tier, synchronous cold store: GetManyAsync must not execute
  // the cold read at issue time (that would block the speculating caller);
  // the cold read runs at Take, and results still match the sync path.
  auto hot_backend = std::make_shared<MemChunkStore>();
  RemoteChunkStore::Options hot_options;
  hot_options.connections = 1;  // async hot
  auto hot = std::make_shared<RemoteChunkStore>(hot_backend, hot_options);
  auto cold = std::make_shared<MemChunkStore>();  // synchronous cold
  TieredChunkStore tiered(hot, cold);
  ASSERT_TRUE(tiered.SupportsAsyncGet());

  auto hot_chunks = MakeChunks(4, 20);
  auto cold_chunks = MakeChunks(4, 21);
  ASSERT_TRUE(hot_backend->PutMany(hot_chunks).ok());
  ASSERT_TRUE(cold->PutMany(cold_chunks).ok());
  std::vector<Hash256> ids;
  for (size_t i = 0; i < 4; ++i) {
    ids.push_back(hot_chunks[i].hash());
    ids.push_back(cold_chunks[i].hash());
  }
  auto async_slots = tiered.GetManyAsync(ids).Take();
  auto sync_slots = tiered.GetMany(ids);
  ASSERT_EQ(async_slots.size(), sync_slots.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(async_slots[i].ok()) << i;
    EXPECT_EQ(async_slots[i]->bytes().ToString(),
              sync_slots[i]->bytes().ToString());
  }
}

TEST(TieredStoreTest, ColdTransientErrorSurfacesAsErrorNotNotFound) {
  TieredHarness h;
  auto chunks = MakeChunks(4, 12);
  ASSERT_TRUE(h.cold_backend->PutMany(chunks).ok());

  std::vector<Hash256> ids;
  for (const auto& chunk : chunks) ids.push_back(chunk.hash());

  h.faults->InjectOnce(FaultSchedule::Op::kGetBatch,
                       {FaultSchedule::Kind::kTransient});
  auto slots = h.tiered->GetMany(ids);
  ASSERT_EQ(slots.size(), ids.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    ASSERT_FALSE(slots[i].ok()) << i;
    // The contract under audit: an unreachable cold tier is an IOError in
    // the slot, never kNotFound — and nothing was promoted from the failed
    // fetch.
    EXPECT_EQ(slots[i].status().code(), StatusCode::kIOError) << i;
    EXPECT_FALSE(h.hot->Contains(ids[i]));
  }
  EXPECT_EQ(h.tiered->tier_stats().promotions, 0u);

  // Fault cleared: the retry succeeds — proof the failure was never
  // remembered anywhere in the stack.
  auto retry = h.tiered->GetMany(ids);
  for (size_t i = 0; i < retry.size(); ++i) {
    ASSERT_TRUE(retry[i].ok()) << i;
  }
}

TEST(TieredStoreTest, FailedDemotionKeepsChunksDirtyAndReadable) {
  TieredChunkStore::Options options;
  options.policy = TierPolicy::kWriteBack;
  options.background_demotion = false;
  options.demote_batch = 4;
  TieredHarness h(options);
  auto chunks = MakeChunks(12, 13);
  ASSERT_TRUE(h.tiered->PutMany(chunks).ok());

  // Second demotion round trip fails: batch 1 lands, batches 2-3 stay
  // dirty.
  h.faults->InjectOnce(FaultSchedule::Op::kPutBatch,
                       {FaultSchedule::Kind::kTransient}, /*skip=*/1);
  Status flush = h.tiered->FlushColdTier();
  ASSERT_FALSE(flush.ok());
  EXPECT_EQ(flush.code(), StatusCode::kIOError);
  auto stats = h.tiered->tier_stats();
  EXPECT_EQ(stats.demotions, 4u);
  EXPECT_EQ(stats.dirty_pending, 8u);

  // Every chunk still reads back through the tiered store.
  for (const auto& chunk : chunks) {
    auto got = h.tiered->Get(chunk.hash());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->bytes().ToString(), chunk.bytes().ToString());
  }

  // The next flush retries the remainder.
  ASSERT_TRUE(h.tiered->FlushColdTier().ok());
  EXPECT_EQ(h.tiered->tier_stats().dirty_pending, 0u);
  for (const auto& chunk : chunks) {
    EXPECT_TRUE(h.cold_backend->Contains(chunk.hash()));
  }
}

TEST(TieredStoreTest, HotCopyVanishingAfterProbeFallsBackToCold) {
  // The hot tier loses a chunk after it was resident (external cleanup, or
  // a future evicting hot tier). Every read path — scalar, batched fast
  // path, split batch, async — must heal from the cold tier instead of
  // reporting kNotFound for a chunk the store still holds.
  TieredHarness h;
  auto chunks = MakeChunks(6, 30);
  ASSERT_TRUE(h.tiered->PutMany(chunks).ok());  // write-through: both tiers

  // Scalar.
  ASSERT_TRUE(h.hot->Erase(std::vector<Hash256>{chunks[0].hash()}).ok());
  auto scalar = h.tiered->Get(chunks[0].hash());
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ(scalar->bytes().ToString(), chunks[0].bytes().ToString());

  // Batched (Mem's erase drops the index too, so this id splits cold; an
  // erase between Split and the hot read would instead leave a kNotFound
  // hot slot, which MergeTiers retries against the cold tier).
  ASSERT_TRUE(h.hot->Erase(std::vector<Hash256>{chunks[1].hash()}).ok());
  std::vector<Hash256> ids;
  for (const auto& chunk : chunks) ids.push_back(chunk.hash());
  auto slots = h.tiered->GetMany(ids);
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(slots[i].ok()) << i;
    EXPECT_EQ(slots[i]->bytes().ToString(), chunks[i].bytes().ToString());
  }

  // Async.
  ASSERT_TRUE(h.hot->Erase(std::vector<Hash256>{chunks[2].hash()}).ok());
  auto async_slots = h.tiered->GetManyAsync(ids).Take();
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(async_slots[i].ok()) << i;
  }
}

TEST(TieredStoreTest, DrainCompletionChainsIntoBacklogWithoutNewPuts) {
  // Writes that outrun an in-flight drain must still demote once that
  // drain completes — the completion re-checks the watermark itself; no
  // further Put or explicit flush is required. A slow cold tier holds the
  // first drain open while the backlog builds.
  TieredChunkStore::Options options;
  options.policy = TierPolicy::kWriteBack;
  options.background_demotion = true;
  options.write_back_watermark = 4;
  options.demote_batch = 4;
  RemoteChunkStore::Options remote_options;
  remote_options.batch_latency_us = 3000;  // each cold round trip is slow
  TieredHarness h(options, remote_options);
  auto chunks = MakeChunks(16, 31);
  // First batch crosses the watermark and opens the drain; the rest lands
  // while that drain is stuck in the slow cold round trip, so MarkDirty
  // sees a drain in flight and schedules nothing.
  ASSERT_TRUE(
      h.tiered->PutMany(std::span<const Chunk>(chunks.data(), 4)).ok());
  for (size_t i = 4; i < chunks.size(); ++i) {
    ASSERT_TRUE(h.tiered->Put(chunks[i]).ok());
  }
  // No flush, no further puts: the drain-completion chain alone must push
  // the backlog down below one watermark's worth of stragglers.
  size_t in_cold = 0;
  for (int spin = 0; spin < 600; ++spin) {
    in_cold = 0;
    for (const auto& chunk : chunks) {
      if (h.cold_backend->Contains(chunk.hash())) ++in_cold;
    }
    if (in_cold + options.write_back_watermark > chunks.size()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(in_cold + options.write_back_watermark, chunks.size())
      << "backlog never demoted without a trigger (only " << in_cold
      << " of " << chunks.size() << " reached the cold tier)";
}

TEST(TieredStoreTest, HotRetryErrorSurfacesInsteadOfColdNotFound) {
  // Cold says kNotFound, and the hot re-probe then fails with an I/O error:
  // the read must report the error ("unreachable"), never cold's "absent".
  auto hot_backend = std::make_shared<MemChunkStore>();
  auto hot_faults = std::make_shared<FaultSchedule>();
  RemoteChunkStore::Options hot_options;
  hot_options.faults = hot_faults;
  auto hot = std::make_shared<RemoteChunkStore>(hot_backend, hot_options);
  auto cold = std::make_shared<MemChunkStore>();
  TieredChunkStore tiered(hot, cold);
  const Hash256 id = Sha256(Slice("nowhere"));

  // Scalar: Get is a one-id batch, so the id splits cold (hot Contains
  // false) and the first kGet draw is the re-probe after cold's kNotFound.
  hot_faults->InjectOnce(FaultSchedule::Op::kGet,
                         {FaultSchedule::Kind::kTransient});
  auto scalar = tiered.Get(id);
  ASSERT_FALSE(scalar.ok());
  EXPECT_EQ(scalar.status().code(), StatusCode::kIOError);

  // Batch path: the id splits cold (hot Contains false), so the first kGet
  // draw is the re-probe itself.
  hot_faults->Clear();
  hot_faults->InjectOnce(FaultSchedule::Op::kGet,
                         {FaultSchedule::Kind::kTransient});
  auto slots = tiered.GetMany(std::vector<Hash256>{id});
  ASSERT_EQ(slots.size(), 1u);
  ASSERT_FALSE(slots[0].ok());
  EXPECT_EQ(slots[0].status().code(), StatusCode::kIOError);

  // With no fault armed, a genuinely absent id is still a clean kNotFound.
  auto clean = tiered.Get(id);
  EXPECT_TRUE(clean.status().IsNotFound());
}

TEST(TieredStoreTest, OverlappingFaultScriptsFireOnConsecutiveOps) {
  // Two scripts armed together (skip=0 and skip=1) must fault the next two
  // round trips — each script counts every Draw, including the one another
  // script fires on.
  auto schedule = std::make_shared<FaultSchedule>();
  schedule->InjectOnce(FaultSchedule::Op::kGet,
                       {FaultSchedule::Kind::kTransient});
  schedule->InjectOnce(FaultSchedule::Op::kGet,
                       {FaultSchedule::Kind::kTimeout}, /*skip=*/1);
  EXPECT_TRUE(schedule->Draw(FaultSchedule::Op::kGet).has_value());
  EXPECT_TRUE(schedule->Draw(FaultSchedule::Op::kGet).has_value());
  EXPECT_FALSE(schedule->Draw(FaultSchedule::Op::kGet).has_value());
  EXPECT_EQ(schedule->injected_count(), 2u);
}

TEST(TieredStoreTest, ForEachCoversUnionOfTiers) {
  TieredHarness h;
  auto hot_only = MakeChunks(4, 14);
  auto cold_only = MakeChunks(4, 15);
  auto both = MakeChunks(4, 16);
  ASSERT_TRUE(h.hot->PutMany(hot_only).ok());
  ASSERT_TRUE(h.cold_backend->PutMany(cold_only).ok());
  ASSERT_TRUE(h.tiered->PutMany(both).ok());  // write-through: both tiers

  size_t visited = 0;
  std::unordered_set<Hash256, Hash256Hasher> seen;
  h.tiered->ForEach([&](const Hash256& id, const Chunk& chunk) {
    EXPECT_EQ(chunk.hash(), id);
    EXPECT_TRUE(seen.insert(id).second) << "visited twice";
    ++visited;
  });
  EXPECT_EQ(visited, 12u);
}

// ---- bounded hot tier: budget, eviction, pinning --------------------------

TEST(TieredStoreTest, BudgetEvictsCleanLruChunksAndKeepsDataReadable) {
  TieredChunkStore::Options options;  // write-through: everything clean
  options.hot_bytes_budget = 1200;
  options.evict_batch = 4;
  TieredHarness h(options);
  auto chunks = MakeChunks(64, 40);  // ~65 bytes each: ~4x the budget
  for (const auto& chunk : chunks) {
    ASSERT_TRUE(h.tiered->Put(chunk).ok());
  }
  // The hot tier (a MemChunkStore: space_used is exact and erase frees
  // immediately) never ends a put over budget.
  EXPECT_LE(h.hot->space_used(), options.hot_bytes_budget);
  auto stats = h.tiered->tier_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.hot_bytes, options.hot_bytes_budget);
  EXPECT_EQ(stats.pinned_dirty_bytes, 0u);  // write-through pins nothing
  // Every chunk still reads back bit-exact — evicted ones from the cold
  // tier (and re-promote as they are touched).
  for (const auto& chunk : chunks) {
    auto got = h.tiered->Get(chunk.hash());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->bytes().ToString(), chunk.bytes().ToString());
  }
  EXPECT_GT(h.tiered->tier_stats().cold_hits, 0u);  // eviction really bit
}

TEST(TieredStoreTest, DirtyChunksArePinnedUntilDemotionLands) {
  TieredChunkStore::Options options;
  options.policy = TierPolicy::kWriteBack;
  options.background_demotion = false;
  options.hot_bytes_budget = 1000;
  TieredHarness h(options);
  auto chunks = MakeChunks(30, 41);  // ~2x the budget, all dirty
  ASSERT_TRUE(h.tiered->PutMany(chunks).ok());

  // Over budget, but every byte is pinned dirty: the evictor must not touch
  // a chunk the cold tier does not hold yet.
  auto stats = h.tiered->tier_stats();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_GT(stats.hot_bytes, options.hot_bytes_budget);
  EXPECT_EQ(stats.pinned_dirty_bytes, stats.hot_bytes);
  for (const auto& chunk : chunks) {
    EXPECT_TRUE(h.hot->Contains(chunk.hash()));
    EXPECT_FALSE(h.cold_backend->Contains(chunk.hash()));
  }

  // Demotion unpins; the drain's completion runs the evictor itself.
  ASSERT_TRUE(h.tiered->FlushColdTier().ok());
  stats = h.tiered->tier_stats();
  EXPECT_EQ(stats.pinned_dirty_bytes, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(h.hot->space_used(), options.hot_bytes_budget);
  for (const auto& chunk : chunks) {
    EXPECT_TRUE(h.cold_backend->Contains(chunk.hash()));
    auto got = h.tiered->Get(chunk.hash());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->bytes().ToString(), chunk.bytes().ToString());
  }
}

TEST(TieredStoreTest, ExactUnionChunkCount) {
  // The tiers hold disjoint sets: 5 hot-only (undemoted write-back) + 3
  // cold-only (history). The old stats reported max(5, 3) = 5 — a
  // documented lower bound; membership tracking makes the union exact.
  TieredChunkStore::Options options;
  options.policy = TierPolicy::kWriteBack;
  options.background_demotion = false;
  TieredHarness h(options);
  auto hot_only = MakeChunks(5, 42);
  auto cold_only = MakeChunks(3, 43);
  ASSERT_TRUE(h.tiered->PutMany(hot_only).ok());
  ASSERT_TRUE(h.cold_backend->PutMany(cold_only).ok());
  EXPECT_EQ(h.tiered->stats().chunk_count, 8u);
  // After the flush both tiers hold the 5; the union is still 8.
  ASSERT_TRUE(h.tiered->FlushColdTier().ok());
  EXPECT_EQ(h.tiered->stats().chunk_count, 8u);
}

TEST(TieredStoreTest, EraseClearsBothTiersAndThePipeline) {
  TieredChunkStore::Options options;
  options.policy = TierPolicy::kWriteBack;
  options.background_demotion = false;
  TieredHarness h(options);
  auto chunks = MakeChunks(6, 44);
  ASSERT_TRUE(h.tiered->PutMany(chunks).ok());
  ASSERT_TRUE(h.tiered->FlushColdTier().ok());  // resident in both tiers
  ASSERT_TRUE(h.tiered->Put(chunks[0]).ok());   // no-op re-put

  std::vector<Hash256> victims{chunks[0].hash(), chunks[1].hash()};
  ASSERT_TRUE(h.tiered->SupportsErase());
  ASSERT_TRUE(h.tiered->Erase(victims).ok());
  for (const auto& id : victims) {
    EXPECT_FALSE(h.tiered->Contains(id));
    EXPECT_TRUE(h.tiered->Get(id).status().IsNotFound());
  }
  EXPECT_EQ(h.tiered->stats().chunk_count, 4u);
  // An erased id must not resurface via a later drain.
  ASSERT_TRUE(h.tiered->FlushColdTier().ok());
  for (const auto& id : victims) EXPECT_FALSE(h.cold_backend->Contains(id));
}

TEST(TieredStoreTest, GcEvictsDirtyGarbageWithoutDemotion) {
  // Evict-over-demote: garbage that is still dirty (never demoted) must be
  // dropped from the hot tier directly — paying a cold round trip to write
  // bytes we are about to delete would be absurd — and its write-back
  // promise must be cancelled in the manifest. Garbage that already lives
  // cold still needs the cold erase.
  const std::string dir = ::testing::TempDir() + "/fb_gc_evict_manifest";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto manifest_or = DirtyManifest::Open(dir);
  ASSERT_TRUE(manifest_or.ok());
  std::shared_ptr<DirtyManifest> manifest(std::move(*manifest_or));
  TieredChunkStore::Options options;
  options.policy = TierPolicy::kWriteBack;
  options.background_demotion = false;
  options.dirty_manifest = manifest;
  TieredHarness h(options);

  auto demoted = MakeChunks(2, 45);      // cold-resident garbage
  auto dirty = MakeChunks(4, 46);        // hot-only, never-flushed garbage
  ASSERT_TRUE(h.tiered->PutMany(demoted).ok());
  ASSERT_TRUE(h.tiered->FlushColdTier().ok());
  ASSERT_TRUE(h.tiered->PutMany(dirty).ok());
  ASSERT_EQ(h.tiered->tier_stats().dirty_pending, dirty.size());
  ASSERT_EQ(manifest->dirty_count(), dirty.size());

  // The cold round-trip counter proves "no demotion": any dirty chunk
  // taking the demote path would bump the backend's put_calls.
  const uint64_t cold_puts_before = h.cold_backend->stats().put_calls;
  std::vector<Hash256> victims;
  for (const auto& c : dirty) victims.push_back(c.hash());
  for (const auto& c : demoted) victims.push_back(c.hash());
  ASSERT_TRUE(h.tiered->Erase(victims).ok());

  EXPECT_EQ(h.cold_backend->stats().put_calls, cold_puts_before)
      << "dirty garbage must be evicted, never demoted";
  EXPECT_EQ(h.tiered->tier_stats().hot_only_erases, dirty.size());
  EXPECT_EQ(h.tiered->tier_stats().dirty_pending, 0u);
  EXPECT_EQ(manifest->dirty_count(), 0u)
      << "erased dirty chunks must be unpinned from the manifest";
  for (const auto& id : victims) {
    EXPECT_FALSE(h.tiered->Contains(id));
    EXPECT_FALSE(h.cold_backend->Contains(id));
  }
  // A later drain must not resurrect anything.
  ASSERT_TRUE(h.tiered->FlushColdTier().ok());
  for (const auto& id : victims) EXPECT_FALSE(h.cold_backend->Contains(id));
  std::filesystem::remove_all(dir);
}

TEST(TieredStoreTest, GcSweepSurvivesTransientColdFaults) {
  // A sweep whose mark phase has to read evicted chunks from a flaky cold
  // tier must fail cleanly — nothing erased on a failed mark, every head
  // still verifiable — and succeed on retry once the fault passes.
  TieredChunkStore::Options options;
  options.policy = TierPolicy::kWriteBack;
  options.background_demotion = false;
  TieredHarness h(options);
  ForkBase db(h.tiered);
  ASSERT_TRUE(db.PutMap("keep", {{"a", "1"}, {"b", "2"}}).ok());
  ASSERT_TRUE(db.PutMap("drop", {{"doomed", "payload"}}).ok());
  ASSERT_TRUE(h.tiered->FlushColdTier().ok());
  ASSERT_TRUE(db.DeleteBranch("drop", "master").ok());
  // Evict the hot copies so the mark is forced through the cold tier.
  std::vector<Hash256> all_hot;
  h.hot->ForEachId([&](const Hash256& id, uint64_t) { all_hot.push_back(id); });
  ASSERT_TRUE(h.hot->Erase(all_hot).ok());

  h.faults->InjectOnce(FaultSchedule::Op::kGetBatch,
                       {FaultSchedule::Kind::kTransient});
  const uint64_t cold_before = h.cold_backend->stats().chunk_count;
  auto failed = SweepInPlace(&db);
  EXPECT_FALSE(failed.ok()) << "mark read through a faulted cold tier";
  // A failed mark must not have erased anything.
  EXPECT_EQ(h.cold_backend->stats().chunk_count, cold_before);
  EXPECT_TRUE(db.Verify(*db.Head("keep")).ok());

  // Fault drained: the retry reclaims the garbage and keeps the survivors.
  auto stats = SweepInPlace(&db);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->swept_chunks, 0u);
  EXPECT_LT(h.cold_backend->stats().chunk_count, cold_before);
  EXPECT_TRUE(db.Verify(*db.Head("keep")).ok());
  EXPECT_EQ(**db.GetMap("keep")->Get("b"), "2");
}

// ---- persistent dirty manifest --------------------------------------------

class DirtyManifestTieredTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hot_dir_ = ::testing::TempDir() + "/fb_manifest_hot";
    cold_dir_ = ::testing::TempDir() + "/fb_manifest_cold";
    std::filesystem::remove_all(hot_dir_);
    std::filesystem::remove_all(cold_dir_);
    faults_ = std::make_shared<FaultSchedule>();
  }
  void TearDown() override {
    std::filesystem::remove_all(hot_dir_);
    std::filesystem::remove_all(cold_dir_);
  }

  /// Persistent write-back stack: File hot (+ manifest beside it), File
  /// cold behind a faultable Remote.
  std::shared_ptr<TieredChunkStore> OpenStack(
      TieredChunkStore::Options options = {}) {
    auto hot_or = FileChunkStore::Open(hot_dir_);
    EXPECT_TRUE(hot_or.ok());
    auto cold_or = FileChunkStore::Open(cold_dir_);
    EXPECT_TRUE(cold_or.ok());
    RemoteChunkStore::Options remote_options;
    remote_options.faults = faults_;
    auto cold = std::make_shared<RemoteChunkStore>(
        std::shared_ptr<ChunkStore>(std::move(*cold_or)), remote_options);
    auto manifest_or = DirtyManifest::Open(hot_dir_);
    EXPECT_TRUE(manifest_or.ok());
    options.policy = TierPolicy::kWriteBack;
    options.background_demotion = false;
    options.dirty_manifest = std::move(*manifest_or);
    return std::make_shared<TieredChunkStore>(
        std::shared_ptr<ChunkStore>(std::move(*hot_or)), std::move(cold),
        options);
  }

  std::string hot_dir_;
  std::string cold_dir_;
  std::shared_ptr<FaultSchedule> faults_;
};

TEST_F(DirtyManifestTieredTest, ReplayResumesDemotionAfterCrash) {
  auto chunks = MakeChunks(40, 50);
  {
    auto tiered = OpenStack();
    ASSERT_TRUE(tiered->PutMany(chunks).ok());
    EXPECT_EQ(tiered->manifest()->dirty_count(), chunks.size());
    // "Kill" the process before anything demotes: every cold write fails
    // from here on, including the destructor's best-effort flush.
    faults_->SetProbability(FaultSchedule::Op::kPutBatch, 1.0,
                            {FaultSchedule::Kind::kTransient});
  }
  {
    // Nothing demoted before the "kill": the cold backend is empty.
    auto cold_or = FileChunkStore::Open(cold_dir_);
    ASSERT_TRUE(cold_or.ok());
    for (const auto& chunk : chunks) {
      ASSERT_FALSE((*cold_or)->Contains(chunk.hash()));
    }
  }
  faults_->Clear();

  // Reopen: the manifest replays the full dirty set; demotion resumes and
  // every previously-dirty chunk reaches the cold tier.
  auto tiered = OpenStack();
  EXPECT_EQ(tiered->tier_stats().dirty_pending, chunks.size());
  ASSERT_TRUE(tiered->FlushColdTier().ok());
  EXPECT_EQ(tiered->tier_stats().demotions, chunks.size());
  EXPECT_EQ(tiered->manifest()->dirty_count(), 0u);
  // Cold-tier round trip: the cold backend itself (bypassing the hot tier)
  // serves every chunk bit-exact.
  for (const auto& chunk : chunks) {
    auto got = tiered->cold()->Get(chunk.hash());
    ASSERT_TRUE(got.ok()) << chunk.hash().ToBase32();
    EXPECT_EQ(got->bytes().ToString(), chunk.bytes().ToString());
  }
}

TEST_F(DirtyManifestTieredTest, MissingManifestReconcilesFromTiers) {
  // A pre-manifest store (or one whose manifest file was lost): the hot
  // tier holds 20 chunks, only 8 of which ever reached the cold tier.
  auto seeded = MakeChunks(20, 51);
  {
    auto hot_or = FileChunkStore::Open(hot_dir_);
    ASSERT_TRUE(hot_or.ok());
    ASSERT_TRUE((*hot_or)->PutMany(seeded).ok());
    auto cold_or = FileChunkStore::Open(cold_dir_);
    ASSERT_TRUE(cold_or.ok());
    ASSERT_TRUE(
        (*cold_or)
            ->PutMany(std::span<const Chunk>(seeded.data(), 8))
            .ok());
  }
  ASSERT_FALSE(std::filesystem::exists(hot_dir_ + "/dirty-manifest.fbm"));

  auto tiered = OpenStack();
  // Reconcile marked exactly the 12 cold-missing chunks dirty — and wrote
  // them into the fresh manifest.
  EXPECT_EQ(tiered->tier_stats().dirty_pending, 12u);
  EXPECT_EQ(tiered->manifest()->dirty_count(), 12u);
  ASSERT_TRUE(tiered->FlushColdTier().ok());
  for (const auto& chunk : seeded) {
    EXPECT_TRUE(tiered->cold()->Contains(chunk.hash()));
  }
  EXPECT_EQ(tiered->manifest()->dirty_count(), 0u);
}

TEST_F(DirtyManifestTieredTest, TornManifestTailKeepsGoodPrefix) {
  auto chunks = MakeChunks(10, 52);
  {
    auto tiered = OpenStack();
    ASSERT_TRUE(tiered->PutMany(chunks).ok());
    faults_->SetProbability(FaultSchedule::Op::kPutBatch, 1.0,
                            {FaultSchedule::Kind::kTransient});
  }
  faults_->Clear();
  {
    // The crash tore the manifest's tail mid-record.
    std::ofstream manifest(hot_dir_ + "/dirty-manifest.fbm",
                           std::ios::binary | std::ios::app);
    const uint32_t magic = 0x46424d31;
    manifest.write(reinterpret_cast<const char*>(&magic), 4);
    manifest.write("D", 1);
    manifest.write("torn", 4);
  }
  auto tiered = OpenStack();
  EXPECT_EQ(tiered->tier_stats().dirty_pending, chunks.size());
  ASSERT_TRUE(tiered->FlushColdTier().ok());
  for (const auto& chunk : chunks) {
    EXPECT_TRUE(tiered->cold()->Contains(chunk.hash()));
  }
}

TEST(DirtyManifestTest, JournalCompactsOnceChurnDominates) {
  const std::string dir = ::testing::TempDir() + "/fb_manifest_compact";
  std::filesystem::remove_all(dir);
  auto manifest_or = DirtyManifest::Open(dir);
  ASSERT_TRUE(manifest_or.ok());
  auto& manifest = **manifest_or;
  EXPECT_FALSE(manifest.existed());

  Rng rng(53);
  std::vector<Hash256> live;
  for (int i = 0; i < 4; ++i) live.push_back(Sha256(Slice(rng.NextBytes(8))));
  ASSERT_TRUE(manifest.MarkDirty(live).ok());
  // Churn far past the compaction threshold (records > 2*dirty + 1024).
  for (int round = 0; round < 200; ++round) {
    std::vector<Hash256> batch;
    for (int i = 0; i < 4; ++i) {
      batch.push_back(Sha256(Slice(rng.NextBytes(8))));
    }
    ASSERT_TRUE(manifest.MarkDirty(batch).ok());
    ASSERT_TRUE(manifest.MarkClean(batch).ok());
  }
  EXPECT_GT(manifest.compactions(), 0u);
  // The journal never outgrows the compaction threshold: churn since the
  // last fold stays below 2*live + the floor.
  EXPECT_LE(manifest.record_count(), 2 * manifest.dirty_count() + 1024);
  EXPECT_EQ(manifest.dirty_count(), live.size());

  // The compacted journal replays to exactly the live set.
  manifest_or->reset();
  auto reopened = DirtyManifest::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->existed());
  auto ids = (*reopened)->DirtyIds();
  std::unordered_set<Hash256, Hash256Hasher> set(ids.begin(), ids.end());
  EXPECT_EQ(set.size(), live.size());
  for (const auto& id : live) EXPECT_TRUE(set.count(id));
  std::filesystem::remove_all(dir);
}

// ---- end-to-end: the full workload suite on a tiered persistent stack -----

class TieredForkBaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hot_dir_ = ::testing::TempDir() + "/fb_tiered_hot";
    cold_dir_ = ::testing::TempDir() + "/fb_tiered_cold";
    std::filesystem::remove_all(hot_dir_);
    std::filesystem::remove_all(cold_dir_);
  }
  void TearDown() override {
    std::filesystem::remove_all(hot_dir_);
    std::filesystem::remove_all(cold_dir_);
  }

  StatusOr<std::unique_ptr<ForkBase>> Open(bool write_back = false) {
    ForkBase::Config config;
    config.tier.cold_dir = cold_dir_;
    config.tier.write_back = write_back;
    return ForkBase::Open(hot_dir_, config);
  }

  std::string hot_dir_;
  std::string cold_dir_;
};

TEST_F(TieredForkBaseTest, PutScanDiffGcOnTieredStack) {
  auto db_or = Open();
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  ForkBase& db = **db_or;

  // Put + branch + edit.
  std::vector<std::pair<std::string, std::string>> kvs;
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    kvs.emplace_back("k" + std::to_string(i), rng.NextString(24));
  }
  ASSERT_TRUE(db.PutMap("doc", kvs).ok());
  ASSERT_TRUE(db.Branch("doc", "edit").ok());
  ASSERT_TRUE(db.UpdateMap("doc", {KeyedOp{"k42", "edited"}}, "edit").ok());

  // Scan (typed read of every entry).
  auto map = db.GetMap("doc", "edit");
  ASSERT_TRUE(map.ok());
  auto entries = map->Entries();
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2000u);

  // Diff between the branches.
  auto diff = db.Diff("doc", "master", "edit");
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->keyed.size(), 1u);

  // Verify (Merkle sweep) + GC copy-collect into a fresh mem store.
  ASSERT_TRUE(db.Verify(*db.Head("doc", "edit")).ok());
  MemChunkStore gc_dest;
  auto gc = CopyLive(db, &gc_dest);
  ASSERT_TRUE(gc.ok()) << gc.status().ToString();
  EXPECT_GT(gc->live_chunks, 0u);
  EXPECT_EQ(gc_dest.stats().chunk_count, gc->live_chunks);
}

TEST_F(TieredForkBaseTest, GroupCommitOnTieredWriteBackStack) {
  auto db_or = Open(/*write_back=*/true);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  ForkBase& db = **db_or;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&db, t] {
      for (int i = 0; i < 20; ++i) {
        auto uid = db.Put("gc-key", Value::String(std::to_string(t * 100 + i)),
                          "b" + std::to_string(t));
        ASSERT_TRUE(uid.ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < 4; ++t) {
    auto history = db.History("gc-key", "b" + std::to_string(t));
    ASSERT_TRUE(history.ok());
    EXPECT_EQ(history->size(), 20u);
  }
}

TEST_F(TieredForkBaseTest, BoundedHotTierKeepsDiskWithinBudgetUnderWorkload) {
  // The bounded-tier acceptance run: a put/scan/diff/GC workload several
  // times the hot budget, on the real ForkBase::Open write-back stack
  // (budget + manifest + background demotion + segment rewrite). The hot
  // directory's disk usage must stay within budget + one segment at every
  // checkpoint (modulo in-flight background reclamation, which the
  // checkpoint polls out), and every byte must read back bit-exact.
  constexpr uint64_t kBudget = 2ull << 20;
  constexpr uint64_t kSegment = 1ull << 20;  // ForkBase::Open's clamp floor
  ForkBase::Config config;
  config.tier.cold_dir = cold_dir_;
  config.tier.write_back = true;
  config.tier.hot_bytes_budget = kBudget;
  config.cache_bytes = 256 << 10;  // small cache: reads actually hit the tiers
  auto db_or = ForkBase::Open(hot_dir_, config);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  ForkBase& db = **db_or;

  auto hot_segment_bytes = [&]() -> uint64_t {
    uint64_t total = 0;
    for (const auto& entry : std::filesystem::directory_iterator(hot_dir_)) {
      if (entry.path().extension() == ".fbc") {
        total += std::filesystem::file_size(entry.path());
      }
    }
    return total;
  };
  auto checkpoint = [&](const char* phase) {
    // Background demotion, eviction and segment rewrite are asynchronous;
    // give them a bounded window to catch up, then hold the line.
    const uint64_t bound = kBudget + kSegment;
    uint64_t disk = 0;
    for (int spin = 0; spin < 400; ++spin) {
      disk = hot_segment_bytes();
      if (disk <= bound) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    EXPECT_LE(disk, bound) << "hot tier over budget after " << phase;
  };

  Rng rng(60);
  std::map<std::string, std::map<std::string, std::string>> shadow;
  std::string blob_bytes;

  // Phase 1: bulk puts — 4 maps x 2000 entries (~4x the budget with tree
  // and commit overhead).
  for (int m = 0; m < 4; ++m) {
    const std::string key = "doc" + std::to_string(m);
    std::vector<std::pair<std::string, std::string>> kvs;
    std::map<std::string, std::string> content;
    for (int i = 0; i < 2000; ++i) {
      std::string k = "k" + std::to_string(i);
      std::string v = rng.NextString(180);
      content[k] = v;
      kvs.emplace_back(std::move(k), std::move(v));
    }
    ASSERT_TRUE(db.PutMap(key, kvs).ok());
    shadow[key] = std::move(content);
  }
  blob_bytes = rng.NextBytes(1 << 20);
  ASSERT_TRUE(db.PutBlob("bin", blob_bytes).ok());
  checkpoint("bulk puts");

  // Phase 2: branch + edit + diff.
  ASSERT_TRUE(db.Branch("doc0", "edit").ok());
  ASSERT_TRUE(db.UpdateMap("doc0", {KeyedOp{"k42", "edited"}}, "edit").ok());
  auto diff = db.Diff("doc0", "master", "edit");
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->keyed.size(), 1u);
  checkpoint("diff");

  // Phase 3: full scans — every entry of every map, bit-exact against the
  // shadow model (evicted chunks come back from the cold tier).
  for (const auto& [key, content] : shadow) {
    auto map = db.GetMap(key);
    ASSERT_TRUE(map.ok()) << key;
    auto entries = map->Entries();
    ASSERT_TRUE(entries.ok());
    ASSERT_EQ(entries->size(), content.size()) << key;
    for (const auto& [k, v] : *entries) {
      auto it = content.find(k);
      ASSERT_NE(it, content.end()) << key << "/" << k;
      ASSERT_EQ(it->second, v) << key << "/" << k;
    }
  }
  {
    auto blob = db.GetBlob("bin");
    ASSERT_TRUE(blob.ok());
    auto bytes = blob->ReadAll();
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(*bytes, blob_bytes);
  }
  checkpoint("scans");

  // Phase 4: GC copy-collect (sweeps the tier union) + verification.
  MemChunkStore gc_dest;
  auto gc = CopyLive(db, &gc_dest);
  ASSERT_TRUE(gc.ok()) << gc.status().ToString();
  EXPECT_GT(gc->live_chunks, 0u);
  EXPECT_EQ(gc_dest.stats().chunk_count, gc->live_chunks);
  for (const auto& [key, content] : shadow) {
    (void)content;
    ASSERT_TRUE(db.Verify(*db.Head(key)).ok()) << key;
  }
  checkpoint("gc");

  // The budget really bit, dirty chunks never evicted: after a full flush
  // nothing is pinned, and the evictor has done real work.
  ASSERT_NE(db.tiered(), nullptr);
  ASSERT_TRUE(db.tiered()->FlushColdTier().ok());
  auto tier = db.tiered()->tier_stats();
  EXPECT_GT(tier.evictions, 0u) << "workload never exceeded the budget?";
  EXPECT_EQ(tier.pinned_dirty_bytes, 0u);
  EXPECT_EQ(tier.dirty_pending, 0u);
  checkpoint("final flush");
}

TEST_F(TieredForkBaseTest, LostHotTierRecoversFromColdBackend) {
  Hash256 head;
  {
    auto db_or = Open();  // write-through: cold holds everything
    ASSERT_TRUE(db_or.ok());
    ForkBase& db = **db_or;
    std::vector<std::pair<std::string, std::string>> kvs;
    Rng rng(18);
    for (int i = 0; i < 1000; ++i) {
      kvs.emplace_back(rng.NextString(12), rng.NextString(24));
    }
    ASSERT_TRUE(db.PutMap("survivor", kvs).ok());
    head = *db.Head("survivor");
  }
  // The hot disk dies: every segment file vanishes; only the head log
  // survives.
  for (const auto& entry : std::filesystem::directory_iterator(hot_dir_)) {
    if (entry.path().extension() == ".fbc") {
      std::filesystem::remove(entry.path());
    }
  }
  auto db_or = Open();
  ASSERT_TRUE(db_or.ok());
  ForkBase& db = **db_or;
  auto map = db.GetMap("survivor");
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  EXPECT_EQ(*map->Size(), 1000u);
  EXPECT_TRUE(db.Verify(head).ok());
}

}  // namespace
}  // namespace forkbase
