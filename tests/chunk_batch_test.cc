// Batched chunk I/O semantics: GetMany/PutMany ordering and missing-hash
// handling, in-batch dedup accounting, segment rollover inside one batch,
// crash recovery of a torn batched tail, and batch-aware cache fill.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "chunk/caching_chunk_store.h"
#include "chunk/file_chunk_store.h"
#include "chunk/mem_chunk_store.h"
#include "testing/remote_chunk_store.h"
#include "util/random.h"

namespace forkbase {
namespace {

Chunk MakeTestChunk(const std::string& payload,
                    ChunkType type = ChunkType::kCell) {
  return Chunk::Make(type, payload);
}

std::vector<Chunk> MakeChunks(size_t n, uint64_t seed, size_t bytes = 64) {
  Rng rng(seed);
  std::vector<Chunk> chunks;
  chunks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    chunks.push_back(MakeTestChunk(rng.NextBytes(bytes)));
  }
  return chunks;
}

class FileBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fb_batch_test";
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

// --------------------------------------------------- default (Mem) batch --

TEST(MemBatchTest, GetManyPreservesOrderAndFlagsMissing) {
  MemChunkStore store;
  auto chunks = MakeChunks(5, 1);
  ASSERT_TRUE(store.PutMany(chunks).ok());
  std::vector<Hash256> ids;
  for (const auto& c : chunks) ids.push_back(c.hash());
  ids.insert(ids.begin() + 2, Sha256(Slice("absent")));  // poison the middle
  auto results = store.GetMany(ids);
  ASSERT_EQ(results.size(), 6u);
  for (size_t i = 0; i < results.size(); ++i) {
    if (i == 2) {
      EXPECT_TRUE(results[i].status().IsNotFound());
    } else {
      ASSERT_TRUE(results[i].ok()) << i;
      EXPECT_EQ(results[i]->hash(), ids[i]);
    }
  }
}

TEST(MemBatchTest, PutManyCountsInBatchDuplicatesAsDedup) {
  MemChunkStore store;
  Chunk a = MakeTestChunk("aaa");
  Chunk b = MakeTestChunk("bbb");
  std::vector<Chunk> batch{a, b, a, a};  // 2 in-batch duplicates
  ASSERT_TRUE(store.PutMany(batch).ok());
  auto stats = store.stats();
  EXPECT_EQ(stats.put_calls, 4u);
  EXPECT_EQ(stats.chunk_count, 2u);
  EXPECT_EQ(stats.dedup_hits, 2u);
  EXPECT_EQ(stats.logical_bytes, a.size() * 3 + b.size());
  EXPECT_EQ(stats.physical_bytes, a.size() + b.size());
}

TEST(MemBatchTest, PutManyRejectsInvalidChunkUpfront) {
  MemChunkStore store;
  std::vector<Chunk> batch{MakeTestChunk("ok"), Chunk()};
  EXPECT_FALSE(store.PutMany(batch).ok());
}

// -------------------------------------------------------- FileChunkStore --

TEST_F(FileBatchTest, PutManyGetManyRoundTrip) {
  auto store_or = FileChunkStore::Open(dir_);
  ASSERT_TRUE(store_or.ok());
  auto& store = **store_or;
  auto chunks = MakeChunks(100, 2, 100);
  ASSERT_TRUE(store.PutMany(chunks).ok());
  std::vector<Hash256> ids;
  for (const auto& c : chunks) ids.push_back(c.hash());
  auto results = store.GetMany(ids);
  ASSERT_EQ(results.size(), chunks.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i;
    EXPECT_EQ(results[i]->bytes().ToString(), chunks[i].bytes().ToString());
  }
  EXPECT_EQ(store.stats().chunk_count, chunks.size());
}

TEST_F(FileBatchTest, PutManyDedupsWithinBatchAndAgainstResident) {
  auto store_or = FileChunkStore::Open(dir_);
  ASSERT_TRUE(store_or.ok());
  auto& store = **store_or;
  Chunk resident = MakeTestChunk("already here");
  ASSERT_TRUE(store.Put(resident).ok());
  Chunk fresh = MakeTestChunk("fresh");
  std::vector<Chunk> batch{resident, fresh, fresh};
  ASSERT_TRUE(store.PutMany(batch).ok());
  auto stats = store.stats();
  EXPECT_EQ(stats.chunk_count, 2u);
  EXPECT_EQ(stats.dedup_hits, 2u);  // resident + in-batch duplicate
  EXPECT_EQ(stats.put_calls, 4u);   // 1 scalar + 3 batched
}

TEST_F(FileBatchTest, GetManyMissingSlotsDoNotFailTheBatch) {
  auto store_or = FileChunkStore::Open(dir_);
  ASSERT_TRUE(store_or.ok());
  auto& store = **store_or;
  auto chunks = MakeChunks(3, 3);
  ASSERT_TRUE(store.PutMany(chunks).ok());
  std::vector<Hash256> ids{chunks[0].hash(), Sha256(Slice("ghost-1")),
                           chunks[1].hash(), Sha256(Slice("ghost-2")),
                           chunks[2].hash()};
  auto results = store.GetMany(ids);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].status().IsNotFound());
  EXPECT_TRUE(results[2].ok());
  EXPECT_TRUE(results[3].status().IsNotFound());
  EXPECT_TRUE(results[4].ok());
}

TEST_F(FileBatchTest, BatchRollsSegmentsMidBatch) {
  FileChunkStore::Options options;
  options.segment_bytes = 4 * 1024;  // force rollover inside one batch
  auto store_or = FileChunkStore::Open(dir_, options);
  ASSERT_TRUE(store_or.ok());
  auto& store = **store_or;
  auto chunks = MakeChunks(64, 4, 512);
  ASSERT_TRUE(store.PutMany(chunks).ok());
  // Multiple segment files must exist.
  size_t segments = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".fbc") ++segments;
  }
  EXPECT_GT(segments, 1u);
  // Everything readable, across all segments, in one batched get.
  std::vector<Hash256> ids;
  for (const auto& c : chunks) ids.push_back(c.hash());
  for (const auto& r : store.GetMany(ids)) ASSERT_TRUE(r.ok());
}

TEST_F(FileBatchTest, BatchedWritesSurviveReopen) {
  auto chunks = MakeChunks(50, 5, 200);
  {
    auto store_or = FileChunkStore::Open(dir_);
    ASSERT_TRUE(store_or.ok());
    ASSERT_TRUE((*store_or)->PutMany(chunks).ok());
    // Store destroyed here — simulated clean process exit.
  }
  auto store_or = FileChunkStore::Open(dir_);
  ASSERT_TRUE(store_or.ok());
  std::vector<Hash256> ids;
  for (const auto& c : chunks) ids.push_back(c.hash());
  auto results = (*store_or)->GetMany(ids);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i;
    EXPECT_EQ(results[i]->bytes().ToString(), chunks[i].bytes().ToString());
  }
}

TEST_F(FileBatchTest, RecoversFromTornBatchedTail) {
  auto chunks = MakeChunks(20, 6, 300);
  std::string segment_path;
  {
    auto store_or = FileChunkStore::Open(dir_);
    ASSERT_TRUE(store_or.ok());
    ASSERT_TRUE((*store_or)->PutMany(chunks).ok());
    segment_path = dir_ + "/segment-0.fbc";
  }
  // Simulate a crash mid-batch: chop the file inside the final record.
  auto size = std::filesystem::file_size(segment_path);
  std::filesystem::resize_file(segment_path, size - 150);

  auto store_or = FileChunkStore::Open(dir_);
  ASSERT_TRUE(store_or.ok());
  auto& store = **store_or;
  // All but the torn last record recovered.
  EXPECT_EQ(store.stats().chunk_count, chunks.size() - 1);
  for (size_t i = 0; i + 1 < chunks.size(); ++i) {
    auto got = store.Get(chunks[i].hash());
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(got->bytes().ToString(), chunks[i].bytes().ToString());
  }
  EXPECT_TRUE(store.Get(chunks.back().hash()).status().IsNotFound());
  // The tail was truncated to a record boundary: a fresh batch appends
  // cleanly and everything reads back.
  auto more = MakeChunks(5, 7, 300);
  ASSERT_TRUE(store.PutMany(more).ok());
  for (const auto& c : more) {
    ASSERT_TRUE(store.Get(c.hash()).ok());
  }
}

TEST_F(FileBatchTest, ScalarPutIsDurableWithoutExplicitFlush) {
  // Put publishes only after fflush, so bytes must be visible to an
  // independent reader without Flush() being called.
  auto store_or = FileChunkStore::Open(dir_);
  ASSERT_TRUE(store_or.ok());
  auto& store = **store_or;
  Chunk c = MakeTestChunk("flushed before publish");
  ASSERT_TRUE(store.Put(c).ok());
  std::ifstream raw(dir_ + "/segment-0.fbc", std::ios::binary);
  std::string on_disk((std::istreambuf_iterator<char>(raw)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(on_disk.find("flushed before publish"), std::string::npos);
}

TEST_F(FileBatchTest, FsyncOnFlushRoundTrips) {
  FileChunkStore::Options options;
  options.fsync_on_flush = true;
  auto store_or = FileChunkStore::Open(dir_, options);
  ASSERT_TRUE(store_or.ok());
  auto& store = **store_or;
  auto chunks = MakeChunks(8, 13);
  ASSERT_TRUE(store.PutMany(chunks).ok());
  ASSERT_TRUE(store.Flush().ok());
  for (const auto& c : chunks) {
    auto got = store.Get(c.hash());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->bytes().ToString(), c.bytes().ToString());
  }
}

// ----------------------------------------------------- CachingChunkStore --

TEST(CacheBatchTest, GetManyFillsCacheFromBaseInOneCall) {
  auto base = std::make_shared<MemChunkStore>();
  auto chunks = MakeChunks(10, 8);
  ASSERT_TRUE(base->PutMany(chunks).ok());
  CachingChunkStore cache(base, 1 << 20);
  std::vector<Hash256> ids;
  for (const auto& c : chunks) ids.push_back(c.hash());

  auto first = cache.GetMany(ids);
  for (const auto& r : first) ASSERT_TRUE(r.ok());
  EXPECT_EQ(cache.cache_stats().misses, 10u);

  auto second = cache.GetMany(ids);
  for (const auto& r : second) ASSERT_TRUE(r.ok());
  auto cstats = cache.cache_stats();
  EXPECT_EQ(cstats.misses, 10u) << "second read must be all cache hits";
  EXPECT_EQ(cstats.hits, 10u);
  // The base saw exactly one batched read.
  EXPECT_EQ(base->stats().get_calls, 10u);
}

TEST(CacheBatchTest, GetManyMixedHitsMissesAndAbsent) {
  auto base = std::make_shared<MemChunkStore>();
  auto chunks = MakeChunks(4, 9);
  ASSERT_TRUE(base->PutMany(chunks).ok());
  CachingChunkStore cache(base, 1 << 20);
  ASSERT_TRUE(cache.Get(chunks[0].hash()).ok());  // warm one entry

  std::vector<Hash256> ids{chunks[0].hash(), chunks[1].hash(),
                           Sha256(Slice("never-stored")), chunks[2].hash()};
  auto results = cache.GetMany(ids);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_TRUE(results[2].status().IsNotFound());
  EXPECT_TRUE(results[3].ok());
}

TEST(CacheBatchTest, PutManyWritesThroughAndCaches) {
  auto base = std::make_shared<MemChunkStore>();
  CachingChunkStore cache(base, 1 << 20);
  auto chunks = MakeChunks(6, 10);
  ASSERT_TRUE(cache.PutMany(chunks).ok());
  EXPECT_EQ(base->stats().chunk_count, 6u);
  std::vector<Hash256> ids;
  for (const auto& c : chunks) ids.push_back(c.hash());
  for (const auto& r : cache.GetMany(ids)) ASSERT_TRUE(r.ok());
  EXPECT_EQ(cache.cache_stats().misses, 0u) << "PutMany must prefill";
}

TEST(CacheBatchTest, BatchStatsMatchScalarSemantics) {
  // A batch with duplicate ids must account exactly like the equivalent
  // scalar sequence: the first occurrence of a cold id is a miss, every
  // later occurrence in the same batch is a hit (it is served by the fill
  // the first occurrence triggers), and the base store is asked once per
  // distinct id.
  auto base = std::make_shared<MemChunkStore>();
  auto chunks = MakeChunks(3, 12);
  ASSERT_TRUE(base->PutMany(chunks).ok());
  CachingChunkStore cache(base, 1 << 20);

  std::vector<Hash256> ids{chunks[0].hash(), chunks[1].hash(),
                           chunks[0].hash(), chunks[2].hash(),
                           chunks[0].hash(), chunks[1].hash()};
  auto results = cache.GetMany(ids);
  ASSERT_EQ(results.size(), 6u);
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i;
    EXPECT_EQ(results[i]->hash(), ids[i]) << i;
  }
  auto cstats = cache.cache_stats();
  EXPECT_EQ(cstats.misses, 3u) << "one miss per distinct cold id";
  EXPECT_EQ(cstats.hits, 3u) << "duplicates count as hits, like scalar Get";
  EXPECT_EQ(cstats.hits + cstats.misses, ids.size());
  EXPECT_EQ(base->stats().get_calls, 3u)
      << "the base must be asked once per distinct id";

  // Scalar replay of the same access pattern on a fresh cache agrees.
  CachingChunkStore scalar_cache(base, 1 << 20);
  for (const auto& id : ids) ASSERT_TRUE(scalar_cache.Get(id).ok());
  auto sstats = scalar_cache.cache_stats();
  EXPECT_EQ(sstats.misses, cstats.misses);
  EXPECT_EQ(sstats.hits, cstats.hits);
}

TEST(CacheBatchTest, DuplicateMissOfAbsentIdPropagatesPerSlot) {
  auto base = std::make_shared<MemChunkStore>();
  CachingChunkStore cache(base, 1 << 20);
  Hash256 ghost = Sha256(Slice("not-there"));
  std::vector<Hash256> ids{ghost, ghost};
  auto results = cache.GetMany(ids);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].status().IsNotFound());
  EXPECT_TRUE(results[1].status().IsNotFound());
  // Scalar parity for the absent case too: Get(ghost); Get(ghost) is two
  // misses (NotFound never fills the cache), so the batch must be as well.
  auto cstats = cache.cache_stats();
  EXPECT_EQ(cstats.misses, 2u);
  EXPECT_EQ(cstats.hits, 0u);
}

TEST(CacheBatchTest, ExplicitShardingSpreadsEntries)  {
  auto base = std::make_shared<MemChunkStore>();
  CachingChunkStore cache(base, 1 << 20, /*shards=*/8);
  EXPECT_EQ(cache.shard_count(), 8u);
  auto chunks = MakeChunks(64, 11);
  ASSERT_TRUE(cache.PutMany(chunks).ok());
  EXPECT_EQ(cache.cache_stats().resident_bytes,
            64u * chunks[0].size());
}

// ------------------------------------ cache error propagation (audit) ----
//
// Regression tests for the miss-path Status audit: a transient cold-tier
// error reaching CachingChunkStore must surface in the caller's slots and
// must never be cached — not as a value, and not as "absent". The flaky
// base is a RemoteChunkStore over memory with a scripted fault schedule.

struct FlakyCacheRig {
  FlakyCacheRig() {
    backend = std::make_shared<MemChunkStore>();
    faults = std::make_shared<FaultSchedule>();
    RemoteChunkStore::Options options;
    options.faults = faults;
    remote = std::make_shared<RemoteChunkStore>(backend, options);
    cache = std::make_unique<CachingChunkStore>(remote, 1 << 20);
  }
  std::shared_ptr<MemChunkStore> backend;
  std::shared_ptr<FaultSchedule> faults;
  std::shared_ptr<RemoteChunkStore> remote;
  std::unique_ptr<CachingChunkStore> cache;
};

TEST(CacheErrorPropagation, ScalarTransientErrorSurfacesAndIsNotCached) {
  FlakyCacheRig rig;
  auto chunk = MakeTestChunk("cold-resident");
  ASSERT_TRUE(rig.backend->Put(chunk).ok());

  rig.faults->InjectOnce(FaultSchedule::Op::kGet,
                         {FaultSchedule::Kind::kTransient});
  auto failed = rig.cache->Get(chunk.hash());
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError)
      << "transient error must surface as an error, not kNotFound";
  EXPECT_EQ(rig.cache->cache_stats().misses, 1u);

  // The error was not cached in either direction: the retry goes back to
  // the base (a second miss) and succeeds.
  auto retried = rig.cache->Get(chunk.hash());
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried->bytes().ToString(), chunk.bytes().ToString());
  auto stats = rig.cache->cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);

  // Now it is cached — served without another base round trip.
  ASSERT_TRUE(rig.cache->Get(chunk.hash()).ok());
  EXPECT_EQ(rig.cache->cache_stats().hits, 1u);
}

TEST(CacheErrorPropagation, BatchTransientErrorSurfacesPerMissSlot) {
  FlakyCacheRig rig;
  auto chunks = MakeChunks(3, 40);
  ASSERT_TRUE(rig.backend->PutMany(chunks).ok());
  // Warm one entry so the batch mixes a hit with two faulted misses.
  ASSERT_TRUE(rig.cache->Get(chunks[0].hash()).ok());

  std::vector<Hash256> ids{chunks[0].hash(), chunks[1].hash(),
                           chunks[2].hash()};
  rig.faults->InjectOnce(FaultSchedule::Op::kGetBatch,
                         {FaultSchedule::Kind::kTransient});
  auto slots = rig.cache->GetMany(ids);
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_TRUE(slots[0].ok()) << "cached hit must not be poisoned";
  for (size_t i = 1; i < 3; ++i) {
    ASSERT_FALSE(slots[i].ok()) << i;
    EXPECT_EQ(slots[i].status().code(), StatusCode::kIOError) << i;
  }

  // Fault cleared: the same batch fully resolves, re-fetching the two
  // failed slots (they were never negatively cached).
  auto retried = rig.cache->GetMany(ids);
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(retried[i].ok()) << i;
    EXPECT_EQ(retried[i]->bytes().ToString(),
              chunks[i].bytes().ToString());
  }
}

TEST(CacheErrorPropagation, BatchTimeoutSurfacesInEveryMissSlot) {
  FlakyCacheRig rig;
  auto chunks = MakeChunks(4, 41);
  ASSERT_TRUE(rig.backend->PutMany(chunks).ok());
  std::vector<Hash256> ids;
  for (const auto& c : chunks) ids.push_back(c.hash());

  rig.faults->InjectOnce(FaultSchedule::Op::kGetBatch,
                         {FaultSchedule::Kind::kTimeout});
  auto slots = rig.cache->GetMany(ids);
  ASSERT_EQ(slots.size(), ids.size());
  for (const auto& slot : slots) {
    ASSERT_FALSE(slot.ok());
    EXPECT_EQ(slot.status().code(), StatusCode::kIOError);
  }

  auto retried = rig.cache->GetMany(ids);
  for (size_t i = 0; i < retried.size(); ++i) {
    ASSERT_TRUE(retried[i].ok()) << i;
    EXPECT_EQ(retried[i]->hash(), ids[i]);
  }
}

TEST(CacheErrorPropagation, NotFoundIsNotNegativelyCached) {
  FlakyCacheRig rig;
  auto chunk = MakeTestChunk("late-arrival");
  auto miss = rig.cache->Get(chunk.hash());
  EXPECT_TRUE(miss.status().IsNotFound());
  // The chunk appears in the backend later (another writer); the cache must
  // see it on the next read.
  ASSERT_TRUE(rig.backend->Put(chunk).ok());
  auto found = rig.cache->Get(chunk.hash());
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->bytes().ToString(), chunk.bytes().ToString());
}

TEST(CacheErrorPropagation, DuplicateMissSlotsAllCarryTheError) {
  // In-batch duplicates of a faulted miss: every slot fed by the failed
  // fetch carries the error, and the deferred duplicate accounting counts
  // misses (the duplicate would have missed again), not hits.
  FlakyCacheRig rig;
  auto chunk = MakeTestChunk("dup-error");
  ASSERT_TRUE(rig.backend->Put(chunk).ok());
  std::vector<Hash256> ids{chunk.hash(), chunk.hash(), chunk.hash()};

  rig.faults->InjectOnce(FaultSchedule::Op::kGetBatch,
                         {FaultSchedule::Kind::kTransient});
  auto slots = rig.cache->GetMany(ids);
  ASSERT_EQ(slots.size(), 3u);
  for (const auto& slot : slots) {
    ASSERT_FALSE(slot.ok());
    EXPECT_EQ(slot.status().code(), StatusCode::kIOError);
  }
  auto stats = rig.cache->cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
}

}  // namespace
}  // namespace forkbase
