// ChunkStore conformance suite — one behavioral contract, every backend.
//
// Each test here is written against the ChunkStore interface only and is
// instantiated over every store stack in the tree: Mem, File, Caching (over
// File), Remote (simulated network over Mem), Tiered (File hot tier over a
// Remote cold backend, both write policies), and TieredBoundedWriteBack (a
// write-back tier under a deliberately tiny hot budget, so eviction,
// demotion and the dirty manifest churn beneath every test), and
// CompressedDeltaTieredWriteBack (both tiers writing LZ-compressed,
// delta-encoded FBC2 records), and AsyncFileTieredWriteBack (the stack
// ForkBase::Open builds: both file tiers with a prefetch worker). A new
// backend earns its place by adding a Traits struct to StoreTypes —
// nothing else.
//
// Covered contract points: scalar round trips, kNotFound for absent ids,
// GetMany slot ordering and per-slot missing ids, idempotent PutMany with
// in-batch duplicates, async/sync equivalence (GetManyAsync's Take must
// yield exactly what GetMany would), Contains, and a ForEach sweep that
// visits every resident chunk exactly once.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>

#include "chunk/caching_chunk_store.h"
#include "chunk/dirty_manifest.h"
#include "chunk/file_chunk_store.h"
#include "chunk/mem_chunk_store.h"
#include "chunk/tiered_chunk_store.h"
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

Hash256 AbsentId(uint64_t salt) {
  return Sha256(Slice("never-stored-" + std::to_string(salt)));
}

std::shared_ptr<ChunkStore> OpenFile(const std::string& dir) {
  auto store = FileChunkStore::Open(dir);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::shared_ptr<ChunkStore>(std::move(*store));
}

// ---- the nine store stacks -----------------------------------------------

struct MemStoreTraits {
  static constexpr const char* kName = "Mem";
  static std::shared_ptr<ChunkStore> Make(const std::string&) {
    return std::make_shared<MemChunkStore>();
  }
};

struct FileStoreTraits {
  static constexpr const char* kName = "File";
  static std::shared_ptr<ChunkStore> Make(const std::string& dir) {
    return OpenFile(dir + "/file");
  }
};

struct CachingStoreTraits {
  static constexpr const char* kName = "Caching";
  static std::shared_ptr<ChunkStore> Make(const std::string& dir) {
    return std::make_shared<CachingChunkStore>(OpenFile(dir + "/base"),
                                               1u << 20);
  }
};

struct RemoteStoreTraits {
  static constexpr const char* kName = "Remote";
  static std::shared_ptr<ChunkStore> Make(const std::string&) {
    RemoteChunkStore::Options options;
    options.connections = 1;
    return std::make_shared<RemoteChunkStore>(
        std::make_shared<MemChunkStore>(), options);
  }
};

std::shared_ptr<ChunkStore> MakeTiered(const std::string& dir,
                                       TierPolicy policy) {
  RemoteChunkStore::Options remote_options;
  remote_options.connections = 1;
  auto cold = std::make_shared<RemoteChunkStore>(OpenFile(dir + "/cold"),
                                                 remote_options);
  TieredChunkStore::Options options;
  options.policy = policy;
  options.background_demotion = false;  // deterministic in conformance runs
  return std::make_shared<TieredChunkStore>(OpenFile(dir + "/hot"),
                                            std::move(cold), options);
}

struct TieredWriteThroughTraits {
  static constexpr const char* kName = "TieredWriteThrough";
  static std::shared_ptr<ChunkStore> Make(const std::string& dir) {
    return MakeTiered(dir, TierPolicy::kWriteThrough);
  }
};

struct TieredWriteBackTraits {
  static constexpr const char* kName = "TieredWriteBack";
  static std::shared_ptr<ChunkStore> Make(const std::string& dir) {
    return MakeTiered(dir, TierPolicy::kWriteBack);
  }
};

struct TieredBoundedWriteBackTraits {
  // The 7th stack: a bounded write-back tier under a budget so small that
  // ordinary conformance traffic overflows it constantly — every test runs
  // with background demotion, LRU eviction and segment rewrite churning
  // underneath, plus the persistent dirty manifest journaling beside the
  // hot segments. The contract must hold anyway: eviction changes
  // placement, never content.
  static constexpr const char* kName = "TieredBoundedWriteBack";
  static std::shared_ptr<ChunkStore> Make(const std::string& dir) {
    RemoteChunkStore::Options remote_options;
    remote_options.connections = 1;
    auto cold = std::make_shared<RemoteChunkStore>(OpenFile(dir + "/cold"),
                                                   remote_options);
    auto manifest = DirtyManifest::Open(dir + "/hot");
    EXPECT_TRUE(manifest.ok());
    TieredChunkStore::Options options;
    options.policy = TierPolicy::kWriteBack;
    options.background_demotion = true;
    options.write_back_watermark = 8;
    options.demote_batch = 8;
    options.hot_bytes_budget = 4096;  // a handful of 64-byte chunks
    options.evict_batch = 8;
    options.dirty_manifest = std::shared_ptr<DirtyManifest>(
        std::move(*manifest));
    FileChunkStore::Options hot_options;
    hot_options.segment_bytes = 2048;  // several segments inside the budget
    auto hot = FileChunkStore::Open(dir + "/hot", hot_options);
    EXPECT_TRUE(hot.ok());
    return std::make_shared<TieredChunkStore>(
        std::shared_ptr<ChunkStore>(std::move(*hot)), std::move(cold),
        std::move(options));
  }
};

struct CompressedDeltaTieredTraits {
  // The 8th stack: every storage-representation feature at once. The hot
  // tier writes LZ-compressed and delta-encoded (FBC2) records under a
  // write-back tiered store, so demotion reads chunks whose physical form
  // is a chain link or a compressed block and forwards them to a cold
  // FileChunkStore running the same encoding. The contract is the point:
  // record encoding changes the bytes on disk, never the bytes a Get
  // returns.
  static constexpr const char* kName = "CompressedDeltaTieredWriteBack";
  static std::shared_ptr<ChunkStore> Make(const std::string& dir) {
    FileChunkStore::Options encoded;
    encoded.segment_bytes = 2048;  // several segments even in small tests
    encoded.compression = FileChunkStore::Compression::kLz;
    encoded.delta_chain_depth = 3;
    encoded.delta_window = 8;
    auto cold = FileChunkStore::Open(dir + "/cold", encoded);
    EXPECT_TRUE(cold.ok());
    auto hot = FileChunkStore::Open(dir + "/hot", encoded);
    EXPECT_TRUE(hot.ok());
    TieredChunkStore::Options options;
    options.policy = TierPolicy::kWriteBack;
    options.background_demotion = false;
    return std::make_shared<TieredChunkStore>(
        std::shared_ptr<ChunkStore>(std::move(*hot)),
        std::shared_ptr<ChunkStore>(std::move(*cold)), std::move(options));
  }
};

struct AsyncFileTieredTraits {
  // The 9th stack: the tiered stack ForkBase::Open builds, where both file
  // tiers read through a prefetch worker — the one stack whose hot tier
  // reads asynchronously.
  static constexpr const char* kName = "AsyncFileTieredWriteBack";
  static std::shared_ptr<ChunkStore> Make(const std::string& dir) {
    FileChunkStore::Options prefetching;
    prefetching.prefetch_threads = 1;
    auto cold = FileChunkStore::Open(dir + "/cold", prefetching);
    EXPECT_TRUE(cold.ok());
    auto hot = FileChunkStore::Open(dir + "/hot", prefetching);
    EXPECT_TRUE(hot.ok());
    TieredChunkStore::Options options;
    options.policy = TierPolicy::kWriteBack;
    return std::make_shared<TieredChunkStore>(
        std::shared_ptr<ChunkStore>(std::move(*hot)),
        std::shared_ptr<ChunkStore>(std::move(*cold)), std::move(options));
  }
};

using StoreTypes =
    ::testing::Types<MemStoreTraits, FileStoreTraits, CachingStoreTraits,
                     RemoteStoreTraits, TieredWriteThroughTraits,
                     TieredWriteBackTraits, TieredBoundedWriteBackTraits,
                     CompressedDeltaTieredTraits, AsyncFileTieredTraits>;

class TraitsNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    return T::kName;
  }
};

template <typename Traits>
class StoreConformanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fb_conformance_" + Traits::kName;
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    store_ = Traits::Make(dir_);
    ASSERT_NE(store_, nullptr);
  }
  void TearDown() override {
    store_.reset();
    std::filesystem::remove_all(dir_);
  }

  ChunkStore& store() { return *store_; }

  std::string dir_;
  std::shared_ptr<ChunkStore> store_;
};

TYPED_TEST_SUITE(StoreConformanceTest, StoreTypes, TraitsNames);

// ---- scalar contract ------------------------------------------------------

TYPED_TEST(StoreConformanceTest, PutGetRoundTrip) {
  auto chunks = MakeChunks(4, 101);
  for (const auto& chunk : chunks) {
    ASSERT_TRUE(this->store().Put(chunk).ok());
  }
  for (const auto& chunk : chunks) {
    EXPECT_TRUE(this->store().Contains(chunk.hash()));
    auto got = this->store().Get(chunk.hash());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->bytes().ToString(), chunk.bytes().ToString());
    EXPECT_EQ(got->hash(), chunk.hash());
  }
}

TYPED_TEST(StoreConformanceTest, MissingIdIsNotFound) {
  const Hash256 absent = AbsentId(1);
  EXPECT_FALSE(this->store().Contains(absent));
  auto got = this->store().Get(absent);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsNotFound()) << got.status().ToString();
}

TYPED_TEST(StoreConformanceTest, PutIsIdempotent) {
  auto chunks = MakeChunks(3, 102);
  ASSERT_TRUE(this->store().PutMany(chunks).ok());
  const uint64_t count_before = this->store().stats().chunk_count;
  ASSERT_TRUE(this->store().PutMany(chunks).ok());
  for (const auto& chunk : chunks) {
    ASSERT_TRUE(this->store().Put(chunk).ok());
  }
  EXPECT_EQ(this->store().stats().chunk_count, count_before);
  for (const auto& chunk : chunks) {
    EXPECT_TRUE(this->store().Get(chunk.hash()).ok());
  }
}

// ---- batched contract -----------------------------------------------------

TYPED_TEST(StoreConformanceTest, GetManyPreservesOrderAndFlagsMissing) {
  auto chunks = MakeChunks(6, 103);
  ASSERT_TRUE(this->store().PutMany(chunks).ok());
  std::vector<Hash256> ids;
  for (const auto& chunk : chunks) ids.push_back(chunk.hash());
  ids.insert(ids.begin(), AbsentId(2));
  ids.insert(ids.begin() + 3, AbsentId(3));
  ids.push_back(AbsentId(4));
  auto slots = this->store().GetMany(ids);
  ASSERT_EQ(slots.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i == 0 || i == 3 || i + 1 == ids.size()) {
      EXPECT_TRUE(slots[i].status().IsNotFound()) << i;
    } else {
      ASSERT_TRUE(slots[i].ok()) << i << ": " << slots[i].status().ToString();
      EXPECT_EQ(slots[i]->hash(), ids[i]) << i;
    }
  }
}

TYPED_TEST(StoreConformanceTest, PutManyInBatchDuplicatesLandOnce) {
  auto base = MakeChunks(4, 104);
  std::vector<Chunk> batch = {base[0], base[1], base[0], base[2],
                              base[1], base[3], base[0]};
  ASSERT_TRUE(this->store().PutMany(batch).ok());
  EXPECT_EQ(this->store().stats().chunk_count, 4u);
  for (const auto& chunk : base) {
    auto got = this->store().Get(chunk.hash());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->bytes().ToString(), chunk.bytes().ToString());
  }
}

TYPED_TEST(StoreConformanceTest, GetManyServesInBatchDuplicateIds) {
  auto chunks = MakeChunks(3, 105);
  ASSERT_TRUE(this->store().PutMany(chunks).ok());
  std::vector<Hash256> ids = {chunks[0].hash(), chunks[1].hash(),
                              chunks[0].hash(), chunks[2].hash(),
                              chunks[0].hash()};
  auto slots = this->store().GetMany(ids);
  ASSERT_EQ(slots.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(slots[i].ok()) << i;
    EXPECT_EQ(slots[i]->hash(), ids[i]) << i;
  }
}

TYPED_TEST(StoreConformanceTest, ScalarAndBatchedGetAgree) {
  auto chunks = MakeChunks(5, 106);
  ASSERT_TRUE(this->store().PutMany(chunks).ok());
  std::vector<Hash256> ids;
  for (const auto& chunk : chunks) ids.push_back(chunk.hash());
  ids.push_back(AbsentId(5));
  auto slots = this->store().GetMany(ids);
  ASSERT_EQ(slots.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto scalar = this->store().Get(ids[i]);
    EXPECT_EQ(scalar.ok(), slots[i].ok()) << i;
    if (scalar.ok() && slots[i].ok()) {
      EXPECT_EQ(scalar->bytes().ToString(), slots[i]->bytes().ToString());
    } else {
      EXPECT_EQ(scalar.status().code(), slots[i].status().code()) << i;
    }
  }
}

// ---- async contract -------------------------------------------------------

TYPED_TEST(StoreConformanceTest, AsyncBatchMatchesSync) {
  auto chunks = MakeChunks(32, 107);
  ASSERT_TRUE(this->store().PutMany(chunks).ok());
  std::vector<Hash256> ids;
  for (const auto& chunk : chunks) ids.push_back(chunk.hash());
  ids.insert(ids.begin() + 7, AbsentId(6));
  ids.push_back(AbsentId(7));

  auto handle = this->store().GetManyAsync(ids);
  ASSERT_TRUE(handle.valid());
  auto sync_slots = this->store().GetMany(ids);
  auto async_slots = handle.Take();
  ASSERT_EQ(async_slots.size(), sync_slots.size());
  for (size_t i = 0; i < sync_slots.size(); ++i) {
    EXPECT_EQ(async_slots[i].ok(), sync_slots[i].ok()) << i;
    if (async_slots[i].ok() && sync_slots[i].ok()) {
      EXPECT_EQ(async_slots[i]->bytes().ToString(),
                sync_slots[i]->bytes().ToString());
    } else if (!async_slots[i].ok() && !sync_slots[i].ok()) {
      EXPECT_EQ(async_slots[i].status().code(), sync_slots[i].status().code());
    }
  }
}

// ---- enumeration ----------------------------------------------------------

TYPED_TEST(StoreConformanceTest, ForEachVisitsEveryChunkExactlyOnce) {
  auto chunks = MakeChunks(20, 108);
  ASSERT_TRUE(this->store().PutMany(chunks).ok());
  std::map<std::string, int> visits;  // base32 id -> count
  this->store().ForEach([&](const Hash256& id, const Chunk& chunk) {
    EXPECT_EQ(chunk.hash(), id);
    ++visits[id.ToBase32()];
  });
  ASSERT_EQ(visits.size(), chunks.size());
  for (const auto& chunk : chunks) {
    auto it = visits.find(chunk.hash().ToBase32());
    ASSERT_NE(it, visits.end());
    EXPECT_EQ(it->second, 1) << chunk.hash().ToBase32();
  }
}

TYPED_TEST(StoreConformanceTest, LargeBatchRoundTrip) {
  // Crosses kChunkSweepBatch and FileChunkStore's batch publish path.
  auto chunks = MakeChunks(300, 109, 48);
  ASSERT_TRUE(this->store().PutMany(chunks).ok());
  std::vector<Hash256> ids;
  for (const auto& chunk : chunks) ids.push_back(chunk.hash());
  auto slots = this->store().GetMany(ids);
  ASSERT_EQ(slots.size(), ids.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    ASSERT_TRUE(slots[i].ok()) << i;
    EXPECT_EQ(slots[i]->hash(), ids[i]);
  }
  EXPECT_EQ(this->store().stats().chunk_count, chunks.size());
}

}  // namespace
}  // namespace forkbase
