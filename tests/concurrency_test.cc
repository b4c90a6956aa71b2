// Thread-safety tests: concurrent chunk-store access, parallel ForkBase
// writers on distinct keys/branches, and concurrent readers during writes.
// Chunk immutability makes most of this easy — these tests guard the
// mutable edges (store maps, stats, branch table).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "chunk/caching_chunk_store.h"
#include "chunk/file_chunk_store.h"
#include "chunk/mem_chunk_store.h"
#include "postree/tree.h"
#include "store/forkbase.h"
#include "types/table.h"
#include "util/datagen.h"
#include "util/random.h"

namespace forkbase {
namespace {

constexpr int kThreads = 8;
constexpr int kOpsPerThread = 200;

TEST(ConcurrencyTest, ParallelPutsToMemStore) {
  MemChunkStore store;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &failures, t] {
      Rng rng(t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Half the chunks collide across threads (same content) to
        // exercise the dedup path concurrently.
        std::string payload = i % 2 ? rng.NextBytes(100)
                                    : "shared-" + std::to_string(i);
        Chunk chunk = Chunk::Make(ChunkType::kCell, payload);
        if (!store.Put(chunk).ok()) ++failures;
        auto got = store.Get(chunk.hash());
        if (!got.ok() || got->payload().ToString() != payload) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  ChunkStoreStats stats = store.stats();
  EXPECT_EQ(stats.put_calls, static_cast<uint64_t>(kThreads * kOpsPerThread));
  EXPECT_EQ(stats.chunk_count + stats.dedup_hits, stats.put_calls);
}

TEST(ConcurrencyTest, ParallelPutsThroughCache) {
  auto base = std::make_shared<MemChunkStore>();
  CachingChunkStore cache(base, 16 * 1024);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &failures, t] {
      Rng rng(100 + t);
      std::vector<Hash256> mine;
      for (int i = 0; i < kOpsPerThread; ++i) {
        Chunk chunk = Chunk::Make(ChunkType::kCell, rng.NextBytes(256));
        if (!cache.Put(chunk).ok()) ++failures;
        mine.push_back(chunk.hash());
        // Re-read a random earlier chunk (may be evicted -> base fetch).
        const Hash256& probe = mine[rng.Uniform(mine.size())];
        if (!cache.Get(probe).ok()) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrencyTest, ShardedLruEvictionUnderConcurrentAccess) {
  // Small per-shard budgets force continuous eviction while all threads
  // hammer Get/Put across every shard. Guards the per-shard accounting
  // (resident_bytes, list/map agreement) under contention.
  auto base = std::make_shared<MemChunkStore>();
  CachingChunkStore cache(base, 32 * 1024, /*shards=*/8);
  ASSERT_EQ(cache.shard_count(), 8u);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &failures, t] {
      Rng rng(500 + t);
      std::vector<Hash256> mine;
      for (int i = 0; i < kOpsPerThread; ++i) {
        Chunk chunk = Chunk::Make(ChunkType::kCell, rng.NextBytes(512));
        if (!cache.Put(chunk).ok()) ++failures;
        mine.push_back(chunk.hash());
        // Batch-read a window of earlier chunks: some cached, most evicted
        // (refilled from base through the batched miss path).
        if (i % 8 == 7) {
          size_t n = std::min<size_t>(mine.size(), 16);
          std::vector<Hash256> probe(mine.end() - n, mine.end());
          for (const auto& r : cache.GetMany(probe)) {
            if (!r.ok()) ++failures;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  auto cstats = cache.cache_stats();
  EXPECT_GT(cstats.evictions, 0u);
  // Bound: capacity plus at most one max-sized chunk overshoot per shard
  // (each shard always retains its most recent insert).
  EXPECT_LE(cstats.resident_bytes, 32u * 1024u + 8u * 513u);
}

TEST(ConcurrencyTest, ConcurrentBatchedFileStoreOps) {
  const std::string dir = ::testing::TempDir() + "/fb_conc_batch";
  std::filesystem::remove_all(dir);
  auto store_or = FileChunkStore::Open(dir);
  ASSERT_TRUE(store_or.ok());
  auto& store = **store_or;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &failures, t] {
      Rng rng(900 + t);
      for (int round = 0; round < 10; ++round) {
        std::vector<Chunk> batch;
        for (int i = 0; i < 20; ++i) {
          // Half the content collides across threads to race the
          // append-lock re-check that prevents duplicate records.
          std::string payload =
              i % 2 ? rng.NextBytes(128)
                    : "shared-" + std::to_string(round) + "-" +
                          std::to_string(i);
          batch.push_back(Chunk::Make(ChunkType::kCell, payload));
        }
        if (!store.PutMany(batch).ok()) ++failures;
        std::vector<Hash256> ids;
        for (const auto& c : batch) ids.push_back(c.hash());
        auto results = store.GetMany(ids);
        for (size_t i = 0; i < results.size(); ++i) {
          if (!results[i].ok() ||
              results[i]->bytes().ToString() != batch[i].bytes().ToString()) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  ChunkStoreStats stats = store.stats();
  EXPECT_EQ(stats.put_calls,
            static_cast<uint64_t>(kThreads) * 10u * 20u);
  // Every put either created a chunk or hit dedup; nothing was lost.
  EXPECT_EQ(stats.chunk_count + stats.dedup_hits, stats.put_calls);
  // Racing writers must not have appended duplicate records: with one
  // 40-byte header per record, the bytes on disk must equal exactly one
  // record per distinct chunk.
  uint64_t on_disk = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".fbc") on_disk += entry.file_size();
  }
  EXPECT_EQ(on_disk, stats.physical_bytes + 40u * stats.chunk_count);
  std::filesystem::remove_all(dir);
}

TEST(ConcurrencyTest, DedupRacePersistsNoDuplicateRecords) {
  // All threads put the SAME batch; after a reopen the on-disk record count
  // must equal the distinct chunk count.
  const std::string dir = ::testing::TempDir() + "/fb_dedup_race";
  std::filesystem::remove_all(dir);
  std::vector<Chunk> batch;
  Rng rng(77);
  for (int i = 0; i < 50; ++i) {
    batch.push_back(Chunk::Make(ChunkType::kCell, rng.NextBytes(100)));
  }
  {
    auto store_or = FileChunkStore::Open(dir);
    ASSERT_TRUE(store_or.ok());
    auto& store = **store_or;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&store, &batch, &failures] {
        if (!store.PutMany(batch).ok()) ++failures;
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(store.stats().chunk_count, 50u);
  }
  // Duplicate appended records would show up directly in the segment size:
  // exactly 50 records of header (40) + tag+payload (101) must exist.
  EXPECT_EQ(std::filesystem::file_size(dir + "/segment-0.fbc"),
            50u * (40u + 101u));
  auto reopened_or = FileChunkStore::Open(dir);
  ASSERT_TRUE(reopened_or.ok());
  EXPECT_EQ((*reopened_or)->stats().chunk_count, 50u);
  std::filesystem::remove_all(dir);
}

TEST(ConcurrencyTest, ParallelForkBaseWritersDistinctKeys) {
  ForkBase db(std::make_shared<MemChunkStore>());
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, &failures, t] {
      std::string key = "key-" + std::to_string(t);
      for (int i = 0; i < 50; ++i) {
        if (!db.Put(key, Value::String("v" + std::to_string(i))).ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(db.ListKeys().size(), static_cast<size_t>(kThreads));
  for (int t = 0; t < kThreads; ++t) {
    std::string key = "key-" + std::to_string(t);
    auto history = db.History(key);
    ASSERT_TRUE(history.ok());
    EXPECT_EQ(history->size(), 50u) << key;
    EXPECT_EQ(db.Get(key)->string_value(), "v49");
  }
}

TEST(ConcurrencyTest, ParallelBranchWritersOneKey) {
  ForkBase db(std::make_shared<MemChunkStore>());
  ASSERT_TRUE(db.PutMap("shared", {{"seed", "0"}}).ok());
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(db.Branch("shared", "b" + std::to_string(t)).ok());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, &failures, t] {
      std::string branch = "b" + std::to_string(t);
      for (int i = 0; i < 25; ++i) {
        auto map = db.GetMap("shared", branch);
        if (!map.ok()) {
          ++failures;
          return;
        }
        auto edited = map->Set("k" + std::to_string(t), std::to_string(i));
        if (!edited.ok() ||
            !db.Put("shared", Value::OfMap(edited->root()), branch).ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    auto map = db.GetMap("shared", "b" + std::to_string(t));
    ASSERT_TRUE(map.ok());
    EXPECT_EQ(**map->Get("k" + std::to_string(t)), "24");
  }
}

TEST(ConcurrencyTest, ReadersDuringWrites) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  auto seed_kvs = std::vector<std::pair<std::string, std::string>>();
  Rng rng(55);
  for (int i = 0; i < 2000; ++i) {
    seed_kvs.emplace_back(rng.NextString(10), rng.NextString(10));
  }
  ASSERT_TRUE(db.PutMap("live", seed_kvs).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int i = 0; i < 100; ++i) {
      auto map = db.GetMap("live");
      if (!map.ok()) {
        ++failures;
        break;
      }
      auto edited = map->Set("hot-key", std::to_string(i));
      if (!edited.ok() ||
          !db.Put("live", Value::OfMap(edited->root())).ok()) {
        ++failures;
        break;
      }
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop) {
        auto map = db.GetMap("live");
        if (!map.ok()) {
          ++failures;
          return;
        }
        // A snapshot read must always see a consistent tree.
        auto size = map->Size();
        if (!size.ok() || *size < 2000) {
          ++failures;
          return;
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(**db.GetMap("live")->Get("hot-key"), "99");
}

TEST(ConcurrencyTest, BulkLoadsShareTheHashPoolWithVerifyAndPutMany) {
  // Four table loads fan their segments out over the shared hash pool while
  // a Verify loop (its level walk re-hashes through the same pool) and a
  // PutMany loop (whose hash precompute submits to it too) keep it busy.
  // Every call must complete, and every load must give its serial root.
  constexpr int kLoads = 4;
  std::vector<CsvDocument> docs;
  std::vector<Hash256> serial;
  for (int t = 0; t < kLoads; ++t) {
    CsvGenOptions opts;
    opts.seed = 100 + t;
    opts.num_rows = 20000;
    docs.push_back(GenerateCsv(opts));
    MemChunkStore alone;
    auto table = FTable::FromCsv(&alone, docs.back());
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    serial.push_back(table->id());
  }
  ForkBase db(std::make_shared<MemChunkStore>());
  auto verified = db.PutTableFromCsv("verified", docs[0]);
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread verifier([&] {
    do {
      if (!db.Verify(*verified).ok()) ++failures;
    } while (!stop);
  });
  std::thread putter([&] {
    Rng rng(9);
    do {
      std::vector<Chunk> batch;
      for (int i = 0; i < 64; ++i) {
        batch.push_back(Chunk::Make(ChunkType::kCell, rng.NextBytes(512)));
      }
      if (!db.store()->PutMany(batch).ok()) ++failures;
    } while (!stop);
  });
  std::vector<Hash256> roots(kLoads);
  std::vector<std::thread> loaders;
  for (int t = 0; t < kLoads; ++t) {
    loaders.emplace_back([&, t] {
      auto table = FTable::FromCsv(db.store(), docs[t]);
      if (table.ok()) {
        roots[t] = table->id();
      } else {
        ++failures;
      }
    });
  }
  for (auto& t : loaders) t.join();
  stop = true;
  verifier.join();
  putter.join();
  EXPECT_EQ(failures.load(), 0);
  for (int t = 0; t < kLoads; ++t) EXPECT_EQ(roots[t], serial[t]) << t;
}

TEST(ConcurrencyTest, GroupCommitSameBranchLinearizesRacingPuts) {
  // N threads hammer Put on ONE key+branch of a default store. Bases are
  // resolved at drain time, so every commit chains onto the previous one:
  // the final history must contain all N*M versions, ending at the
  // published head — a linearizable total order, not last-writer-wins.
  const std::string dir = ::testing::TempDir() + "/fb_group_same_branch";
  std::filesystem::remove_all(dir);
  constexpr int kWriters = 8;
  constexpr int kCommits = 100;
  std::vector<Hash256> uids[kWriters];
  {
    auto db_or = ForkBase::Open(dir);
    ASSERT_TRUE(db_or.ok());
    ForkBase& db = **db_or;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kWriters; ++t) {
      threads.emplace_back([&db, &failures, &uids, t] {
        for (int i = 0; i < kCommits; ++i) {
          auto uid = db.Put("hot", Value::String(std::to_string(t * 1000 + i)));
          if (uid.ok()) {
            uids[t].push_back(*uid);
          } else {
            ++failures;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_EQ(failures.load(), 0);

    auto history = db.History("hot");
    ASSERT_TRUE(history.ok());
    EXPECT_EQ(history->size(),
              static_cast<size_t>(kWriters) * kCommits);
    std::unordered_set<Hash256, Hash256Hasher> in_history;
    for (const auto& info : *history) in_history.insert(info.uid);
    for (int t = 0; t < kWriters; ++t) {
      for (const auto& uid : uids[t]) {
        EXPECT_TRUE(in_history.count(uid)) << "lost commit of writer " << t;
      }
    }
    // Within one writer, its own commits appear in program order along the
    // chain (a writer only enqueues its next Put after the previous one
    // returned, so drain order respects per-thread order).
    std::unordered_map<Hash256, size_t, Hash256Hasher> depth;
    for (size_t i = 0; i < history->size(); ++i) {
      depth[(*history)[i].uid] = history->size() - i;
    }
    for (int t = 0; t < kWriters; ++t) {
      for (size_t i = 1; i < uids[t].size(); ++i) {
        EXPECT_LT(depth[uids[t][i - 1]], depth[uids[t][i]]);
      }
    }
    EXPECT_EQ(db.Head("hot")->ToBase32(), history->front().uid.ToBase32());
    EXPECT_EQ(db.Stat().commits,
              static_cast<uint64_t>(kWriters) * kCommits);
  }
  std::filesystem::remove_all(dir);
}

TEST(ConcurrencyTest, GroupCommitDistinctBranchesKeepIndependentChains) {
  const std::string dir = ::testing::TempDir() + "/fb_group_branches";
  std::filesystem::remove_all(dir);
  constexpr int kWriters = 4;
  constexpr int kCommits = 40;
  {
    auto db_or = ForkBase::Open(dir);
    ASSERT_TRUE(db_or.ok());
    ForkBase& db = **db_or;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    std::vector<Hash256> last(kWriters);
    for (int t = 0; t < kWriters; ++t) {
      threads.emplace_back([&db, &failures, &last, t] {
        const std::string branch = "b" + std::to_string(t);
        for (int i = 0; i < kCommits; ++i) {
          auto uid = db.Put("key", Value::String(std::to_string(i)), branch);
          if (!uid.ok()) {
            ++failures;
            return;
          }
          last[t] = *uid;
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_EQ(failures.load(), 0);
    for (int t = 0; t < kWriters; ++t) {
      const std::string branch = "b" + std::to_string(t);
      auto history = db.History("key", branch);
      ASSERT_TRUE(history.ok());
      EXPECT_EQ(history->size(), static_cast<size_t>(kCommits)) << branch;
      EXPECT_EQ(history->front().uid, last[t]) << branch;
      EXPECT_EQ(db.Get("key", branch)->string_value(),
                std::to_string(kCommits - 1));
    }
    EXPECT_GT(db.Stat().commit_queue.batches, 1u);
  }
  std::filesystem::remove_all(dir);
}

TEST(ConcurrencyTest, RacingPutIfsOnOneHeadHaveExactlyOneWinner) {
  // Each round, kWriters threads release together and PutIf against the
  // same expected head. Compare-and-set means exactly one lands; every
  // other writer must get kAlreadyExists and write nothing.
  const std::string dir = ::testing::TempDir() + "/fb_putif_race";
  std::filesystem::remove_all(dir);
  constexpr int kWriters = 8;
  constexpr int kRounds = 200;
  {
    auto db_or = ForkBase::Open(dir);
    ASSERT_TRUE(db_or.ok());
    ForkBase& db = **db_or;
    auto seed = db.Put("cas", Value::String("seed"));
    ASSERT_TRUE(seed.ok());
    Hash256 head = *seed;
    for (int round = 0; round < kRounds; ++round) {
      std::atomic<int> ready{0};
      std::atomic<int> winners{0};
      std::atomic<int> conflicts{0};
      std::vector<std::thread> threads;
      for (int t = 0; t < kWriters; ++t) {
        threads.emplace_back([&, t] {
          ready.fetch_add(1);
          while (ready.load() < kWriters) std::this_thread::yield();
          auto uid = db.PutIf(
              "cas", Value::String(std::to_string(round * 100 + t)), head);
          if (uid.ok()) {
            ++winners;
          } else if (uid.status().code() == StatusCode::kAlreadyExists) {
            ++conflicts;
          }
        });
      }
      for (auto& t : threads) t.join();
      ASSERT_EQ(winners.load(), 1) << "round " << round;
      ASSERT_EQ(conflicts.load(), kWriters - 1) << "round " << round;
      auto new_head = db.Head("cas");
      ASSERT_TRUE(new_head.ok());
      ASSERT_EQ(db.Meta(*new_head)->bases, std::vector<Hash256>{head});
      head = *new_head;
    }
    auto history = db.History("cas");
    ASSERT_TRUE(history.ok());
    EXPECT_EQ(history->size(), static_cast<size_t>(kRounds) + 1);
    EXPECT_EQ(db.Stat().commits, static_cast<uint64_t>(kRounds) + 1);
  }
  std::filesystem::remove_all(dir);
}

TEST(ConcurrencyTest, ConcurrentAsyncScansShareOnePrefetchPool) {
  // Multiple cursors double-buffering through the same store's pool: every
  // scan must see its full, ordered entry stream.
  const std::string dir = ::testing::TempDir() + "/fb_conc_scan";
  std::filesystem::remove_all(dir);
  {
    FileChunkStore::Options options;
    options.prefetch_threads = 1;  // bare stores default to synchronous
    auto store_or = FileChunkStore::Open(dir, options);
    ASSERT_TRUE(store_or.ok());
    auto& store = **store_or;
    std::map<std::string, std::string> sorted;
    Rng rng(321);
    while (sorted.size() < 4000) {
      sorted[rng.NextString(12)] = rng.NextString(16);
    }
    std::vector<std::pair<std::string, std::string>> kvs(sorted.begin(),
                                                         sorted.end());
    auto built = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
    ASSERT_TRUE(built.ok());
    PosTree tree(&store, ChunkType::kMapLeaf, built->root);
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&tree, &kvs, &failures] {
        size_t i = 0;
        Status s = tree.Scan([&](const EntryView& e) {
          if (i >= kvs.size() || e.key.ToString() != kvs[i].first) {
            return Status::Corruption("out-of-order scan");
          }
          ++i;
          return Status::OK();
        });
        if (!s.ok() || i != kvs.size()) ++failures;
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace forkbase
