// The parallel and background pipeline: WorkerPool, TaskRound and the
// ordered fan-out, the base GetManyAsync's ready batch, diff and GC
// marking on a file store, and the group-commit queue. Every path is
// checked for result equivalence with a serial twin — the pipeline must
// change latency, never answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "chunk/file_chunk_store.h"
#include "chunk/mem_chunk_store.h"
#include "postree/diff.h"
#include "postree/tree.h"
#include "store/forkbase.h"
#include "store/gc.h"
#include "util/random.h"
#include "util/sha256.h"
#include "util/worker_pool.h"

namespace forkbase {
namespace {

std::vector<std::pair<std::string, std::string>> SortedKvs(size_t n,
                                                           uint64_t seed) {
  Rng rng(seed);
  std::map<std::string, std::string> sorted;
  while (sorted.size() < n) {
    sorted[rng.NextString(12)] = rng.NextString(24);
  }
  return {sorted.begin(), sorted.end()};
}

class ScopedDir {
 public:
  explicit ScopedDir(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {
    std::filesystem::remove_all(path_);
  }
  ~ScopedDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(WorkerPoolTest, RunsEverySubmittedTask) {
  WorkerPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.Shutdown();  // joins after draining
  EXPECT_EQ(ran.load(), 100);
}

TEST(WorkerPoolTest, ZeroThreadsRunsInline) {
  WorkerPool pool(0);
  bool ran = false;
  pool.Submit([&ran] { ran = true; });
  EXPECT_TRUE(ran);  // inline: completed before Submit returned
}

TEST(WorkerPoolTest, SubmitAfterShutdownRunsInline) {
  WorkerPool pool(1);
  pool.Submit([] {});
  pool.Shutdown();
  bool ran = false;
  pool.Submit([&ran] { ran = true; });
  EXPECT_TRUE(ran);
}

// Occupies every thread of `pool` until the returned release is called.
std::function<void()> BlockPool(WorkerPool* pool) {
  auto gate = std::make_shared<std::pair<std::atomic<size_t>,
                                         std::atomic<bool>>>(0, false);
  for (size_t t = 0; t < pool->thread_count(); ++t) {
    pool->Submit([gate] {
      gate->first.fetch_add(1);
      while (!gate->second.load()) std::this_thread::yield();
    });
  }
  while (gate->first.load() < pool->thread_count()) std::this_thread::yield();
  return [gate] { gate->second.store(true); };
}

TEST(TaskRoundTest, CallerFinishesTheRoundWhenEveryPoolThreadIsBlocked) {
  WorkerPool pool(2);
  auto release = BlockPool(&pool);
  std::vector<int> ran(50, 0);
  auto round =
      TaskRound::Start(&pool, ran.size(), [&ran](size_t i) { ++ran[i]; });
  round->Drain();
  round->Join();
  for (size_t i = 0; i < ran.size(); ++i) {
    EXPECT_TRUE(round->Done(i));
    EXPECT_EQ(ran[i], 1) << i;
  }
  release();
  pool.Shutdown();  // the late helpers find nothing left to claim
  EXPECT_EQ(std::count(ran.begin(), ran.end(), 1), 50);
}

TEST(TaskRoundTest, JoinEndsClaimingAndUnclaimedTasksNeverRun) {
  WorkerPool pool(1);
  auto release = BlockPool(&pool);
  std::atomic<int> ran{0};
  auto round = TaskRound::Start(&pool, 5, [&ran](size_t) { ++ran; });
  ASSERT_TRUE(round->RunOne());
  round->Join();
  EXPECT_FALSE(round->RunOne());
  release();
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_TRUE(round->Done(0));
  EXPECT_FALSE(round->Done(1));
}

TEST(TaskRoundTest, TasksMayStartRoundsOnTheirOwnPool) {
  // Every outer task hashes a batch through Sha256Many on the same pool:
  // with both pool threads inside outer tasks, an inner round's helpers
  // sit in the queue, and each inner caller must hash its batch alone.
  WorkerPool pool(2);
  std::vector<std::string> data;
  for (int i = 0; i < 16; ++i) data.push_back(std::string(100 + i, 'a' + i));
  const std::vector<Slice> spans(data.begin(), data.end());
  std::vector<Hash256> want;
  for (const Slice& s : spans) want.push_back(Sha256(s));
  std::vector<int> ok(32, 0);
  auto round = TaskRound::Start(&pool, ok.size(), [&](size_t i) {
    ok[i] = Sha256Many(spans, &pool) == want;
  });
  round->Drain();
  round->Join();
  EXPECT_EQ(std::count(ok.begin(), ok.end(), 1), 32);
}

TEST(OrderedFanOutTest, ConsumesResultsInIndexOrder) {
  WorkerPool pool(3);
  for (size_t count : {0, 1, 7, 8, 9, 16, 17, 100}) {
    SCOPED_TRACE("count " + std::to_string(count));
    std::vector<size_t> order;
    Status s = OrderedFanOut<std::string>(
        &pool, count, /*round_size=*/8,
        [](size_t i, std::string* out) {
          // Later tasks of a round tend to finish first.
          std::this_thread::sleep_for(std::chrono::microseconds(
              50 * (7 - i % 8)));
          *out = std::to_string(i);
        },
        [&](size_t i, std::string& result) -> Status {
          EXPECT_EQ(result, std::to_string(i));
          order.push_back(i);
          return Status::OK();
        });
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::vector<size_t> want(count);
    for (size_t i = 0; i < count; ++i) want[i] = i;
    EXPECT_EQ(order, want);
  }
}

TEST(OrderedFanOutTest, ConsumeErrorStopsAndNoProduceRunsAfterReturn) {
  WorkerPool pool(3);
  for (size_t k : {0, 1, 7, 8, 15, 16, 40, 99}) {
    SCOPED_TRACE("error at " + std::to_string(k));
    std::atomic<bool> returned{false};
    std::atomic<int> late_produces{0};
    size_t consumes = 0;
    Status s = OrderedFanOut(
        &pool, /*count=*/100, /*round_size=*/8,
        [&](size_t) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
          if (returned.load()) late_produces.fetch_add(1);
        },
        [&](size_t i) -> Status {
          ++consumes;
          return i == k ? Status::Unavailable("stop") : Status::OK();
        });
    returned.store(true);
    EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
    EXPECT_EQ(consumes, k + 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(late_produces.load(), 0) << "produce ran after return";
  }
  pool.Shutdown();  // the queued helpers find nothing left to claim
}

TEST(OrderedFanOutTest, CompletesWhileEveryPoolThreadIsBlocked) {
  WorkerPool pool(2);
  auto release = BlockPool(&pool);
  std::vector<int> produced(50, 0);
  size_t consumed = 0;
  Status s = OrderedFanOut(
      &pool, produced.size(), /*round_size=*/4,
      [&](size_t i) { ++produced[i]; },
      [&](size_t i) -> Status {
        EXPECT_EQ(produced[i], 1) << i;
        EXPECT_EQ(i, consumed++);
        return Status::OK();
      });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(consumed, produced.size());
  release();
  pool.Shutdown();
  EXPECT_EQ(std::count(produced.begin(), produced.end(), 1), 50);
}

TEST(OrderedFanOutTest, RunsFromATaskOnItsOwnPool) {
  // Every pool thread runs an outer task that fans out on the same pool,
  // so the inner helpers queue behind the outer tasks.
  WorkerPool pool(2);
  std::vector<int> ok(8, 0);
  auto round = TaskRound::Start(&pool, ok.size(), [&](size_t t) {
    std::vector<size_t> got;
    Status s = OrderedFanOut<size_t>(
        &pool, 40, /*round_size=*/4,
        [](size_t i, size_t* out) { *out = i * i; },
        [&](size_t i, size_t& square) -> Status {
          got.push_back(square == i * i ? i : SIZE_MAX);
          return Status::OK();
        });
    bool in_order = s.ok() && got.size() == 40;
    for (size_t i = 0; in_order && i < got.size(); ++i) {
      in_order = got[i] == i;
    }
    ok[t] = in_order;
  });
  round->Drain();
  round->Join();
  EXPECT_EQ(std::count(ok.begin(), ok.end(), 1), 8);
}

TEST(AsyncChunkBatchTest, DefaultStoreReturnsReadyBatches) {
  MemChunkStore store;
  Chunk a = Chunk::Make(ChunkType::kCell, "alpha");
  Chunk b = Chunk::Make(ChunkType::kCell, "beta");
  ASSERT_TRUE(store.Put(a).ok());
  ASSERT_TRUE(store.Put(b).ok());
  EXPECT_FALSE(store.SupportsAsyncGet());

  std::vector<Hash256> ids{a.hash(), Chunk::Make(ChunkType::kCell, "?").hash(),
                           b.hash()};
  AsyncChunkBatch batch = store.GetManyAsync(ids);
  ASSERT_TRUE(batch.valid());
  auto slots = batch.Take();
  EXPECT_FALSE(batch.valid());
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_EQ(slots[0]->payload().ToString(), "alpha");
  EXPECT_TRUE(slots[1].status().IsNotFound());
  EXPECT_EQ(slots[2]->payload().ToString(), "beta");
}

TEST(FileStoreDiffGcTest, DiffAndMarkMatchTheirReferences) {
  ScopedDir dir("fb_async_diff");
  auto store_or = FileChunkStore::Open(dir.path());
  ASSERT_TRUE(store_or.ok());
  auto& store = **store_or;

  auto kvs = SortedKvs(4000, 9);
  auto base_or = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  ASSERT_TRUE(base_or.ok());
  PosTree base(&store, ChunkType::kMapLeaf, base_or->root);
  Rng rng(10);
  std::vector<KeyedOp> ops;
  for (int i = 0; i < 40; ++i) {
    ops.push_back(KeyedOp{kvs[rng.Uniform(kvs.size())].first,
                          "edited-" + std::to_string(i)});
  }
  auto edited_or = base.ApplyKeyedOps(ops);
  ASSERT_TRUE(edited_or.ok());
  PosTree edited(&store, ChunkType::kMapLeaf, edited_or->root);

  auto deltas_or = DiffKeyed(base, edited);
  ASSERT_TRUE(deltas_or.ok());
  auto reference_or = DiffKeyedElementwise(base, edited);
  ASSERT_TRUE(reference_or.ok());
  ASSERT_EQ(deltas_or->size(), reference_or->size());
  for (size_t i = 0; i < deltas_or->size(); ++i) {
    EXPECT_EQ((*deltas_or)[i].key, (*reference_or)[i].key);
  }

  // MarkLive sweeps its waves on the hash pool; both roots' closures must
  // cover exactly the reachable chunk sets.
  auto live_or = MarkLive(store, {base.root(), edited.root()});
  ASSERT_TRUE(live_or.ok());
  std::vector<Hash256> reach_a, reach_b;
  ASSERT_TRUE(base.ReachableChunks(&reach_a).ok());
  ASSERT_TRUE(edited.ReachableChunks(&reach_b).ok());
  std::unordered_set<Hash256, Hash256Hasher> expect(reach_a.begin(),
                                                    reach_a.end());
  expect.insert(reach_b.begin(), reach_b.end());
  EXPECT_EQ(*live_or, expect);
}

TEST(GroupCommitTest, SingleThreadedSemanticsUnchanged) {
  ForkBase db(std::make_shared<MemChunkStore>());

  auto v1 = db.Put("k", Value::String("one"));
  ASSERT_TRUE(v1.ok());
  auto v2 = db.Put("k", Value::String("two"));
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(db.Get("k")->string_value(), "two");
  auto history = db.History("k");
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->size(), 2u);
  EXPECT_EQ((*history)[0].uid, *v2);
  EXPECT_EQ((*history)[1].uid, *v1);
  EXPECT_EQ((*history)[0].bases.front(), *v1);
  EXPECT_EQ(db.Stat().commits, 2u);
}

TEST(GroupCommitTest, FastForwardAdvancesThroughQueue) {
  ForkBase db(std::make_shared<MemChunkStore>());
  ASSERT_TRUE(db.PutMap("ff", {{"a", "1"}}).ok());
  ASSERT_TRUE(db.Branch("ff", "side").ok());
  ASSERT_TRUE(db.UpdateMap("ff", {KeyedOp{"b", "2"}}, "side").ok());
  ASSERT_TRUE(db.UpdateMap("ff", {KeyedOp{"c", "3"}}, "side").ok());
  Hash256 side_head = *db.Head("ff", "side");
  auto merged = db.Merge("ff", ForkBase::kDefaultBranch, "side");
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, side_head) << "ancestor head must fast-forward";
  EXPECT_EQ(*db.Head("ff"), side_head);
  auto history = db.History("ff");
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->size(), 3u);
}

TEST(GroupCommitTest, RacingMergesAndPutsLoseNoCommit) {
  // One writer hammers master; another repeatedly advances a side branch
  // and merges it in (fast-forward when master is quiescent, a real merge
  // commit otherwise). Every returned uid must stay reachable from the
  // final master head through the bases DAG — the queue's ordered
  // compare-and-advance must never discard a landed commit.
  ForkBase db(std::make_shared<MemChunkStore>());
  ASSERT_TRUE(db.PutMap("race", {{"seed", "0"}}).ok());
  ASSERT_TRUE(db.Branch("race", "side").ok());

  std::mutex mu;
  std::vector<Hash256> returned;
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int i = 0; i < 25; ++i) {
      auto uid = db.UpdateMap(
          "race", {KeyedOp{"w" + std::to_string(i), "x"}});
      if (!uid.ok()) {
        ++failures;
        return;
      }
      std::lock_guard<std::mutex> lock(mu);
      returned.push_back(*uid);
    }
  });
  std::thread merger([&] {
    for (int i = 0; i < 25; ++i) {
      auto uid = db.UpdateMap(
          "race", {KeyedOp{"s" + std::to_string(i), "y"}}, "side");
      auto merged = db.Merge("race", ForkBase::kDefaultBranch, "side");
      if (!uid.ok() || !merged.ok()) {
        ++failures;
        return;
      }
      std::lock_guard<std::mutex> lock(mu);
      returned.push_back(*uid);
    }
  });
  writer.join();
  merger.join();
  ASSERT_EQ(failures.load(), 0);

  // BFS the bases DAG from both final heads; every returned uid must be
  // reachable (side commits via side's head or the merges into master).
  std::unordered_set<Hash256, Hash256Hasher> reachable;
  std::vector<Hash256> frontier{*db.Head("race"), *db.Head("race", "side")};
  while (!frontier.empty()) {
    Hash256 uid = frontier.back();
    frontier.pop_back();
    if (!reachable.insert(uid).second) continue;
    auto meta = db.Meta(uid);
    ASSERT_TRUE(meta.ok());
    for (const auto& base : meta->bases) frontier.push_back(base);
  }
  for (const auto& uid : returned) {
    EXPECT_TRUE(reachable.count(uid))
        << "commit lost from the DAG: " << uid.ToBase32();
  }
}

TEST(GroupCommitTest, MergeRecordsBothParents) {
  ForkBase db(std::make_shared<MemChunkStore>());
  ASSERT_TRUE(db.PutMap("m", {{"a", "1"}, {"b", "2"}}).ok());
  ASSERT_TRUE(db.Branch("m", "side").ok());
  ASSERT_TRUE(db.UpdateMap("m", {KeyedOp{"a", "10"}}).ok());
  ASSERT_TRUE(db.UpdateMap("m", {KeyedOp{"c", "3"}}, "side").ok());
  auto merged = db.Merge("m", ForkBase::kDefaultBranch, "side");
  ASSERT_TRUE(merged.ok());
  auto meta = db.Meta(*merged);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->bases.size(), 2u);
  auto map = db.GetMap("m");
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(**map->Get("a"), "10");
  EXPECT_EQ(**map->Get("c"), "3");
}

}  // namespace
}  // namespace forkbase
