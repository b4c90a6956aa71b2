// Tests for the garbage collector: mark reachability, copy collection,
// garbage identification after branch deletion, history retention, and the
// in-place sweep (space reclaim, racing commits, resurrection guard).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <unordered_set>

#include "chunk/file_chunk_store.h"
#include "chunk/mem_chunk_store.h"
#include "chunk/tiered_chunk_store.h"
#include "store/gc.h"
#include "util/datagen.h"
#include "util/random.h"

namespace forkbase {
namespace {

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

TEST(GcTest, MarkLiveCoversValueTreeAndHistory) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  auto v1 = db.PutMap("k", {{"a", "1"}, {"b", "2"}});
  auto v2 = db.PutMap("k", {{"a", "1"}, {"b", "3"}});
  ASSERT_TRUE(v1.ok() && v2.ok());
  auto live = MarkLive(*store, {*v2});
  ASSERT_TRUE(live.ok());
  // Both FNodes (history!) plus both map roots must be live.
  EXPECT_TRUE(live->count(*v1));
  EXPECT_TRUE(live->count(*v2));
  auto map1 = db.GetVersion(*v1);
  auto map2 = db.GetVersion(*v2);
  ASSERT_TRUE(map1.ok() && map2.ok());
  EXPECT_TRUE(live->count(map1->root()));
  EXPECT_TRUE(live->count(map2->root()));
}

TEST(GcTest, MarkLiveFailsOnMissingRoot) {
  MemChunkStore store;
  EXPECT_FALSE(MarkLive(store, {Sha256(Slice("ghost"))}).ok());
}

TEST(GcTest, NoGarbageWhileEverythingReferenced) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  CsvGenOptions opts;
  opts.num_rows = 500;
  ASSERT_TRUE(db.PutTableFromCsv("ds", GenerateCsv(opts)).ok());
  ASSERT_TRUE(db.Branch("ds", "dev").ok());
  auto garbage = FindGarbage(db);
  ASSERT_TRUE(garbage.ok());
  EXPECT_TRUE(garbage->empty());
}

TEST(GcTest, DeletedBranchCreatesGarbage) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  CsvGenOptions opts;
  opts.num_rows = 1000;
  ASSERT_TRUE(db.PutTableFromCsv("ds", GenerateCsv(opts)).ok());
  ASSERT_TRUE(db.Branch("ds", "scratch").ok());
  // Large divergent edit on the scratch branch.
  auto table = db.GetTable("ds", "scratch");
  ASSERT_TRUE(table.ok());
  FTable current = *table;
  for (int i = 0; i < 200; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "r%08d", i);
    auto next = current.UpdateCell(key, 2, "scratch-" + std::to_string(i));
    ASSERT_TRUE(next.ok());
    current = *next;
  }
  ASSERT_TRUE(
      db.Put("ds", Value::OfTable(current.id()), "scratch").ok());

  auto garbage_before = FindGarbage(db);
  ASSERT_TRUE(garbage_before.ok());
  // Intermediate FTable states of the loop are unreferenced already.
  ASSERT_TRUE(db.DeleteBranch("ds", "scratch").ok());
  auto garbage_after = FindGarbage(db);
  ASSERT_TRUE(garbage_after.ok());
  EXPECT_GT(garbage_after->size(), garbage_before->size())
      << "dropping the branch must strand its divergent chunks";
}

TEST(GcTest, CopyLivePreservesAllHeadsAndHistory) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  CsvGenOptions opts;
  opts.num_rows = 800;
  ASSERT_TRUE(db.PutTableFromCsv("ds", GenerateCsv(opts)).ok());
  ASSERT_TRUE(db.Branch("ds", "dev").ok());
  auto t = db.GetTable("ds", "dev");
  ASSERT_TRUE(t.ok());
  auto edited = t->UpdateCell("r00000400", 1, "dev-edit");
  ASSERT_TRUE(edited.ok());
  ASSERT_TRUE(db.Put("ds", Value::OfTable(edited->id()), "dev").ok());
  // Strand some chunks.
  ASSERT_TRUE(db.PutMap("temp", {{"x", "y"}}).ok());
  ASSERT_TRUE(db.DeleteBranch("temp", "master").ok());

  auto dst = std::make_shared<MemChunkStore>();
  auto stats = CopyLive(db, dst.get());
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->garbage_chunks(), 0u);
  EXPECT_LT(stats->live_chunks, stats->total_chunks);

  // Rebuild a ForkBase over the compacted store: all heads verify.
  ForkBase compacted(dst);
  compacted.branches().SetHead("ds", "master", *db.Head("ds", "master"));
  compacted.branches().SetHead("ds", "dev", *db.Head("ds", "dev"));
  EXPECT_TRUE(compacted.Verify(*compacted.Head("ds", "master")).ok());
  EXPECT_TRUE(compacted.Verify(*compacted.Head("ds", "dev")).ok());
  auto dev_table = compacted.GetTable("ds", "dev");
  ASSERT_TRUE(dev_table.ok());
  EXPECT_EQ(**dev_table->GetCell("r00000400", 1), "dev-edit");
}

TEST(GcTest, CopyLiveIsIdempotent) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  ASSERT_TRUE(db.PutMap("k", {{"a", "1"}}).ok());
  auto dst = std::make_shared<MemChunkStore>();
  auto s1 = CopyLive(db, dst.get());
  ASSERT_TRUE(s1.ok());
  uint64_t chunks_after_first = dst->stats().chunk_count;
  auto s2 = CopyLive(db, dst.get());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(dst->stats().chunk_count, chunks_after_first);
}

TEST(GcTest, SharedChunksSurviveWhenOneReferenceDies) {
  // Two keys share content; deleting one key must not orphan the shared
  // chunks of the other.
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  CsvGenOptions opts;
  opts.num_rows = 600;
  CsvDocument doc = GenerateCsv(opts);
  ASSERT_TRUE(db.PutTableFromCsv("a", doc).ok());
  ASSERT_TRUE(db.PutTableFromCsv("b", doc).ok());  // shares all data chunks
  ASSERT_TRUE(db.DeleteBranch("a", "master").ok());

  auto dst = std::make_shared<MemChunkStore>();
  auto stats = CopyLive(db, dst.get());
  ASSERT_TRUE(stats.ok());
  ForkBase survivor(dst);
  survivor.branches().SetHead("b", "master", *db.Head("b", "master"));
  EXPECT_TRUE(survivor.Verify(*survivor.Head("b")).ok());
  auto table = survivor.GetTable("b");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*table->NumRows(), 600u);
}

TEST(GcStatsTest, GarbageGettersClampAtZero) {
  // Snapshot semantics: live can legitimately exceed a stale total (e.g.
  // CopyLive destination totals while a writer appends). The getters must
  // clamp instead of wrapping to ~2^64.
  GcStats stats;
  stats.total_chunks = 3;
  stats.live_chunks = 5;
  stats.total_bytes = 100;
  stats.live_bytes = 400;
  EXPECT_EQ(stats.garbage_chunks(), 0u);
  EXPECT_EQ(stats.garbage_bytes(), 0u);
  stats.live_chunks = 1;
  stats.live_bytes = 40;
  EXPECT_EQ(stats.garbage_chunks(), 2u);
  EXPECT_EQ(stats.garbage_bytes(), 60u);
}

TEST(GcTest, CopyLiveReadsEachLiveChunkExactlyOnce) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  CsvGenOptions opts;
  opts.num_rows = 400;
  ASSERT_TRUE(db.PutTableFromCsv("ds", GenerateCsv(opts)).ok());
  ASSERT_TRUE(db.PutMap("temp", {{"x", "y"}}).ok());
  ASSERT_TRUE(db.DeleteBranch("temp", "master").ok());

  auto dst = std::make_shared<MemChunkStore>();
  const uint64_t reads_before = store->stats().get_calls;
  auto stats = CopyLive(db, dst.get());
  ASSERT_TRUE(stats.ok());
  const uint64_t reads = store->stats().get_calls - reads_before;
  // The copy rides the mark's read and the totals come from an index walk,
  // so the source serves exactly one read per live chunk — garbage bodies
  // are never fetched.
  EXPECT_EQ(reads, stats->live_chunks);
  EXPECT_GT(stats->garbage_chunks(), 0u);
  EXPECT_EQ(dst->stats().chunk_count, stats->live_chunks);
}

TEST(GcTest, FindGarbageNeverReadsGarbageBodies) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  CsvGenOptions opts;
  opts.num_rows = 400;
  ASSERT_TRUE(db.PutTableFromCsv("keep", GenerateCsv(opts)).ok());
  opts.seed = 99;
  ASSERT_TRUE(db.PutTableFromCsv("drop", GenerateCsv(opts)).ok());
  ASSERT_TRUE(db.DeleteBranch("drop", "master").ok());

  const uint64_t reads_before = store->stats().get_calls;
  auto garbage = FindGarbage(db);
  ASSERT_TRUE(garbage.ok());
  ASSERT_FALSE(garbage->empty());
  const uint64_t reads = store->stats().get_calls - reads_before;
  auto live = MarkLive(*store, {*db.Head("keep")});
  ASSERT_TRUE(live.ok());
  // One read per live chunk for the mark, then a pure index walk: the
  // (possibly huge) garbage side costs zero chunk fetches.
  EXPECT_EQ(reads, live->size())
      << "garbage identification must not load garbage chunk bodies";
}

TEST(GcTest, SweepInPlaceReclaimsAndKeepsSurvivorsReadable) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  CsvGenOptions opts;
  opts.num_rows = 500;
  ASSERT_TRUE(db.PutTableFromCsv("keep", GenerateCsv(opts)).ok());
  ASSERT_TRUE(db.PutMap("dead", {{"doomed", "bytes"}}).ok());
  ASSERT_TRUE(db.DeleteBranch("dead", "master").ok());

  auto stats = SweepInPlace(&db);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->swept_chunks, 0u);
  EXPECT_EQ(stats->swept_chunks, stats->garbage_chunks());
  EXPECT_EQ(stats->swept_bytes, stats->garbage_bytes());
  EXPECT_EQ(store->stats().chunk_count, stats->live_chunks);

  // Survivors stay bit-exact (Verify re-derives every covering hash).
  EXPECT_TRUE(db.Verify(*db.Head("keep")).ok());
  auto table = db.GetTable("keep");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*table->NumRows(), 500u);

  // Re-putting previously swept content must work: content addressing
  // regenerates the same ids into free space.
  ASSERT_TRUE(db.PutMap("reborn", {{"doomed", "bytes"}}).ok());
  EXPECT_TRUE(db.Verify(*db.Head("reborn")).ok());
  auto reborn = db.GetMap("reborn");
  ASSERT_TRUE(reborn.ok());
  EXPECT_EQ(**reborn->Get("doomed"), "bytes");

  // A second sweep over the now-clean store is a no-op.
  auto again = SweepInPlace(&db);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->swept_chunks, 0u);
}

TEST(GcTest, SweepInPlaceShrinksFileStoreDisk) {
  const std::string dir = ::testing::TempDir() + "/fb_gc_sweep_file";
  std::filesystem::remove_all(dir);
  FileChunkStore::Options fopts;
  fopts.segment_bytes = 4096;  // many small segments → fine-grained reclaim
  fopts.maintenance_threads = 2;
  Hash256 keep_head;
  {
    auto fstore_or = FileChunkStore::Open(dir, fopts);
    ASSERT_TRUE(fstore_or.ok());
    std::shared_ptr<FileChunkStore> fstore(std::move(*fstore_or));
    ForkBase db(fstore);

    CsvGenOptions opts;
    opts.num_rows = 300;
    ASSERT_TRUE(db.PutTableFromCsv("keep", GenerateCsv(opts)).ok());
    opts.seed = 7;
    opts.num_rows = 2000;
    ASSERT_TRUE(db.PutTableFromCsv("bulk", GenerateCsv(opts)).ok());
    ASSERT_TRUE(db.DeleteBranch("bulk", "master").ok());
    const uint64_t before = fstore->space_used();

    auto stats = SweepInPlace(&db);
    ASSERT_TRUE(stats.ok());
    fstore->WaitForMaintenance();  // db constructed directly, not Open()ed

    // Disk shrinks toward the live-byte total. Slack: per-record headers,
    // the tombstone journal, and a few not-yet-rolled segments.
    const uint64_t after = fstore->space_used();
    EXPECT_LT(after, before);
    EXPECT_LE(after, stats->live_bytes + stats->live_chunks * 64 +
                         4 * fopts.segment_bytes)
        << "space_used must approach the live total within segment slack";

    EXPECT_TRUE(db.Verify(*db.Head("keep")).ok());
    auto table = db.GetTable("keep");
    ASSERT_TRUE(table.ok());
    EXPECT_EQ(*table->NumRows(), 300u);
    keep_head = *db.Head("keep");
  }

  // Survivors must also be intact on disk, not just in the index: reopen.
  auto reopened_or = FileChunkStore::Open(dir, fopts);
  ASSERT_TRUE(reopened_or.ok());
  ForkBase reopened_db(std::shared_ptr<FileChunkStore>(
      std::move(*reopened_or)));
  reopened_db.branches().SetHead("keep", "master", keep_head);
  EXPECT_TRUE(reopened_db.Verify(keep_head).ok());
  std::filesystem::remove_all(dir);
}

TEST(GcTest, SweepInPlaceReclaimsTieredWriteBackStack) {
  // The full production shape: bounded write-back hot tier over a cold
  // FileChunkStore, opened through ForkBase::Open. The sweep must be
  // tier-aware — reclaim disk on both tiers and leave survivors bit-exact.
  const std::string hot_dir = ::testing::TempDir() + "/fb_gc_tier_hot";
  const std::string cold_dir = ::testing::TempDir() + "/fb_gc_tier_cold";
  std::filesystem::remove_all(hot_dir);
  std::filesystem::remove_all(cold_dir);
  ForkBase::Config config;
  config.segment_bytes = 4096;
  config.maintenance_threads = 2;
  config.tier.cold_dir = cold_dir;
  config.tier.write_back = true;
  config.tier.hot_bytes_budget = 256 * 1024;
  auto db_or = ForkBase::Open(hot_dir, config);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  ForkBase& db = **db_or;

  CsvGenOptions opts;
  opts.num_rows = 200;
  ASSERT_TRUE(db.PutTableFromCsv("keep", GenerateCsv(opts)).ok());
  opts.seed = 5;
  opts.num_rows = 1500;
  ASSERT_TRUE(db.PutTableFromCsv("bulk", GenerateCsv(opts)).ok());
  // Demote everything so the garbage is cold-resident (and partly evicted
  // from the bounded hot tier), then put fresh dirty garbage on top.
  ASSERT_NE(db.tiered(), nullptr);
  ASSERT_TRUE(db.tiered()->FlushColdTier().ok());
  ASSERT_TRUE(db.PutMap("scratch", {{"dirty", "garbage"}}).ok());
  ASSERT_TRUE(db.DeleteBranch("bulk", "master").ok());
  ASSERT_TRUE(db.DeleteBranch("scratch", "master").ok());
  const uint64_t before = DirBytes(hot_dir) + DirBytes(cold_dir);

  auto stats = SweepInPlace(&db);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->swept_chunks, 0u);
  const uint64_t after = DirBytes(hot_dir) + DirBytes(cold_dir);
  EXPECT_LT(after, before) << "sweep must reclaim disk across both tiers";

  EXPECT_TRUE(db.Verify(*db.Head("keep")).ok());
  auto table = db.GetTable("keep");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*table->NumRows(), 200u);
  std::filesystem::remove_all(hot_dir);
  std::filesystem::remove_all(cold_dir);
}

// ------------------------------------------------- delta-base liveness --

TEST(GcTest, ExpandPhysicalBasesCoversTheWholeChain) {
  const std::string dir = ::testing::TempDir() + "/fb_gc_expand_bases";
  std::filesystem::remove_all(dir);
  FileChunkStore::Options fopts;
  fopts.delta_chain_depth = 4;
  fopts.delta_window = 8;
  auto fstore_or = FileChunkStore::Open(dir, fopts);
  ASSERT_TRUE(fstore_or.ok());
  auto& fstore = **fstore_or;

  // A linear version history that the store stores as a delta chain.
  Rng rng(41);
  std::string payload = rng.NextString(1024);
  std::vector<Chunk> chain;
  for (int v = 0; v < 4; ++v) {
    if (v > 0) payload[rng.Uniform(payload.size())] ^= 0x5a;
    chain.push_back(Chunk::Make(ChunkType::kCell, payload));
  }
  ASSERT_TRUE(fstore.PutMany(chain).ok());
  ChunkStore::PhysicalRecord rec;
  ASSERT_TRUE(fstore.GetPhysicalRecord(chain.back().hash(), &rec));
  ASSERT_EQ(rec.encoding, ChunkStore::Encoding::kDelta);

  // Only the newest version is logically live; the expansion must pull in
  // every transitive base, or erasing "garbage" would strand the chain.
  std::unordered_set<Hash256, Hash256Hasher> live{chain.back().hash()};
  size_t added = ExpandPhysicalBases(fstore, &live);
  EXPECT_GT(added, 0u);
  for (const auto& c : chain) {
    EXPECT_TRUE(live.count(c.hash()))
        << "base chain member missing from expanded live set";
  }
  std::filesystem::remove_all(dir);
}

TEST(GcTest, FindGarbageNeverReportsALiveChunksDeltaBase) {
  const std::string dir = ::testing::TempDir() + "/fb_gc_delta_garbage";
  std::filesystem::remove_all(dir);
  FileChunkStore::Options fopts;
  fopts.delta_chain_depth = 4;
  fopts.delta_window = 16;
  auto fstore_or = FileChunkStore::Open(dir, fopts);
  ASSERT_TRUE(fstore_or.ok());
  std::shared_ptr<FileChunkStore> fstore(std::move(*fstore_or));
  ForkBase db(fstore);

  // Two near-identical datasets written back-to-back, so the survivor's
  // leaves may be delta-encoded against the doomed dataset's leaves.
  CsvGenOptions opts;
  opts.num_rows = 400;
  CsvDocument csv = GenerateCsv(opts);
  ASSERT_TRUE(db.PutTableFromCsv("dead", csv).ok());
  ASSERT_TRUE(
      db.PutTableFromCsv("keep", EditOneWord(csv, 200, 1, "edited")).ok());
  ASSERT_TRUE(db.DeleteBranch("dead", "master").ok());

  auto garbage = FindGarbage(db);
  ASSERT_TRUE(garbage.ok());
  std::unordered_set<Hash256, Hash256Hasher> garbage_set(garbage->begin(),
                                                           garbage->end());
  // The contract under test: no chunk that survives may have its delta base
  // in the garbage set — whatever chains the writer happened to form.
  fstore->ForEachId([&](const Hash256& id, size_t) {
    if (garbage_set.count(id)) return;
    Hash256 base;
    if (fstore->GetDeltaBase(id, &base)) {
      EXPECT_FALSE(garbage_set.count(base))
          << "live chunk's delta base reported as garbage";
    }
  });

  auto stats = SweepInPlace(&db);
  ASSERT_TRUE(stats.ok());
  fstore->WaitForMaintenance();
  // After the sweep, every remaining delta record still resolves.
  fstore->ForEachId([&](const Hash256& id, size_t) {
    Hash256 base;
    if (fstore->GetDeltaBase(id, &base)) {
      EXPECT_TRUE(fstore->Contains(base)) << "stranded delta chain";
    }
  });
  EXPECT_TRUE(db.Verify(*db.Head("keep")).ok());
  auto table = db.GetTable("keep");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*table->NumRows(), 400u);
  std::filesystem::remove_all(dir);
}

TEST(GcTest, SweepInPlaceReclaimMatchesDiskOnEncodedStore) {
  // The accounting acceptance check: on a compressed + delta store, disk
  // after an in-place sweep + full compaction must approach the store's own
  // live_physical_bytes figure — the two books have to agree.
  const std::string dir = ::testing::TempDir() + "/fb_gc_encoded_reclaim";
  std::filesystem::remove_all(dir);
  FileChunkStore::Options fopts;
  fopts.segment_bytes = 8192;
  fopts.compression = FileChunkStore::Compression::kLz;
  fopts.delta_chain_depth = 3;
  fopts.maintenance_threads = 2;
  auto fstore_or = FileChunkStore::Open(dir, fopts);
  ASSERT_TRUE(fstore_or.ok());
  std::shared_ptr<FileChunkStore> fstore(std::move(*fstore_or));
  ForkBase db(fstore);

  CsvGenOptions opts;
  opts.num_rows = 300;
  ASSERT_TRUE(db.PutTableFromCsv("keep", GenerateCsv(opts)).ok());
  opts.seed = 7;
  opts.num_rows = 2000;
  ASSERT_TRUE(db.PutTableFromCsv("bulk", GenerateCsv(opts)).ok());
  ASSERT_TRUE(db.DeleteBranch("bulk", "master").ok());
  const uint64_t before = fstore->space_used();

  auto stats = SweepInPlace(&db);
  ASSERT_TRUE(stats.ok());
  ASSERT_GT(stats->swept_chunks, 0u);
  fstore->CompactBelow(1.0);
  fstore->WaitForMaintenance();

  const uint64_t after = fstore->space_used();
  EXPECT_LT(after, before);
  const auto ms = fstore->maintenance_stats();
  EXPECT_LE(ms.live_physical_bytes, ms.live_logical_bytes);
  // Segment files = live physical payloads + per-record headers + the
  // not-yet-compacted slack of a few open/active segments.
  EXPECT_LE(after, ms.live_physical_bytes + stats->live_chunks * 64 +
                       4 * fopts.segment_bytes)
      << "disk must track the store's own physical accounting";
  EXPECT_TRUE(db.Verify(*db.Head("keep")).ok());
  std::filesystem::remove_all(dir);
}

TEST(GcTest, SweepInPlaceRequiresErasableStore) {
  // A store without Erase support must be told to use copy collection.
  class AppendOnlyStore : public ChunkStore {
   public:
    StatusOr<Chunk> Get(const Hash256& id) const override {
      return base_.Get(id);
    }
    bool Contains(const Hash256& id) const override {
      return base_.Contains(id);
    }
    ChunkStoreStats stats() const override { return base_.stats(); }
    void ForEach(const std::function<void(const Hash256&, const Chunk&)>& fn)
        const override {
      base_.ForEach(fn);
    }

   protected:
    Status PutImpl(const Chunk& chunk) override { return base_.Put(chunk); }

   private:
    MemChunkStore base_;
  };
  ForkBase db(std::make_shared<AppendOnlyStore>());
  ASSERT_TRUE(db.PutMap("k", {{"a", "1"}}).ok());
  auto stats = SweepInPlace(&db);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kUnimplemented);
}

TEST(GcTest, SweepSparesChunksRePutByRacingCommits) {
  // A writer thread keeps committing — including content identical to the
  // garbage being swept (dedup re-puts) — while sweeps run. Whatever the
  // interleaving, published heads must stay fully readable.
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  ASSERT_TRUE(db.PutMap("dead", {{"shared", "payload"}, {"k", "v"}}).ok());
  ASSERT_TRUE(db.DeleteBranch("dead", "master").ok());
  CsvGenOptions opts;
  opts.num_rows = 300;
  ASSERT_TRUE(db.PutTableFromCsv("keep", GenerateCsv(opts)).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> commits{0};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load()) {
      // Same bytes as the swept-away "dead" map: a dedup re-put racing the
      // erase loop — exactly what the put pin exists for.
      EXPECT_TRUE(
          db.PutMap("reborn", {{"shared", "payload"}, {"k", "v"}}).ok());
      EXPECT_TRUE(db.PutMap("churn", {{"i", std::to_string(i++)}}).ok());
      commits.fetch_add(1);
    }
  });
  for (int round = 0; round < 5; ++round) {
    // Make sure each sweep actually overlaps fresh commits: wait for the
    // writer to land something since the previous round.
    const int seen = commits.load();
    while (commits.load() <= seen) std::this_thread::yield();
    auto stats = SweepInPlace(&db);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  }
  stop.store(true);
  writer.join();
  EXPECT_GE(commits.load(), 5);

  for (const auto& key : {"keep", "reborn", "churn"}) {
    auto head = db.Head(key);
    ASSERT_TRUE(head.ok()) << key;
    EXPECT_TRUE(db.Verify(*head).ok())
        << key << ": a racing commit lost chunks to the sweep";
  }
  auto reborn = db.GetMap("reborn");
  ASSERT_TRUE(reborn.ok());
  EXPECT_EQ(**reborn->Get("shared"), "payload");
}

TEST(GcTest, ResurrectionGuardRefusesPartiallySweptHistory) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  auto v1 = db.PutMap("k", {{"a", "1"}, {"b", "2"}});
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(db.DeleteBranch("k", "master").ok());

  // While a sweep is active, re-pointing a branch at intact pre-existing
  // history is validated and allowed...
  {
    ForkBase::SweepScope scope(&db);
    ASSERT_TRUE(db.BranchFromVersion("k", "rescued", *v1).ok());
  }
  ASSERT_TRUE(db.DeleteBranch("k", "rescued").ok());

  // ...but once part of the closure is gone (as after an erase batch), the
  // publish must be refused instead of creating a dangling head.
  auto map = db.GetVersion(*v1);
  ASSERT_TRUE(map.ok());
  const std::vector<Hash256> victim{map->root()};
  ASSERT_TRUE(store->Erase(victim).ok());
  {
    ForkBase::SweepScope scope(&db);
    Status resurrect = db.BranchFromVersion("k", "dangling", *v1);
    EXPECT_EQ(resurrect.code(), StatusCode::kNotFound)
        << "publishing a head with missing chunks must be refused";
  }
  EXPECT_FALSE(db.Head("k", "dangling").ok());
}

}  // namespace
}  // namespace forkbase
