// Integration tests across modules: the demo's end-to-end scenarios on a
// real ForkBase instance — dataset loading with dedup (Fig. 4), branch /
// edit / diff / merge workflow (Fig. 5), tamper-evident versioning (Fig. 6),
// and a file-backed database surviving reopen.
#include <gtest/gtest.h>

#include <filesystem>

#include "chunk/caching_chunk_store.h"
#include "chunk/file_chunk_store.h"
#include "chunk/mem_chunk_store.h"
#include "store/forkbase.h"
#include "util/datagen.h"

namespace forkbase {
namespace {

TEST(IntegrationTest, Fig4DedupScenario) {
  // Load dataset-1 (~338 KB), then dataset-2 (single-word difference) as a
  // SEPARATE dataset; the second load must add only a sliver of storage.
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);

  CsvGenOptions opts;
  opts.target_bytes = 338 * 1024;
  CsvDocument ds1 = GenerateCsv(opts);
  CsvDocument ds2 = EditOneWord(ds1, ds1.rows.size() / 2, 2, "VendorX");

  ASSERT_TRUE(db.PutTableFromCsv("dataset-1", ds1).ok());
  uint64_t after_first = store->stats().physical_bytes;
  ASSERT_TRUE(db.PutTableFromCsv("dataset-2", ds2).ok());
  uint64_t delta = store->stats().physical_bytes - after_first;

  EXPECT_GT(after_first, 200 * 1024u) << "first load pays full storage";
  EXPECT_LT(delta, 32 * 1024u)
      << "second load must cost only the changed chunks, got " << delta;
  EXPECT_LT(delta * 10, after_first);
}

TEST(IntegrationTest, CollaborativeBranchEditMergeWorkflow) {
  // The demo's Fig. 5 flow: load a dataset, branch it for VendorX, edit the
  // branch, run a differential query, then merge back.
  ForkBase db(std::make_shared<MemChunkStore>());
  CsvGenOptions opts;
  opts.num_rows = 2000;
  ASSERT_TRUE(
      db.PutTableFromCsv("Dataset-1", GenerateCsv(opts), 0, "master",
                         {"admin-a", "initial load"})
          .ok());
  ASSERT_TRUE(db.Branch("Dataset-1", "VendorX").ok());

  auto vendor_table = db.GetTable("Dataset-1", "VendorX");
  ASSERT_TRUE(vendor_table.ok());
  auto edited = vendor_table->UpdateCell("r00001000", 2, "vendor-corrected");
  ASSERT_TRUE(edited.ok());
  ASSERT_TRUE(db.Put("Dataset-1", Value::OfTable(edited->id()), "VendorX",
                     {"admin-b", "vendor correction"})
                  .ok());

  // Differential query between master and VendorX.
  auto diff = db.Diff("Dataset-1", "master", "VendorX");
  ASSERT_TRUE(diff.ok());
  EXPECT_FALSE(diff->identical);
  ASSERT_EQ(diff->rows.size(), 1u);
  EXPECT_EQ(diff->rows[0].key, "r00001000");
  EXPECT_EQ(diff->rows[0].changed_columns, (std::vector<size_t>{2}));

  // Merge the vendor branch back into master.
  auto merged = db.Merge("Dataset-1", "master", "VendorX");
  ASSERT_TRUE(merged.ok());
  auto master_table = db.GetTable("Dataset-1", "master");
  ASSERT_TRUE(master_table.ok());
  EXPECT_EQ(**master_table->GetCell("r00001000", 2), "vendor-corrected");

  // After the merge, the branches are content-identical.
  auto diff2 = db.Diff("Dataset-1", "master", "VendorX");
  ASSERT_TRUE(diff2.ok());
  EXPECT_TRUE(diff2->identical);
}

TEST(IntegrationTest, Fig6TamperEvidenceScenario) {
  // Put → stamp uid → tamper storage → validation fails; untampered copies
  // keep verifying.
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  CsvGenOptions opts;
  opts.num_rows = 3000;
  auto v1 = db.PutTableFromCsv("ds", GenerateCsv(opts), 0, "master",
                               {"alice", "load"});
  ASSERT_TRUE(v1.ok());
  opts.seed = 8;
  auto table = db.GetTable("ds");
  ASSERT_TRUE(table.ok());
  auto t2 = table->UpdateCell("r00000001", 1, "update");
  ASSERT_TRUE(t2.ok());
  auto v2 = db.Put("ds", Value::OfTable(t2->id()), "master",
                   {"alice", "edit"});
  ASSERT_TRUE(v2.ok());

  ASSERT_TRUE(db.Verify(*v1).ok());
  ASSERT_TRUE(db.Verify(*v2).ok());

  // Malicious provider flips one byte in a shared data chunk.
  std::vector<Hash256> chunks;
  ASSERT_TRUE(table->rows().tree().ReachableChunks(&chunks).ok());
  ASSERT_TRUE(store->TamperForTesting(chunks[chunks.size() / 2], 11, 0x04));

  EXPECT_TRUE(db.Verify(*v1).IsCorruption());
  // v2 shares most chunks with v1, so it is affected too (same page).
  EXPECT_TRUE(db.Verify(*v2).IsCorruption());
}

TEST(IntegrationTest, FileBackedDatabaseSurvivesReopen) {
  std::string dir = ::testing::TempDir() + "/fb_integration_db";
  std::filesystem::remove_all(dir);
  Hash256 head;
  {
    auto db_or = ForkBase::Open(dir);
    ASSERT_TRUE(db_or.ok());
    ForkBase& db = **db_or;
    ASSERT_TRUE(db.PutMap("config", {{"mode", "prod"}, {"zone", "sg"}}).ok());
    ASSERT_TRUE(db.Branch("config", "staging").ok());
    auto map = db.GetMap("config", "staging");
    ASSERT_TRUE(map.ok());
    auto edited = map->Set("mode", "staging");
    ASSERT_TRUE(edited.ok());
    ASSERT_TRUE(
        db.Put("config", Value::OfMap(edited->root()), "staging").ok());
    auto h = db.Head("config", "staging");
    ASSERT_TRUE(h.ok());
    head = *h;
  }
  {
    auto db_or = ForkBase::Open(dir);
    ASSERT_TRUE(db_or.ok());
    ForkBase& db = **db_or;
    EXPECT_EQ(*db.Head("config", "staging"), head);
    auto map = db.GetMap("config", "staging");
    ASSERT_TRUE(map.ok());
    EXPECT_EQ(**map->Get("mode"), "staging");
    EXPECT_EQ(**map->Get("zone"), "sg");
    EXPECT_TRUE(db.Verify(head).ok());
  }
  std::filesystem::remove_all(dir);
}

TEST(IntegrationTest, CachedFileStoreBehavesIdentically) {
  std::string dir = ::testing::TempDir() + "/fb_cached_db";
  std::filesystem::remove_all(dir);
  auto file_or = FileChunkStore::Open(dir);
  ASSERT_TRUE(file_or.ok());
  auto cached = std::make_shared<CachingChunkStore>(
      std::shared_ptr<ChunkStore>(std::move(*file_or)), 4 << 20);
  ForkBase db(cached);
  CsvGenOptions opts;
  opts.num_rows = 1000;
  auto uid = db.PutTableFromCsv("ds", GenerateCsv(opts));
  ASSERT_TRUE(uid.ok());
  auto table = db.GetTable("ds");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*table->NumRows(), 1000u);
  EXPECT_TRUE(db.Verify(*uid).ok());
  EXPECT_GT(cached->cache_stats().hits, 0u);
  std::filesystem::remove_all(dir);
}

TEST(IntegrationTest, ManyVersionArchiveStaysCompact) {
  // Archive 60 versions of a 1000-row table with one cell edited per
  // version. Physical growth must be a small multiple of the edit cost,
  // not of the dataset size (the paper's "archiving massive data versions").
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  CsvGenOptions opts;
  opts.num_rows = 1000;
  CsvDocument doc = GenerateCsv(opts);
  ASSERT_TRUE(db.PutTableFromCsv("archive", doc).ok());
  uint64_t baseline = store->stats().physical_bytes;

  for (int v = 0; v < 60; ++v) {
    auto table = db.GetTable("archive");
    ASSERT_TRUE(table.ok());
    auto edited = table->UpdateCell(
        "r" + std::string(7 - std::to_string(v).size(), '0') +
            std::to_string(v) + "0",
        3, "edit-" + std::to_string(v));
    if (!edited.ok()) {
      // Key formatting edge: fall back to a fixed row.
      edited = table->UpdateCell("r00000001", 3, "edit-" + std::to_string(v));
    }
    ASSERT_TRUE(edited.ok());
    ASSERT_TRUE(db.Put("archive", Value::OfTable(edited->id())).ok());
  }
  uint64_t growth = store->stats().physical_bytes - baseline;
  EXPECT_LT(growth, baseline * 3)
      << "60 single-cell versions must not cost 60 full copies (growth="
      << growth << ", baseline=" << baseline << ")";
  auto history = db.History("archive");
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->size(), 61u);
}

}  // namespace
}  // namespace forkbase
