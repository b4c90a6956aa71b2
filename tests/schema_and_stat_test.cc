// Tests for table schema evolution (AddColumn/DropColumn/RenameColumn), the
// per-object Stat verb and the store-wide commit-queue stats.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>

#include "chunk/mem_chunk_store.h"
#include "store/forkbase.h"
#include "util/datagen.h"

namespace forkbase {
namespace {

StatusOr<FTable> SampleTable(ChunkStore* store) {
  return FTable::Create(store, {"id", "name", "qty"},
                        {{"r1", "widget", "5"},
                         {"r2", "gadget", "7"},
                         {"r3", "doodad", "0"}});
}

// -------------------------------------------------------- schema evolution --

TEST(SchemaEvolutionTest, AddColumnAppendsDefault) {
  MemChunkStore store;
  auto table = SampleTable(&store);
  ASSERT_TRUE(table.ok());
  auto evolved = table->AddColumn("price", "0.00");
  ASSERT_TRUE(evolved.ok());
  EXPECT_EQ(evolved->columns(),
            (std::vector<std::string>{"id", "name", "qty", "price"}));
  auto row = evolved->GetRow("r2");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(**row, (std::vector<std::string>{"r2", "gadget", "7", "0.00"}));
  // Old version untouched (schema is versioned like everything else).
  EXPECT_EQ(table->columns().size(), 3u);
  ASSERT_TRUE(evolved->Validate().ok());
}

TEST(SchemaEvolutionTest, AddColumnRejectsDuplicateName) {
  MemChunkStore store;
  auto table = SampleTable(&store);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->AddColumn("name").status().code(),
            StatusCode::kAlreadyExists);
}

TEST(SchemaEvolutionTest, DropColumnRemovesCells) {
  MemChunkStore store;
  auto table = SampleTable(&store);
  ASSERT_TRUE(table.ok());
  auto dropped = table->DropColumn(1);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped->columns(), (std::vector<std::string>{"id", "qty"}));
  auto row = dropped->GetRow("r1");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(**row, (std::vector<std::string>{"r1", "5"}));
  EXPECT_FALSE(table->DropColumn(0).ok()) << "key column must be protected";
  EXPECT_FALSE(table->DropColumn(9).ok());
  ASSERT_TRUE(dropped->Validate().ok());
}

TEST(SchemaEvolutionTest, DropBeforeKeyColumnAdjustsIndex) {
  MemChunkStore store;
  auto table = FTable::Create(&store, {"extra", "id", "v"},
                              {{"x1", "r1", "a"}, {"x2", "r2", "b"}},
                              /*key_column=*/1);
  ASSERT_TRUE(table.ok());
  auto dropped = table->DropColumn(0);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped->key_column(), 0u);
  auto row = dropped->GetRow("r1");
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ(**row, (std::vector<std::string>{"r1", "a"}));
  ASSERT_TRUE(dropped->Validate().ok());
}

TEST(SchemaEvolutionTest, AddAndDropColumnMatchAFreshLoad) {
  // Rewritten rows stream into a bulk build, so an evolved table must be
  // bit-identical to loading the evolved rows from scratch.
  MemChunkStore store;
  CsvGenOptions opts;
  opts.num_rows = 2000;
  const CsvDocument doc = GenerateCsv(opts);
  auto table = FTable::FromCsv(&store, doc);
  ASSERT_TRUE(table.ok());

  auto added = table->AddColumn("extra", "default cell");
  ASSERT_TRUE(added.ok());
  CsvDocument widened = doc;
  widened.header.push_back("extra");
  for (auto& row : widened.rows) row.push_back("default cell");
  auto widened_table = FTable::FromCsv(&store, widened);
  ASSERT_TRUE(widened_table.ok());
  EXPECT_EQ(added->id(), widened_table->id());

  auto dropped = table->DropColumn(2);
  ASSERT_TRUE(dropped.ok());
  CsvDocument narrowed = doc;
  narrowed.header.erase(narrowed.header.begin() + 2);
  for (auto& row : narrowed.rows) row.erase(row.begin() + 2);
  auto narrowed_table = FTable::FromCsv(&store, narrowed);
  ASSERT_TRUE(narrowed_table.ok());
  EXPECT_EQ(dropped->id(), narrowed_table->id());
}

TEST(SchemaEvolutionTest, RenameColumnSharesRowTree) {
  MemChunkStore store;
  CsvGenOptions opts;
  opts.num_rows = 2000;
  auto table = FTable::FromCsv(&store, GenerateCsv(opts));
  ASSERT_TRUE(table.ok());
  uint64_t before = store.stats().physical_bytes;
  auto renamed = table->RenameColumn(2, "renamed");
  ASSERT_TRUE(renamed.ok());
  uint64_t delta = store.stats().physical_bytes - before;
  EXPECT_LT(delta, 256u) << "a rename must only rewrite the header chunk";
  EXPECT_EQ(renamed->rows().root(), table->rows().root());
  EXPECT_EQ(renamed->columns()[2], "renamed");
  EXPECT_FALSE(table->RenameColumn(0, "c1").ok()) << "collision rejected";
}

TEST(SchemaEvolutionTest, EvolutionIsVersionedThroughFacade) {
  ForkBase db(std::make_shared<MemChunkStore>());
  CsvGenOptions opts;
  opts.num_rows = 100;
  ASSERT_TRUE(db.PutTableFromCsv("ds", GenerateCsv(opts)).ok());
  auto v1 = db.Head("ds");
  ASSERT_TRUE(v1.ok());
  auto table = db.GetTable("ds");
  ASSERT_TRUE(table.ok());
  auto evolved = table->AddColumn("flag", "n");
  ASSERT_TRUE(evolved.ok());
  ASSERT_TRUE(db.Put("ds", Value::OfTable(evolved->id())).ok());

  // Time travel across the schema change.
  auto old_value = db.GetVersion(*v1);
  ASSERT_TRUE(old_value.ok());
  auto old_table = FTable::Attach(db.store(), old_value->root());
  ASSERT_TRUE(old_table.ok());
  EXPECT_EQ(old_table->columns().size(), 7u);
  EXPECT_EQ(db.GetTable("ds")->columns().size(), 8u);
}

TEST(SchemaEvolutionTest, DiffAcrossSchemaChangeRejected) {
  MemChunkStore store;
  auto table = SampleTable(&store);
  ASSERT_TRUE(table.ok());
  auto evolved = table->AddColumn("extra");
  ASSERT_TRUE(evolved.ok());
  EXPECT_FALSE(table->Diff(*evolved).ok()) << "schemas differ";
}

// ------------------------------------------------------------- object stat --

TEST(StatObjectTest, ReportsShapePerType) {
  ForkBase db(std::make_shared<MemChunkStore>());
  ASSERT_TRUE(db.Put("prim", Value::Int(42)).ok());
  auto prim = db.StatObject("prim");
  ASSERT_TRUE(prim.ok());
  EXPECT_EQ(prim->type, ValueType::kInt);
  EXPECT_EQ(prim->entries, 1u);

  std::vector<std::pair<std::string, std::string>> kvs;
  for (int i = 0; i < 5000; ++i) {
    kvs.emplace_back("k" + std::to_string(100000 + i), "v");
  }
  ASSERT_TRUE(db.PutMap("map", kvs).ok());
  auto map_stat = db.StatObject("map");
  ASSERT_TRUE(map_stat.ok());
  EXPECT_EQ(map_stat->type, ValueType::kMap);
  EXPECT_EQ(map_stat->entries, 5000u);
  EXPECT_GT(map_stat->shape.leaf_nodes, 1u);
  EXPECT_GE(map_stat->shape.height, 2u);

  ASSERT_TRUE(db.PutBlob("blob", std::string(100000, 'b')).ok());
  auto blob_stat = db.StatObject("blob");
  ASSERT_TRUE(blob_stat.ok());
  EXPECT_EQ(blob_stat->entries, 100000u);

  CsvGenOptions opts;
  opts.num_rows = 500;
  ASSERT_TRUE(db.PutTableFromCsv("table", GenerateCsv(opts)).ok());
  auto table_stat = db.StatObject("table");
  ASSERT_TRUE(table_stat.ok());
  EXPECT_EQ(table_stat->type, ValueType::kTable);
  EXPECT_EQ(table_stat->entries, 500u);
}

TEST(StatObjectTest, MissingKeyIsNotFound) {
  ForkBase db(std::make_shared<MemChunkStore>());
  EXPECT_TRUE(db.StatObject("ghost").status().IsNotFound());
}

// ------------------------------------------------------------ store stats --

TEST(StoreStatTest, LoneWriterCommitsInGroupsOfOne) {
  // A single-threaded writer on a default store finds no leader each time,
  // leads its own group and never waits: one group per commit. The
  // commit-queue section is always reported, under stable key names.
  const std::string dir = ::testing::TempDir() + "/fb_stat_lone_writer";
  std::filesystem::remove_all(dir);
  constexpr uint64_t kPuts = 50;
  {
    auto db_or = ForkBase::Open(dir);
    ASSERT_TRUE(db_or.ok());
    ForkBase& db = **db_or;
    for (uint64_t i = 0; i < kPuts; ++i) {
      ASSERT_TRUE(db.Put("k", Value::String(std::to_string(i))).ok());
    }
    const ForkBaseStats stats = db.Stat();
    EXPECT_EQ(stats.commits, kPuts);
    EXPECT_EQ(stats.commit_queue.commits, kPuts);
    EXPECT_EQ(stats.commit_queue.batches, kPuts);
    EXPECT_EQ(stats.commit_queue.advances, 0u);
    std::map<std::string, std::string> kvs;
    for (const auto& [k, v] : stats.ToKeyValues()) kvs[k] = v;
    EXPECT_EQ(kvs["commit_queue_commits"], std::to_string(kPuts));
    EXPECT_EQ(kvs["commit_queue_batches"], std::to_string(kPuts));
    EXPECT_EQ(kvs["commit_queue_advances"], "0");
  }
  std::filesystem::remove_all(dir);
}

TEST(StoreStatTest, TieredWriteBackKeyListIsStable) {
  // perfbench and operators parse `stat`/STAT by key name: a tiered
  // write-back stack reports every section, and the names and their order
  // are part of the interface.
  const std::string dir = ::testing::TempDir() + "/fb_stat_keys";
  std::filesystem::remove_all(dir);
  {
    ForkBase::Config config;
    config.maintenance_threads = 0;
    config.tier.cold_dir = dir + "/cold";
    config.tier.write_back = true;
    config.tier.hot_bytes_budget = 8ull << 20;
    auto db_or = ForkBase::Open(dir + "/hot", config);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    ASSERT_TRUE((*db_or)->Put("k", Value::String("v")).ok());
    const auto kvs = (*db_or)->Stat().ToKeyValues();
    std::vector<std::string> names;
    for (const auto& [k, v] : kvs) names.push_back(k);
    const std::vector<std::string> expected = {
        "keys", "branches", "commits", "sha256_backend", "chunks",
        "physical_bytes", "logical_bytes", "dedup_hits", "dedup_ratio",
        "get_calls", "put_calls", "gc_sweeps", "gc_swept_chunks",
        "gc_swept_bytes", "cache_hits", "cache_misses", "cache_evictions",
        "cache_resident_bytes", "commit_queue_commits",
        "commit_queue_batches", "commit_queue_advances",
        "maintenance_erased_chunks", "maintenance_tombstone_records",
        "maintenance_segments_rewritten", "maintenance_rewritten_bytes",
        "maintenance_reclaimed_bytes", "maintenance_pending_compactions",
        "storage_delta_records", "storage_compressed_records",
        "storage_delta_chain_hops", "storage_flattened_chains",
        "storage_live_physical_bytes", "storage_live_logical_bytes",
        "tier_hot_space", "tier_hot_budget", "tier_hot_bytes",
        "tier_pinned_dirty_bytes", "tier_dirty_pending", "tier_hot_hits",
        "tier_cold_hits", "tier_promotions", "tier_demotions",
        "tier_evictions", "tier_hot_only_erases"};
    EXPECT_EQ(names, expected);
    std::map<std::string, std::string> by_name(kvs.begin(), kvs.end());
    EXPECT_EQ(by_name["keys"], "1");
    EXPECT_EQ(by_name["commits"], "1");
    EXPECT_EQ(by_name["tier_hot_budget"], std::to_string(8ull << 20));
    EXPECT_NE(by_name["tier_hot_space"], "0");
    EXPECT_NE(by_name["storage_live_logical_bytes"], "0");
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace forkbase
