// Unit tests for FTable: schema handling, CSV round trips, row/cell CRUD,
// selection, row+column diff, column-refined three-way merge, and the
// parallel ordered scan against a serial cursor walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "chunk/mem_chunk_store.h"
#include "postree/tree.h"
#include "types/table.h"
#include "util/codec.h"
#include "util/datagen.h"
#include "util/random.h"
#include "util/sha256.h"
#include "util/worker_pool.h"

namespace forkbase {
namespace {

FTable MakeTable(MemChunkStore* store, size_t rows = 100, uint64_t seed = 1) {
  CsvGenOptions opts;
  opts.num_rows = rows;
  opts.seed = seed;
  auto table = FTable::FromCsv(store, GenerateCsv(opts));
  EXPECT_TRUE(table.ok());
  return *table;
}

TEST(FTableTest, CreateAndLookup) {
  MemChunkStore store;
  auto table = FTable::Create(&store, {"id", "name", "qty"},
                              {{"r1", "widget", "5"},
                               {"r2", "gadget", "7"},
                               {"r3", "doodad", "0"}});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*table->NumRows(), 3u);
  auto row = table->GetRow("r2");
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ(**row, (std::vector<std::string>{"r2", "gadget", "7"}));
  auto cell = table->GetCell("r3", 1);
  ASSERT_TRUE(cell.ok());
  EXPECT_EQ(**cell, "doodad");
  auto missing = table->GetRow("r9");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->has_value());
}

TEST(FTableTest, RejectsBadInputs) {
  MemChunkStore store;
  EXPECT_FALSE(FTable::Create(&store, {}, {}).ok());
  EXPECT_FALSE(FTable::Create(&store, {"id"}, {}, 5).ok());
  EXPECT_FALSE(FTable::Create(&store, {"id", "v"}, {{"r1"}}).ok());
  EXPECT_FALSE(
      FTable::Create(&store, {"id", "v"}, {{"r1", "a"}, {"r1", "b"}}).ok())
      << "duplicate primary keys must be rejected";
  // Out of order, with the repeated key not adjacent: only the sort finds it.
  auto unsorted_duplicate = FTable::Create(
      &store, {"id", "v"}, {{"r2", "a"}, {"r1", "b"}, {"r2", "c"}});
  EXPECT_EQ(unsorted_duplicate.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(unsorted_duplicate.status().message(), "duplicate primary key");
  // Ascending, then a repeat at the end.
  EXPECT_FALSE(FTable::Create(&store, {"id", "v"},
                              {{"r1", "a"}, {"r2", "b"}, {"r2", "c"}})
                   .ok());
}

TEST(FTableTest, RowOrderDoesNotChangeTheId) {
  MemChunkStore store;
  CsvGenOptions opts;
  opts.num_rows = 3000;  // several leaves and an index level
  const CsvDocument doc = GenerateCsv(opts);
  auto sorted = FTable::FromCsv(&store, doc);
  ASSERT_TRUE(sorted.ok());

  CsvDocument shuffled = doc;
  Rng rng(11);
  for (size_t i = shuffled.rows.size(); i > 1; --i) {
    std::swap(shuffled.rows[i - 1], shuffled.rows[rng.Uniform(i)]);
  }
  auto from_shuffled = FTable::FromCsv(&store, shuffled);
  ASSERT_TRUE(from_shuffled.ok());
  EXPECT_EQ(from_shuffled->id(), sorted->id());

  CsvDocument reversed = doc;
  std::reverse(reversed.rows.begin(), reversed.rows.end());
  auto from_reversed = FTable::FromCsv(&store, reversed);
  ASSERT_TRUE(from_reversed.ok());
  EXPECT_EQ(from_reversed->id(), sorted->id());
}

TEST(FTableTest, RowTreeIsAMapOfEncodedRows) {
  // The streamed row entries must be bit-identical to building the row map
  // from (primary key, EncodeRow(row)) pairs.
  MemChunkStore store;
  CsvGenOptions opts;
  opts.num_rows = 3000;
  opts.seed = 5;
  const CsvDocument doc = GenerateCsv(opts);
  auto table = FTable::FromCsv(&store, doc, /*key_column=*/0);
  ASSERT_TRUE(table.ok());
  std::vector<std::pair<std::string, std::string>> kvs;
  for (const auto& row : doc.rows) {
    kvs.emplace_back(row[0], FTable::EncodeRow(row));
  }
  auto map = FMap::Create(&store, std::move(kvs));
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(table->rows().root(), map->root());
}

TEST(FTableTest, AttachByIdRestoresSchema) {
  MemChunkStore store;
  FTable table = MakeTable(&store);
  auto attached = FTable::Attach(&store, table.id());
  ASSERT_TRUE(attached.ok());
  EXPECT_EQ(attached->columns(), table.columns());
  EXPECT_EQ(attached->key_column(), table.key_column());
  EXPECT_EQ(*attached->NumRows(), *table.NumRows());
}

TEST(FTableTest, CsvRoundTrip) {
  MemChunkStore store;
  CsvGenOptions opts;
  opts.num_rows = 200;
  CsvDocument doc = GenerateCsv(opts);
  auto table = FTable::FromCsv(&store, doc);
  ASSERT_TRUE(table.ok());
  auto exported = table->ToCsv();
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(exported->header, doc.header);
  // Row ids are generated pre-sorted, so order survives.
  EXPECT_EQ(exported->rows, doc.rows);
}

TEST(FTableTest, UpsertDeleteUpdateCell) {
  MemChunkStore store;
  FTable table = MakeTable(&store, 50);
  auto upserted = table.UpsertRow({"zz-new", "a", "b", "c", "d", "e", "f"});
  ASSERT_TRUE(upserted.ok());
  EXPECT_EQ(*upserted->NumRows(), 51u);

  auto updated = upserted->UpdateCell("zz-new", 2, "CHANGED");
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(**updated->GetCell("zz-new", 2), "CHANGED");
  EXPECT_FALSE(updated->UpdateCell("zz-new", 0, "nope").ok())
      << "primary key updates must be rejected";
  EXPECT_TRUE(updated->UpdateCell("absent", 2, "x").status().IsNotFound());

  auto deleted = updated->DeleteRow("zz-new");
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted->NumRows(), 50u);
  // Original table unchanged (immutability).
  EXPECT_EQ(*table.NumRows(), 50u);
}

TEST(FTableTest, SelectFiltersRows) {
  MemChunkStore store;
  auto table = FTable::Create(&store, {"id", "qty"},
                              {{"a", "1"}, {"b", "2"}, {"c", "3"}});
  ASSERT_TRUE(table.ok());
  auto selected = table->Select([](const std::vector<std::string>& row) {
    return row[1] >= "2";
  });
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->size(), 2u);
}

TEST(FTableTest, DiffRefinesColumns) {
  MemChunkStore store;
  FTable table = MakeTable(&store, 300, 9);
  auto edited = table.UpdateCell("r00000042", 3, "EDITED");
  ASSERT_TRUE(edited.ok());
  auto deltas = table.Diff(*edited);
  ASSERT_TRUE(deltas.ok());
  ASSERT_EQ(deltas->size(), 1u);
  EXPECT_EQ((*deltas)[0].key, "r00000042");
  EXPECT_EQ((*deltas)[0].changed_columns, (std::vector<size_t>{3}));
}

TEST(FTableTest, DiffSchemasMustMatch) {
  MemChunkStore store;
  auto a = FTable::Create(&store, {"id", "x"}, {{"r", "1"}});
  auto b = FTable::Create(&store, {"id", "y"}, {{"r", "1"}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(a->Diff(*b).ok());
}

TEST(FTableTest, IdCoversContentAndSchema) {
  MemChunkStore store;
  auto a = FTable::Create(&store, {"id", "v"}, {{"r", "1"}});
  auto b = FTable::Create(&store, {"id", "v"}, {{"r", "1"}});
  auto c = FTable::Create(&store, {"id", "w"}, {{"r", "1"}});
  auto d = FTable::Create(&store, {"id", "v"}, {{"r", "2"}});
  ASSERT_TRUE(a.ok() && b.ok() && c.ok() && d.ok());
  EXPECT_EQ(a->id(), b->id());
  EXPECT_NE(a->id(), c->id()) << "schema participates in identity";
  EXPECT_NE(a->id(), d->id()) << "content participates in identity";
}

TEST(FTableMergeTest, DisjointRowsMerge) {
  MemChunkStore store;
  FTable base = MakeTable(&store, 100, 10);
  auto left = base.UpdateCell("r00000010", 1, "LEFT");
  auto right = base.UpdateCell("r00000090", 2, "RIGHT");
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  auto merged = FTable::Merge3(base, *left, *right);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(**merged->GetCell("r00000010", 1), "LEFT");
  EXPECT_EQ(**merged->GetCell("r00000090", 2), "RIGHT");
}

TEST(FTableMergeTest, SameRowDifferentColumnsMerges) {
  // The column-refinement the paper's data model enables: both sides touch
  // the same row but different columns — no conflict.
  MemChunkStore store;
  FTable base = MakeTable(&store, 100, 11);
  auto left = base.UpdateCell("r00000050", 1, "LEFT");
  auto right = base.UpdateCell("r00000050", 4, "RIGHT");
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  auto merged = FTable::Merge3(base, *left, *right);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(**merged->GetCell("r00000050", 1), "LEFT");
  EXPECT_EQ(**merged->GetCell("r00000050", 4), "RIGHT");
}

TEST(FTableMergeTest, SameCellConflictsStrict) {
  MemChunkStore store;
  FTable base = MakeTable(&store, 100, 12);
  auto left = base.UpdateCell("r00000050", 1, "LEFT");
  auto right = base.UpdateCell("r00000050", 1, "RIGHT");
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  auto strict = FTable::Merge3(base, *left, *right, MergePolicy::kStrict);
  EXPECT_TRUE(strict.status().IsMergeConflict());
  auto prefer = FTable::Merge3(base, *left, *right, MergePolicy::kPreferLeft);
  ASSERT_TRUE(prefer.ok());
  EXPECT_EQ(**prefer->GetCell("r00000050", 1), "LEFT");
}

TEST(FTableMergeTest, DeleteVsUntouchedMerges) {
  MemChunkStore store;
  FTable base = MakeTable(&store, 50, 13);
  auto left = base.DeleteRow("r00000025");
  auto right = base.UpdateCell("r00000030", 1, "R");
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  auto merged = FTable::Merge3(base, *left, *right);
  ASSERT_TRUE(merged.ok());
  auto gone = merged->GetRow("r00000025");
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(gone->has_value());
  EXPECT_EQ(**merged->GetCell("r00000030", 1), "R");
}

TEST(FTableTest, ValidateDetectsRowTampering) {
  MemChunkStore store;
  FTable table = MakeTable(&store, 2000, 14);
  ASSERT_TRUE(table.Validate().ok());
  std::vector<Hash256> chunks;
  ASSERT_TRUE(table.rows().tree().ReachableChunks(&chunks).ok());
  ASSERT_TRUE(store.TamperForTesting(chunks[chunks.size() / 2], 7, 0x02));
  EXPECT_FALSE(table.Validate().ok());
}

// Attaches a 2-column table (key column 0) whose row map holds `rows` as
// stored, bypassing the encoder, so Validate sees exactly these bytes.
FTable AttachRawRows(MemChunkStore* store,
                     std::vector<std::pair<std::string, std::string>> rows) {
  auto tree = PosTree::BuildKeyed(store, ChunkType::kMapLeaf, rows);
  EXPECT_TRUE(tree.ok());
  std::string header;
  PutVarint64(&header, 2);
  PutLengthPrefixed(&header, "id");
  PutLengthPrefixed(&header, "name");
  PutVarint64(&header, 0);
  header.append(reinterpret_cast<const char*>(tree->root.bytes.data()), 32);
  Chunk chunk = Chunk::Make(ChunkType::kTableMeta, header);
  EXPECT_TRUE(store->Put(chunk).ok());
  auto table = FTable::Attach(store, chunk.hash());
  EXPECT_TRUE(table.ok());
  return *table;
}

TEST(FTableTest, ValidateChecksEveryRowAgainstTheSchema) {
  MemChunkStore store;
  const std::string good = FTable::EncodeRow({"r1", "x"});
  EXPECT_TRUE(AttachRawRows(&store, {{"r1", good}}).Validate().ok());
  // One cell short of the schema.
  EXPECT_FALSE(AttachRawRows(&store, {{"r1", FTable::EncodeRow({"r1"})}})
                   .Validate()
                   .ok());
  // Bytes past the last cell.
  EXPECT_FALSE(AttachRawRows(&store, {{"r1", good + "z"}}).Validate().ok());
  // Key cell differs from the row key.
  EXPECT_FALSE(AttachRawRows(&store, {{"r1", FTable::EncodeRow({"r2", "x"})}})
                   .Validate()
                   .ok());
  // The same, deep inside a multi-level row tree.
  std::vector<std::pair<std::string, std::string>> rows;
  for (int i = 0; i < 5000; ++i) {
    const std::string key = "r" + std::to_string(10000 + i);
    rows.emplace_back(key, FTable::EncodeRow({i == 3700 ? "r0" : key, "x"}));
  }
  Status deep = AttachRawRows(&store, rows).Validate();
  EXPECT_TRUE(deep.IsCorruption()) << deep.ToString();
}

TEST(FTableTest, RowCodecRejectsMalformed) {
  std::vector<std::string> cells;
  EXPECT_FALSE(FTable::DecodeRow(Slice("\x05nope", 5), 2, &cells));
  std::string good = FTable::EncodeRow({"a", "bb"});
  EXPECT_TRUE(FTable::DecodeRow(good, 2, &cells));
  EXPECT_EQ(cells, (std::vector<std::string>{"a", "bb"}));
  EXPECT_FALSE(FTable::DecodeRow(good, 3, &cells));
  EXPECT_FALSE(FTable::DecodeRow(good, 1, &cells)) << "trailing bytes";
}

// ---- parallel ordered scan ------------------------------------------------

using Rows = std::vector<std::pair<std::string, std::vector<std::string>>>;

// What a scan delivered, and the status it ended with.
struct Walk {
  Rows rows;
  Status status;
};

// The reference: a serial cursor walk of the row map, each row decoded.
Walk CursorWalk(const FTable& table) {
  Walk w;
  const size_t ncols = table.columns().size();
  w.status = table.rows().ForEach([&](Slice key, Slice value) -> Status {
    std::vector<std::string> cells;
    if (!FTable::DecodeRow(value, ncols, &cells)) {
      return Status::Corruption("malformed row for key " + key.ToString());
    }
    w.rows.emplace_back(key.ToString(), std::move(cells));
    return Status::OK();
  });
  return w;
}

Walk ScanWalk(const FTable& table) {
  Walk w;
  w.status = table.Scan(
      [&](Slice key, const std::vector<std::string>& cells) -> Status {
        w.rows.emplace_back(key.ToString(), cells);
        return Status::OK();
      });
  return w;
}

void ExpectSameWalk(const Walk& scan, const Walk& cursor) {
  EXPECT_EQ(scan.status.code(), cursor.status.code())
      << scan.status.ToString() << " vs " << cursor.status.ToString();
  ASSERT_EQ(scan.rows.size(), cursor.rows.size());
  EXPECT_TRUE(scan.rows == cursor.rows);
}

// Ids of the row tree's nodes at `depth` (0 = root), in key order.
std::vector<Hash256> NodesAt(const FTable& table, uint32_t depth) {
  std::vector<Hash256> ids;
  EXPECT_TRUE(table.rows()
                  .tree()
                  .WalkLevels(false,
                              [&](uint32_t d, const IndexEntry& ref,
                                  const Chunk&,
                                  const std::vector<IndexEntry>&) -> Status {
                                if (d == depth) ids.push_back(ref.child);
                                return Status::OK();
                              })
                  .ok());
  return ids;
}

std::vector<Hash256> LeavesOf(const FTable& table) {
  auto shape = table.rows().tree().Shape();
  EXPECT_TRUE(shape.ok());
  return NodesAt(table, shape->height - 1);
}

// A GenerateCsv table cut to exactly `leaves` leaves: its rows are a prefix
// of a bigger table's that ends on one of that table's leaf boundaries, and
// cut points depend only on the bytes since a node start.
FTable TableWithLeaves(MemChunkStore* store, size_t leaves) {
  CsvGenOptions opts;
  opts.num_rows = 4500;
  opts.seed = 25;
  CsvDocument doc = GenerateCsv(opts);
  auto big = FTable::FromCsv(store, doc);
  EXPECT_TRUE(big.ok());
  size_t rows = 0, seen = 0;
  for (const Hash256& id : LeavesOf(*big)) {
    if (seen++ == leaves) break;
    auto leaf = store->Get(id);
    EXPECT_TRUE(leaf.ok());
    rows += *LeafEntryCount(leaf->type(), leaf->payload());
  }
  EXPECT_EQ(seen, leaves + 1) << "base table too small";
  doc.rows.resize(rows);
  auto table = FTable::FromCsv(store, doc);
  EXPECT_TRUE(table.ok());
  auto shape = table->rows().tree().Shape();
  EXPECT_EQ(shape->leaf_nodes, leaves);
  return *table;
}

TEST(FTableScanTest, MatchesCursorWalkAroundRunAndRoundBounds) {
  {
    MemChunkStore store;
    auto empty = FTable::Create(&store, {"id", "v"}, {});
    ASSERT_TRUE(empty.ok());
    Walk w = ScanWalk(*empty);
    EXPECT_TRUE(w.status.ok());
    EXPECT_TRUE(w.rows.empty());
    ExpectSameWalk(w, CursorWalk(*empty));
  }
  // Runs hold 16 leaves and rounds 8 runs (128 leaves).
  for (size_t leaves : {1, 2, 15, 16, 17, 127, 128, 129, 255, 256, 257}) {
    SCOPED_TRACE("leaves " + std::to_string(leaves));
    MemChunkStore store;
    FTable table = TableWithLeaves(&store, leaves);
    Walk cursor = CursorWalk(table);
    ASSERT_TRUE(cursor.status.ok());
    ASSERT_FALSE(cursor.rows.empty());
    ExpectSameWalk(ScanWalk(table), cursor);
  }
}

TEST(FTableScanTest, EarlyExitStopsAtTheRowThatFailed) {
  MemChunkStore store;
  FTable table = TableWithLeaves(&store, 300);
  const Walk all = CursorWalk(table);
  for (size_t k : {size_t{0}, size_t{1}, size_t{200}, size_t{2000},
                   all.rows.size() - 1}) {
    SCOPED_TRACE("stop at row " + std::to_string(k));
    std::atomic<size_t> calls{0};
    Rows got;
    Status s = table.Scan(
        [&](Slice key, const std::vector<std::string>& cells) -> Status {
          got.emplace_back(key.ToString(), cells);
          if (calls.fetch_add(1) == k) return Status::Unavailable("stop");
          return Status::OK();
        });
    EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
    const size_t at_return = calls.load();
    EXPECT_EQ(at_return, k + 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(calls.load(), at_return) << "callback ran after Scan returned";
    ASSERT_EQ(got.size(), k + 1);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), all.rows.begin()));
  }
}

TEST(FTableScanTest, MissingLeafStopsWhereTheCursorDoes) {
  for (size_t n : {size_t{0}, size_t{15}, size_t{16}, size_t{140},
                   size_t{299}}) {
    SCOPED_TRACE("leaf " + std::to_string(n));
    MemChunkStore store;
    FTable table = TableWithLeaves(&store, 300);
    const Hash256 leaf = LeavesOf(table)[n];
    ASSERT_TRUE(store.Erase(std::vector<Hash256>{leaf}).ok());
    Walk cursor = CursorWalk(table);
    EXPECT_TRUE(cursor.status.IsNotFound()) << cursor.status.ToString();
    ExpectSameWalk(ScanWalk(table), cursor);
  }
}

TEST(FTableScanTest, MissingIndexNodeStopsWhereTheCursorDoes) {
  CsvGenOptions opts;
  opts.num_rows = 30000;
  const CsvDocument doc = GenerateCsv(opts);
  // Nodes 0 and 1 of the level under the root, and one mid-way along the
  // level above the leaves.
  for (int pick = 0; pick < 3; ++pick) {
    SCOPED_TRACE("pick " + std::to_string(pick));
    MemChunkStore store;
    auto table = FTable::FromCsv(&store, doc);
    ASSERT_TRUE(table.ok());
    const uint32_t height = table->rows().tree().Shape()->height;
    ASSERT_GE(height, 3u);
    const std::vector<Hash256> nodes =
        NodesAt(*table, pick < 2 ? 1 : height - 2);
    ASSERT_GE(nodes.size(), 2u);
    const size_t n = pick < 2 ? pick : nodes.size() / 2;
    ASSERT_TRUE(store.Erase(std::vector<Hash256>{nodes[n]}).ok());
    Walk cursor = CursorWalk(*table);
    EXPECT_TRUE(cursor.status.IsNotFound()) << cursor.status.ToString();
    EXPECT_EQ(cursor.rows.empty(), n == 0);
    ExpectSameWalk(ScanWalk(*table), cursor);
  }
}

TEST(FTableScanTest, CorruptLeafStopsWhereTheCursorDoes) {
  // Type byte flipped to a non-leaf type (kTableMeta, and kMeta, which the
  // cursor descends into), and a key length made to overrun the leaf.
  struct Tamper {
    size_t offset;
    uint8_t mask;
  };
  for (Tamper t : {Tamper{0, 0x07}, Tamper{0, 0x01}, Tamper{1, 0x80}}) {
    SCOPED_TRACE("offset " + std::to_string(t.offset));
    MemChunkStore store;
    FTable table = TableWithLeaves(&store, 150);
    ASSERT_TRUE(store.TamperForTesting(LeavesOf(table)[131], t.offset, t.mask));
    Walk cursor = CursorWalk(table);
    EXPECT_TRUE(cursor.status.IsCorruption()) << cursor.status.ToString();
    ExpectSameWalk(ScanWalk(table), cursor);
  }
}

TEST(FTableScanTest, MalformedRowStopsWhereTheCursorDoes) {
  for (int bad : {0, 37, 3700, 4999}) {
    SCOPED_TRACE("row " + std::to_string(bad));
    MemChunkStore store;
    std::vector<std::pair<std::string, std::string>> rows;
    for (int i = 0; i < 5000; ++i) {
      const std::string key = "r" + std::to_string(10000 + i);
      rows.emplace_back(key, i == bad ? FTable::EncodeRow({key})
                                      : FTable::EncodeRow({key, "x"}));
    }
    FTable table = AttachRawRows(&store, rows);
    Walk cursor = CursorWalk(table);
    EXPECT_TRUE(cursor.status.IsCorruption());
    EXPECT_EQ(cursor.rows.size(), static_cast<size_t>(bad));
    ExpectSameWalk(ScanWalk(table), cursor);
  }
}

TEST(FTableScanTest, SchemaRewritesMatchAFreshBuild) {
  MemChunkStore store;
  FTable table = TableWithLeaves(&store, 300);
  auto doc = table.ToCsv();
  ASSERT_TRUE(doc.ok());

  auto added = table.AddColumn("note", "n/a");
  ASSERT_TRUE(added.ok());
  std::vector<std::string> columns = doc->header;
  columns.push_back("note");
  std::vector<std::vector<std::string>> rows = doc->rows;
  for (auto& row : rows) row.push_back("n/a");
  auto fresh = FTable::Create(&store, columns, rows);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(added->rows().root(), fresh->rows().root());
  EXPECT_EQ(added->id(), fresh->id());

  auto dropped = table.DropColumn(2);
  ASSERT_TRUE(dropped.ok());
  columns = doc->header;
  columns.erase(columns.begin() + 2);
  rows = doc->rows;
  for (auto& row : rows) row.erase(row.begin() + 2);
  fresh = FTable::Create(&store, columns, rows);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(dropped->rows().root(), fresh->rows().root());
  EXPECT_EQ(dropped->id(), fresh->id());

  // The roots the serial cursor rewrite produced for this table.
  FTable golden = MakeTable(&store, 3000, 26);
  EXPECT_EQ(golden.rows().root().ToBase32(),
            "KBSICCPP5DX7WIKO4J72TBWPHOKLSROA7EHIRSV7HBFULT73TR2Q");
  EXPECT_EQ(golden.AddColumn("note", "n/a")->rows().root().ToBase32(),
            "T6GRR3VBKF54WMZOBFOIPURFBR77LIAASF2UV45HNG642VDGYQAA");
  EXPECT_EQ(golden.DropColumn(2)->rows().root().ToBase32(),
            "EPMGMQD37II65T3MZWSJV5OVBUPVADQGRJI2C2PB5N7ZVE63UAQA");
}

TEST(FTableScanTest, CallerScansAloneWhileThePoolIsBlocked) {
  MemChunkStore store;
  FTable table = TableWithLeaves(&store, 300);
  const Walk want = CursorWalk(table);
  WorkerPool* pool = SharedHashPool();
  std::atomic<size_t> blocked{0};
  std::atomic<bool> release{false};
  for (size_t t = 0; t < pool->thread_count(); ++t) {
    pool->Submit([&] {
      blocked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (blocked.load() < pool->thread_count()) std::this_thread::yield();
  const Walk got = ScanWalk(table);
  release.store(true);
  ExpectSameWalk(got, want);
  // The helpers queued behind the blockers find nothing left to claim.
  ExpectSameWalk(ScanWalk(table), want);
}

TEST(FTableScanTest, ConcurrentScansOfTwoTables) {
  MemChunkStore store;
  FTable a = TableWithLeaves(&store, 300);
  FTable b = MakeTable(&store, 3000, 26);
  const Walk want_a = CursorWalk(a), want_b = CursorWalk(b);
  Walk got_a, got_b;
  std::thread ta([&] {
    for (int i = 0; i < 3; ++i) got_a = ScanWalk(a);
  });
  std::thread tb([&] {
    for (int i = 0; i < 3; ++i) got_b = ScanWalk(b);
  });
  ta.join();
  tb.join();
  ExpectSameWalk(got_a, want_a);
  ExpectSameWalk(got_b, want_b);
}

}  // namespace
}  // namespace forkbase
