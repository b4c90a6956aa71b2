// The parallel bulk build (TreeBuilder::AddEntries) against the streaming
// one (TreeBuilder::AddEntry): the same root, the same chunks, and the same
// puts in the same batches, on every input shape the segment stitch has to
// get right — segment and round edges, long keys, oversized entries, inputs
// on which chains from different starts never merge, and key-order errors
// that fall exactly on a seam.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chunk/mem_chunk_store.h"
#include "postree/tree.h"
#include "types/table.h"
#include "util/datagen.h"
#include "util/random.h"
#include "util/rolling_hash.h"

namespace forkbase {
namespace {

constexpr size_t kSeg = TreeBuilder::kBulkSegmentEntries;
constexpr size_t kRound = TreeBuilder::kBulkRoundSegments * kSeg;

/// Records the ids of every write, one list per store call, in call order.
class RecordingStore : public MemChunkStore {
 public:
  std::vector<std::vector<Hash256>> writes;

 protected:
  Status PutImpl(const Chunk& chunk) override {
    writes.push_back({chunk.hash()});
    return MemChunkStore::PutImpl(chunk);
  }
  Status PutManyImpl(std::span<const Chunk> chunks) override {
    writes.emplace_back();
    for (const Chunk& c : chunks) writes.back().push_back(c.hash());
    return MemChunkStore::PutManyImpl(chunks);
  }
};

/// Serialized entries with their sort keys (empty for positional trees).
struct Entries {
  std::vector<std::string> bytes;
  std::vector<std::string> keys;
  size_t size() const { return bytes.size(); }
};

struct Build {
  TreeInfo info;
  std::vector<std::vector<Hash256>> writes;
};

Build Stream(ChunkType type, const Entries& in) {
  RecordingStore store;
  TreeBuilder builder(&store, type, TreeConfig::ForEntries());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_TRUE(builder.AddEntry(in.bytes[i], in.keys[i]).ok());
  }
  auto info = builder.Finish();
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  return {info.ok() ? *info : TreeInfo{}, std::move(store.writes)};
}

/// Bulk-loads entries [0, bulk) and streams the rest, if any, after them.
Build Bulk(ChunkType type, const Entries& in, size_t bulk) {
  RecordingStore store;
  TreeBuilder builder(&store, type, TreeConfig::ForEntries());
  Status s = builder.AddEntries(bulk, [&](size_t i, std::string* out) {
    out->append(in.bytes[i]);
    return Slice(in.keys[i]);
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  for (size_t i = bulk; i < in.size(); ++i) {
    EXPECT_TRUE(builder.AddEntry(in.bytes[i], in.keys[i]).ok());
  }
  auto info = builder.Finish();
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  return {info.ok() ? *info : TreeInfo{}, std::move(store.writes)};
}

void ExpectSameBuild(ChunkType type, const Entries& in, size_t bulk) {
  const Build streamed = Stream(type, in);
  const Build bulked = Bulk(type, in, bulk);
  EXPECT_EQ(streamed.info.root, bulked.info.root) << "n=" << in.size();
  EXPECT_EQ(streamed.info.count, bulked.info.count);
  EXPECT_EQ(streamed.info.height, bulked.info.height);
  EXPECT_EQ(streamed.info.nodes_written, bulked.info.nodes_written);
  EXPECT_TRUE(streamed.writes == bulked.writes)
      << "put order or batching differs, n=" << in.size();
}

void ExpectSameBuild(ChunkType type, const Entries& in) {
  ExpectSameBuild(type, in, in.size());
}

/// Map entries with `key_bytes`-byte keys (ascending) and random values.
Entries MapEntries(size_t n, size_t key_bytes = 12, uint64_t seed = 1) {
  Rng rng(seed);
  Entries out;
  for (size_t i = 0; i < n; ++i) {
    std::string key = std::to_string(i);
    key = std::string(key_bytes - key.size(), '0') + key;
    std::string entry;
    AppendMapEntry(&entry, key, rng.NextString(8 + rng.Uniform(40)));
    out.bytes.push_back(std::move(entry));
    out.keys.push_back(std::move(key));
  }
  return out;
}

/// List entries; every `huge_every`-th element (if set) is larger than a
/// leaf's max_bytes, so it closes a leaf on its own.
Entries ListEntries(size_t n, size_t huge_every = 0, uint64_t seed = 2) {
  Rng rng(seed);
  Entries out;
  for (size_t i = 0; i < n; ++i) {
    const bool huge = huge_every != 0 && i % huge_every == huge_every - 1;
    std::string entry;
    AppendListEntry(&entry, rng.NextString(huge ? 9000 : 1 + rng.Uniform(60)));
    out.bytes.push_back(std::move(entry));
    out.keys.emplace_back();
  }
  return out;
}

TEST(BulkBuildTest, KeyedAndListTreesMatchTheStreamAtEveryEdge) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, kSeg - 1, kSeg, kSeg + 1,
                   kRound - 1, kRound, kRound + 1, size_t{100000}}) {
    ExpectSameBuild(ChunkType::kMapLeaf, MapEntries(n));
    ExpectSameBuild(ChunkType::kListLeaf, ListEntries(n));
  }
}

TEST(BulkBuildTest, LongKeysAndOversizedEntriesMatchTheStream) {
  // 260-byte keys: index entries reach the split bounds on their own.
  ExpectSameBuild(ChunkType::kMapLeaf, MapEntries(2 * kSeg + 5, 260));
  // 9000-byte keys: every entry is larger than max_bytes, so each one is a
  // leaf of its own.
  ExpectSameBuild(ChunkType::kSetLeaf, MapEntries(kSeg + 2, 9000));
  // Oversized elements among small ones.
  ExpectSameBuild(ChunkType::kListLeaf, ListEntries(kRound + 1, 997));
}

TEST(BulkBuildTest, StreamingContinuesAfterABulkLoad) {
  // AddEntries leaves its open leaf to the stream: entries added after it
  // land exactly where a pure stream would put them.
  const Entries in = MapEntries(kSeg + 777);
  ExpectSameBuild(ChunkType::kMapLeaf, in, kSeg + 10);
  ExpectSameBuild(ChunkType::kMapLeaf, in, 1);
}

TEST(BulkBuildTest, ChainsThatNeverMergeAreCarriedAcrossWholeSegments) {
  // Equal-size list elements of one filler byte, chosen so that the
  // pattern fires nowhere in the entry stream: only max_bytes cuts, every
  // leaf holds exactly `per_leaf` entries, and the chain a segment splits
  // from its own start never meets the true chain. The caller must carry
  // the true chain through every segment.
  const SplitConfig split = SplitConfig::Entries();
  std::string filler_entry;
  for (size_t len = 100; len < 130 && filler_entry.empty(); ++len) {
    for (char c = 'a'; c <= 'z' && filler_entry.empty(); ++c) {
      std::string entry;
      AppendListEntry(&entry, std::string(len, c));
      RollingHash roller(split.window, split.q_bits);
      bool fired = false;
      // Node starts are entry starts, so two leaves' worth of the periodic
      // stream from a reset covers every window a leaf can see.
      for (size_t b = 0; b < 2 * split.max_bytes && !fired; ++b) {
        fired = roller.Roll(static_cast<uint8_t>(entry[b % entry.size()]));
      }
      if (!fired) filler_entry = entry;
    }
  }
  ASSERT_FALSE(filler_entry.empty()) << "no pattern-free filler found";
  const size_t per_leaf =
      (split.max_bytes + filler_entry.size() - 1) / filler_entry.size();
  const size_t n = kRound + kSeg + 3;
  for (size_t seam = kSeg; seam < n; seam += kSeg) {
    ASSERT_NE(seam % per_leaf, 0u) << "chains would merge at " << seam;
  }
  Entries in;
  in.bytes.assign(n, filler_entry);
  in.keys.assign(n, "");
  ExpectSameBuild(ChunkType::kListLeaf, in);
  const Build built = Bulk(ChunkType::kListLeaf, in, n);
  EXPECT_EQ(built.info.count, n);
}

TEST(BulkBuildTest, ShuffledTableLoadMatchesTheStreamedRowMap) {
  CsvGenOptions opts;
  opts.num_rows = 3 * kSeg + 123;
  CsvDocument doc = GenerateCsv(opts);
  Entries sorted;
  for (const auto& row : doc.rows) {
    std::string entry;
    AppendMapEntry(&entry, row[0], FTable::EncodeRow(row));
    sorted.bytes.push_back(std::move(entry));
    sorted.keys.push_back(row[0]);
  }
  const Build streamed = Stream(ChunkType::kMapLeaf, sorted);

  Rng rng(23);
  for (size_t i = doc.rows.size(); i > 1; --i) {
    std::swap(doc.rows[i - 1], doc.rows[rng.Uniform(i)]);
  }
  RecordingStore store;
  auto table = FTable::FromCsv(&store, doc);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->rows().root(), streamed.info.root);
  // The row map's puts, then the header's.
  ASSERT_EQ(store.writes.size(), streamed.writes.size() + 1);
  store.writes.pop_back();
  EXPECT_TRUE(store.writes == streamed.writes);
}

TEST(BulkBuildTest, KeyOrderErrorsAreFoundWithinSegmentsAndAcrossSeams) {
  MemChunkStore store;
  std::vector<std::pair<std::string, std::string>> kvs;
  for (size_t i = 0; i < kRound + kSeg; ++i) {
    kvs.emplace_back("k" + std::to_string(1000000 + i), "v");
  }
  auto expect_error_at = [&](const std::vector<std::pair<std::string,
                                                         std::string>>& in,
                             size_t at) {
    auto built = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, in);
    ASSERT_EQ(built.status().code(), StatusCode::kInvalidArgument) << at;
    EXPECT_NE(built.status().ToString().find("at entry " + std::to_string(at)),
              std::string::npos)
        << built.status().ToString();
  };
  for (size_t at : {kSeg, kRound, kSeg + 10, size_t{1}}) {
    auto descending = kvs;  // a descending pair ending exactly at `at`
    std::swap(descending[at - 1], descending[at]);
    expect_error_at(descending, at);
    auto repeated = kvs;  // an equal pair
    repeated[at].first = repeated[at - 1].first;
    expect_error_at(repeated, at);
  }
  EXPECT_TRUE(PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs).ok());
}

TEST(BulkBuildTest, RejectsABuilderWithAnOpenLeaf) {
  MemChunkStore store;
  TreeBuilder builder(&store, ChunkType::kListLeaf, TreeConfig::ForEntries());
  std::string entry;
  AppendListEntry(&entry, "x");
  ASSERT_TRUE(builder.AddEntry(entry, Slice()).ok());
  Status s = builder.AddEntries(1, [&](size_t, std::string* out) {
    out->append(entry);
    return Slice();
  });
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace forkbase
