// Tests for version bundles: export/import closure transfer between
// independent chunk stores, self-verification, corruption rejection — the
// repo's substitution for the paper's distributed replication.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <utility>

#include "chunk/file_chunk_store.h"
#include "chunk/mem_chunk_store.h"
#include "store/bundle.h"
#include "util/codec.h"
#include "util/datagen.h"
#include "util/delta_codec.h"
#include "util/random.h"

namespace forkbase {
namespace {

BundleSink AppendTo(std::string* out) {
  return [out](Slice bytes) {
    out->append(bytes.data(), bytes.size());
    return Status::OK();
  };
}

// ---------------------------------------------------------------- layouts --
//
// ExportBundle writes only v3. v1 and v2 are frozen formats the importer
// still reads, so the tests frame them here from a chunk list.

enum class Layout { kV1, kV2, kV3 };

std::string LayoutName(const ::testing::TestParamInfo<Layout>& info) {
  return "v" + std::to_string(static_cast<int>(info.param) + 1);
}

// The frozen framing: v1 "FBND" (one head) or v2 "FBD2", chunk records
// sorted by id, each the length-prefixed logical bytes.
std::string FrameFrozenBundle(Layout layout, const std::vector<Hash256>& heads,
                              std::vector<Chunk> chunks) {
  std::sort(chunks.begin(), chunks.end(),
            [](const Chunk& a, const Chunk& b) { return a.hash() < b.hash(); });
  std::string out;
  PutFixed32(&out, layout == Layout::kV1 ? 0x46424e44 : 0x46424432);
  if (layout == Layout::kV2) PutVarint64(&out, heads.size());
  for (const auto& head : heads) {
    out.append(reinterpret_cast<const char*>(head.bytes.data()), 32);
  }
  PutVarint64(&out, chunks.size());
  for (const auto& chunk : chunks) PutLengthPrefixed(&out, chunk.bytes());
  return out;
}

// `ids` of `store` under `heads`, in `layout` (v1 takes one head).
std::string BundleOf(Layout layout, const ChunkStore& store,
                     const std::vector<Hash256>& heads,
                     const std::vector<Hash256>& ids) {
  std::string out;
  if (layout == Layout::kV3) {
    EXPECT_TRUE(ExportBundle(store, heads, ids, AppendTo(&out)).ok());
    return out;
  }
  std::vector<Chunk> chunks;
  for (const auto& id : ids) {
    auto chunk = store.Get(id);
    EXPECT_TRUE(chunk.ok());
    if (chunk.ok()) chunks.push_back(*chunk);
  }
  return FrameFrozenBundle(layout, heads, std::move(chunks));
}

// The full closure of `head` — value tree and history — in `layout`.
std::string FullBundle(Layout layout, const ChunkStore& store,
                       const Hash256& head) {
  auto ids = DeltaClosure(store, {head}, {});
  EXPECT_TRUE(ids.ok()) << ids.status().ToString();
  if (!ids.ok()) return "";
  return BundleOf(layout, store, {head}, *ids);
}

class BundleLayoutTest : public ::testing::TestWithParam<Layout> {};

INSTANTIATE_TEST_SUITE_P(Layouts, BundleLayoutTest,
                         ::testing::Values(Layout::kV1, Layout::kV2,
                                           Layout::kV3),
                         LayoutName);

TEST_P(BundleLayoutTest, RoundTripReplicatesBranch) {
  auto src_store = std::make_shared<MemChunkStore>();
  ForkBase src(src_store);
  CsvGenOptions opts;
  opts.num_rows = 800;
  ASSERT_TRUE(src.PutTableFromCsv("ds", GenerateCsv(opts), 0, "master",
                                  {"alice", "v1"})
                  .ok());
  ASSERT_TRUE(src.UpdateTableCell("ds", "r00000100", 2, "edited", "master",
                                  {"alice", "v2"})
                  .ok());
  auto head = src.Head("ds");
  ASSERT_TRUE(head.ok());

  const std::string bundle = FullBundle(GetParam(), *src_store, *head);
  EXPECT_GT(bundle.size(), 1000u);

  // Pull into a completely fresh store.
  auto dst_store = std::make_shared<MemChunkStore>();
  auto import = ImportBundle(bundle, dst_store.get());
  ASSERT_TRUE(import.ok()) << import.status().ToString();
  EXPECT_EQ(import->head, *head);
  EXPECT_EQ(import->new_chunks, import->chunks);

  ForkBase dst(dst_store);
  dst.branches().SetHead("ds", "master", import->head);
  EXPECT_TRUE(dst.Verify(*head).ok());
  auto table = dst.GetTable("ds");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(**table->GetCell("r00000100", 2), "edited");
  // Full history travelled with the bundle.
  auto history = dst.History("ds");
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->size(), 2u);
  EXPECT_EQ((*history)[1].author, "alice");
}

TEST(BundleTest, IncrementalPushSendsOnlyNewChunks) {
  auto src_store = std::make_shared<MemChunkStore>();
  ForkBase src(src_store);
  auto dst_store = std::make_shared<MemChunkStore>();

  CsvGenOptions opts;
  opts.num_rows = 1500;
  ASSERT_TRUE(src.PutTableFromCsv("ds", GenerateCsv(opts)).ok());
  auto v1 = src.Head("ds");
  ASSERT_TRUE(v1.ok());
  auto i1 = ImportBundle(FullBundle(Layout::kV3, *src_store, *v1),
                         dst_store.get());
  ASSERT_TRUE(i1.ok());

  // Small edit; the second bundle still carries the closure, but only a few
  // chunks are NEW on the destination.
  ASSERT_TRUE(src.UpdateTableCell("ds", "r00000750", 3, "x").ok());
  auto v2 = src.Head("ds");
  ASSERT_TRUE(v2.ok());
  auto i2 = ImportBundle(FullBundle(Layout::kV3, *src_store, *v2),
                         dst_store.get());
  ASSERT_TRUE(i2.ok());
  EXPECT_LT(i2->new_chunks, i2->chunks / 4)
      << "most chunks were already present (content-addressed transfer)";
}

TEST(BundleTest, RejectsGarbage) {
  MemChunkStore dst;
  EXPECT_TRUE(ImportBundle(Slice("not a bundle"), &dst).status().IsCorruption());
  EXPECT_TRUE(ImportBundle(Slice(""), &dst).status().IsCorruption());
}

TEST_P(BundleLayoutTest, RejectsTamperedChunk) {
  auto src_store = std::make_shared<MemChunkStore>();
  ForkBase src(src_store);
  ASSERT_TRUE(src.PutMap("k", {{"a", "1"}, {"b", "2"}}).ok());
  auto head = src.Head("k");
  ASSERT_TRUE(head.ok());

  // Flip one byte inside the last record's body.
  std::string corrupted = FullBundle(GetParam(), *src_store, *head);
  corrupted[corrupted.size() - 5] ^= 0x10;
  MemChunkStore dst;
  auto import = ImportBundle(corrupted, &dst);
  ASSERT_FALSE(import.ok());
  EXPECT_TRUE(import.status().IsCorruption());
}

TEST_P(BundleLayoutTest, RejectsMissingHead) {
  auto src_store = std::make_shared<MemChunkStore>();
  ForkBase src(src_store);
  ASSERT_TRUE(src.PutMap("k", {{"a", "1"}}).ok());
  auto head = src.Head("k");
  ASSERT_TRUE(head.ok());
  // Swap the head uid for a different hash: closure can't contain it. It
  // follows the magic, and in v2/v3 the one-byte head count.
  std::string forged = FullBundle(GetParam(), *src_store, *head);
  const size_t head_offset = GetParam() == Layout::kV1 ? 4 : 5;
  ASSERT_EQ(std::memcmp(forged.data() + head_offset, head->bytes.data(), 32),
            0);
  Hash256 fake = Sha256(Slice("fake"));
  std::memcpy(forged.data() + head_offset, fake.bytes.data(), 32);
  MemChunkStore dst;
  auto import = ImportBundle(forged, &dst);
  ASSERT_FALSE(import.ok());
  EXPECT_TRUE(import.status().IsCorruption());
}

// The source store under test: in memory (tampered in place) or in segment
// files (tampered on disk, then reopened).
class ExportTamperTest : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(Stores, ExportTamperTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "file" : "mem";
                         });

TEST_P(ExportTamperTest, ExportRefusesTamperedSource) {
  const bool on_disk = GetParam();
  const std::string dir = ::testing::TempDir() + "/fb_bundle_tamper_src";
  std::filesystem::remove_all(dir);
  std::shared_ptr<MemChunkStore> mem;
  std::shared_ptr<ChunkStore> store;
  if (on_disk) {
    auto opened = FileChunkStore::Open(dir);
    ASSERT_TRUE(opened.ok());
    store = std::move(*opened);
  } else {
    store = mem = std::make_shared<MemChunkStore>();
  }
  Hash256 head, root;
  std::string root_bytes;
  std::vector<Hash256> ids;
  {
    ForkBase src(store);
    ASSERT_TRUE(src.PutMap("k", {{"a", "1"}, {"b", "2"}, {"c", "3"}}).ok());
    head = *src.Head("k");
    root = src.GetMap("k")->root();
    root_bytes = store->Get(root)->bytes().ToString();
    auto closure = DeltaClosure(*store, {head}, {});
    ASSERT_TRUE(closure.ok());
    ids = *closure;
  }
  if (on_disk) {
    // Flip a byte of the root's record, which holds its chunk bytes
    // verbatim, and reopen, so the bytes come back off the disk.
    store.reset();
    const std::string segment = dir + "/segment-0.fbc";
    std::string bytes;
    {
      std::ifstream in(segment, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    const size_t at = bytes.find(root_bytes);
    ASSERT_NE(at, std::string::npos);
    bytes[at + 2] ^= 0x01;
    {
      std::ofstream out(segment, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    auto reopened = FileChunkStore::Open(dir);
    ASSERT_TRUE(reopened.ok());
    store = std::move(*reopened);
  } else {
    ASSERT_TRUE(mem->TamperForTesting(root, 2, 0x01));
  }
  std::string out;
  auto bundle = ExportBundle(*store, {head}, ids, AppendTo(&out));
  ASSERT_FALSE(bundle.ok());
  EXPECT_TRUE(bundle.status().IsCorruption());
  EXPECT_NE(bundle.status().message().find("refusing to export"),
            std::string::npos)
      << bundle.status().ToString();
  store.reset();
  std::filesystem::remove_all(dir);
}

TEST(BundleTest, DeterministicBytes) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  ASSERT_TRUE(db.PutMap("k", {{"x", "1"}, {"y", "2"}}).ok());
  auto head = db.Head("k");
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(FullBundle(Layout::kV3, *store, *head),
            FullBundle(Layout::kV3, *store, *head));
}

TEST(BundleTest, SinkErrorsAbortTheExport) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  CsvGenOptions opts;
  opts.num_rows = 600;
  ASSERT_TRUE(db.PutTableFromCsv("ds", GenerateCsv(opts)).ok());
  auto head = db.Head("ds");
  ASSERT_TRUE(head.ok());
  auto ids = DeltaClosure(*store, {*head}, {});
  ASSERT_TRUE(ids.ok());

  std::string streamed;
  auto stats = ExportBundle(*store, {*head}, *ids, AppendTo(&streamed));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->bytes, streamed.size());
  EXPECT_EQ(stats->chunks, ids->size());

  // Sink errors abort the export and surface unchanged.
  auto refused = ExportBundle(*store, {*head}, *ids, [](Slice) {
    return Status::IOError("disk full");
  });
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kIOError);
}

TEST(BundleTest, DeltaBundleShipsOnlyNewChunks) {
  auto src_store = std::make_shared<MemChunkStore>();
  ForkBase src(src_store);
  CsvGenOptions opts;
  opts.num_rows = 1200;
  ASSERT_TRUE(src.PutTableFromCsv("ds", GenerateCsv(opts)).ok());
  auto v1 = src.Head("ds");
  ASSERT_TRUE(v1.ok());

  // Replicate v1, then make a small edit on the source.
  auto dst_store = std::make_shared<MemChunkStore>();
  const std::string full = FullBundle(Layout::kV3, *src_store, *v1);
  ASSERT_TRUE(ImportBundle(full, dst_store.get()).ok());
  ASSERT_TRUE(src.UpdateTableCell("ds", "r00000600", 2, "edited").ok());
  auto v2 = src.Head("ds");
  ASSERT_TRUE(v2.ok());

  // The delta against the replicated frontier carries only the edit's
  // chunks — unlike the full bundle, which re-ships the whole closure.
  auto ids = DeltaClosure(*src_store, {*v2}, {*v1});
  ASSERT_TRUE(ids.ok());
  std::string delta;
  ASSERT_TRUE(ExportBundle(*src_store, {*v2}, *ids, AppendTo(&delta)).ok());
  EXPECT_LT(delta.size(), full.size() / 4);

  auto import = ImportBundle(delta, dst_store.get());
  ASSERT_TRUE(import.ok()) << import.status().ToString();
  EXPECT_EQ(import->new_chunks, import->chunks)
      << "a delta bundle carries nothing the receiver already had";
  EXPECT_EQ(import->head, *v2);

  // The replica now reads v2 bit-exact.
  ForkBase dst(dst_store);
  dst.branches().SetHead("ds", "master", *v2);
  ASSERT_TRUE(dst.Verify(*v2).ok());
  EXPECT_EQ(**dst.GetTable("ds")->GetCell("r00000600", 2), "edited");
}

TEST(BundleTest, DeltaMissingAChangedPathChunkIsRejected) {
  // A replica at v1; the source edits one cell. Dropping any one chunk of
  // the edit's path from the delta must fail the closure check — whatever
  // the check prunes against the replica's own head — and leave the
  // replica's head where it was.
  auto src_store = std::make_shared<MemChunkStore>();
  ForkBase src(src_store);
  CsvGenOptions opts;
  opts.num_rows = 3000;
  ASSERT_TRUE(src.PutTableFromCsv("ds", GenerateCsv(opts)).ok());
  auto v1 = src.Head("ds");
  ASSERT_TRUE(v1.ok());
  const std::string full = FullBundle(Layout::kV3, *src_store, *v1);
  ASSERT_TRUE(src.UpdateTableCell("ds", "r00002000", 3, "edited").ok());
  auto v2 = src.Head("ds");
  ASSERT_TRUE(v2.ok());
  auto delta_ids = DeltaClosure(*src_store, {*v2}, {*v1}, src.commit_graph());
  ASSERT_TRUE(delta_ids.ok()) << delta_ids.status().ToString();

  auto fresh_replica = [&](std::shared_ptr<MemChunkStore>* store) {
    *store = std::make_shared<MemChunkStore>();
    auto replica = std::make_unique<ForkBase>(*store);
    EXPECT_TRUE(ImportBundle(full, store->get(), replica.get()).ok());
    replica->branches().SetHead("ds", "master", *v1);
    return replica;
  };
  auto bundle_of = [&](const std::vector<Hash256>& ids) {
    std::string bytes;
    EXPECT_TRUE(ExportBundle(*src_store, {*v2}, ids, AppendTo(&bytes)).ok());
    return bytes;
  };

  size_t dropped = 0;
  for (const auto& omit : *delta_ids) {
    if (omit == *v2) continue;  // a missing head fails earlier
    std::shared_ptr<MemChunkStore> store;
    auto replica = fresh_replica(&store);
    ASSERT_FALSE(store->Contains(omit));
    std::vector<Hash256> ids;
    for (const auto& id : *delta_ids) {
      if (id != omit) ids.push_back(id);
    }
    auto import = ImportBundle(Slice(bundle_of(ids)), store.get(),
                               replica.get());
    ASSERT_FALSE(import.ok()) << "accepted a delta without "
                              << omit.ToBase32();
    EXPECT_TRUE(import.status().IsCorruption());
    EXPECT_NE(import.status().message().find("closure incomplete"),
              std::string::npos)
        << import.status().ToString();
    EXPECT_EQ(*replica->Head("ds"), *v1);
    ++dropped;
  }
  EXPECT_GE(dropped, 3u) << "header, index and leaf of the edited path";

  // The complete delta lands.
  std::shared_ptr<MemChunkStore> store;
  auto replica = fresh_replica(&store);
  auto import =
      ImportBundle(Slice(bundle_of(*delta_ids)), store.get(), replica.get());
  ASSERT_TRUE(import.ok()) << import.status().ToString();
  EXPECT_EQ(import->new_chunks, import->chunks);
}

TEST(BundleTest, DeltaCoversSubtreesARevertBringsBack) {
  // v1 edits k1; v2 edits a key k2 near it, so k1's new leaf moves under a
  // new parent; v3 reverts k2, bringing v1's parent back. The delta from v0
  // to v3 must still carry k1's leaf, which only v1 introduced: v3's walk
  // skips v1's parent as held by nobody, and v1's descent must not then
  // take it as already handled. Several distances from k1 to k2 cover
  // "same leaf", "same parent" and "elsewhere" layouts.
  std::vector<std::pair<std::string, std::string>> kvs;
  for (int i = 0; i < 5000; ++i) {
    kvs.emplace_back("key" + std::to_string(100000 + i),
                     "value-" + std::to_string(i));
  }
  for (size_t distance : {1u, 30u, 60u, 120u, 250u, 500u}) {
    auto store = std::make_shared<MemChunkStore>();
    ForkBase db(store);
    ASSERT_TRUE(db.PutMap("m", kvs).ok());
    auto v0 = db.Head("m");
    const std::string& k1 = kvs[2000].first;
    const std::string& k2 = kvs[2000 + distance].first;
    ASSERT_TRUE(db.UpdateMap("m", {KeyedOp{k1, "edited"}}).ok());
    ASSERT_TRUE(db.UpdateMap("m", {KeyedOp{k2, "changed"}}).ok());
    ASSERT_TRUE(
        db.UpdateMap("m", {KeyedOp{k2, kvs[2000 + distance].second}}).ok());
    auto v3 = db.Head("m");
    auto delta = DeltaClosure(*store, {*v3}, {*v0}, db.commit_graph());
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    const std::set<Hash256> sent(delta->begin(), delta->end());
    auto needed = MarkLive(*store, {*v3});
    auto held = MarkLive(*store, {*v0});
    ASSERT_TRUE(needed.ok() && held.ok());
    for (const auto& id : *needed) {
      if (held->count(id)) continue;
      EXPECT_TRUE(sent.count(id)) << "distance " << distance << ": delta lacks "
                                  << id.ToBase32();
    }
  }
}

// ------------------------------------------------ streaming importer --

namespace {
// Builds a moderately sized bundle (two commits, many chunks) in `layout`
// and returns (bundle bytes, head) for the streaming-importer tests.
std::pair<std::string, Hash256> MakeTestBundle(Layout layout) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase src(store);
  CsvGenOptions opts;
  opts.num_rows = 400;
  EXPECT_TRUE(src.PutTableFromCsv("ds", GenerateCsv(opts), 0, "master",
                                  {"alice", "v1"})
                  .ok());
  EXPECT_TRUE(src.UpdateTableCell("ds", "r00000100", 2, "edited", "master",
                                  {"alice", "v2"})
                  .ok());
  auto head = src.Head("ds");
  EXPECT_TRUE(head.ok());
  return {FullBundle(layout, *store, *head), *head};
}
}  // namespace

TEST_P(BundleLayoutTest, StreamingImporterMatchesOneShot) {
  auto [bundle, head] = MakeTestBundle(GetParam());
  auto one_shot_store = std::make_shared<MemChunkStore>();
  auto one_shot = ImportBundle(bundle, one_shot_store.get());
  ASSERT_TRUE(one_shot.ok());

  // Feed the same bytes in awkward, uneven slices — the importer must parse
  // across every possible record boundary.
  auto streamed_store = std::make_shared<MemChunkStore>();
  BundleImporter importer(streamed_store.get());
  const size_t steps[] = {1, 7, 13, 64, 4096};
  size_t offset = 0, turn = 0;
  while (offset < bundle.size()) {
    size_t take = std::min(steps[turn++ % 5], bundle.size() - offset);
    ASSERT_TRUE(importer.Feed(Slice(bundle.data() + offset, take)).ok());
    offset += take;
  }
  auto streamed = importer.Finish();
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

  EXPECT_EQ(streamed->head, one_shot->head);
  EXPECT_EQ(streamed->chunks, one_shot->chunks);
  EXPECT_EQ(streamed->new_chunks, one_shot->new_chunks);
  EXPECT_EQ(importer.pending_bytes(), 0u);
  EXPECT_TRUE(streamed_store->Contains(head));
}

TEST(BundleTest, StreamingImporterKeepsCompletedChunksOfATornUpload) {
  auto [bundle, head] = MakeTestBundle(Layout::kV3);
  (void)head;

  auto dst = std::make_shared<MemChunkStore>();
  BundleImporter importer(dst.get());
  // Only half the stream arrives before the "connection" dies.
  ASSERT_TRUE(importer.Feed(Slice(bundle.data(), bundle.size() / 2)).ok());
  EXPECT_GT(importer.chunks_imported(), 0u)
      << "complete records should land as they stream in";
  auto result = importer.Finish();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  // The chunks that did land persist — this is what lets a retried push
  // negotiate a strictly smaller delta.
  EXPECT_GT(dst->stats().chunk_count, 0u);
}

TEST(BundleTest, StreamingImporterRejectsTamperedRecordMidStream) {
  auto [bundle, head] = MakeTestBundle(Layout::kV3);
  (void)head;
  bundle[bundle.size() - 5] ^= 0x10;  // flip a bit inside the last record

  auto dst = std::make_shared<MemChunkStore>();
  BundleImporter importer(dst.get());
  Status status = Status::OK();
  size_t offset = 0;
  while (offset < bundle.size() && status.ok()) {
    size_t take = std::min<size_t>(512, bundle.size() - offset);
    status = importer.Feed(Slice(bundle.data() + offset, take));
    offset += take;
  }
  if (status.ok()) status = importer.Finish().status();
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  // The error is sticky: the importer refuses everything after.
  EXPECT_FALSE(importer.Feed(Slice(bundle.data(), 1)).ok());
}

// ------------------------------------------------ packed (v3) bundles --

namespace {
// An encoded segment store holding a version chain (stored as deltas) and
// a repetitive chunk (stored LZ-compressed).
struct EncodedSource {
  std::string dir;
  std::unique_ptr<FileChunkStore> store;
  std::vector<Chunk> chunks;
  std::vector<Hash256> ids;

  explicit EncodedSource(const std::string& name, size_t payload_bytes = 1024)
      : dir(::testing::TempDir() + "/" + name) {
    std::filesystem::remove_all(dir);
    FileChunkStore::Options fopts;
    fopts.compression = FileChunkStore::Compression::kLz;
    fopts.delta_chain_depth = 3;
    fopts.delta_window = 8;
    auto opened = FileChunkStore::Open(dir, fopts);
    EXPECT_TRUE(opened.ok());
    store = std::move(*opened);
    Rng rng(51);
    std::string payload = rng.NextString(payload_bytes);
    for (int v = 0; v < 6; ++v) {
      if (v > 0) payload[rng.Uniform(payload.size())] ^= 0x5a;
      chunks.push_back(Chunk::Make(ChunkType::kCell, payload));
    }
    chunks.push_back(Chunk::Make(ChunkType::kCell,
                                 std::string(2 * payload_bytes, 'z') +
                                     "unique tail"));
    EXPECT_TRUE(store->PutMany(chunks).ok());
    for (const auto& c : chunks) ids.push_back(c.hash());
  }
  ~EncodedSource() {
    store.reset();
    std::filesystem::remove_all(dir);
  }
};
}  // namespace

TEST(PackedBundleTest, RawFallbackIsV2PlusOneTagBytePerRecord) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  CsvGenOptions opts;
  opts.num_rows = 500;
  ASSERT_TRUE(db.PutTableFromCsv("ds", GenerateCsv(opts)).ok());
  auto head = db.Head("ds");
  ASSERT_TRUE(head.ok());
  auto live = MarkLive(*store, {*head});
  ASSERT_TRUE(live.ok());
  std::vector<Hash256> ids(live->begin(), live->end());

  const std::string v2 = BundleOf(Layout::kV2, *store, {*head}, ids);
  std::string v3;
  auto s3 = ExportBundle(*store, {*head}, ids, AppendTo(&v3));
  ASSERT_TRUE(s3.ok());
  EXPECT_EQ(s3->chunks, ids.size());
  EXPECT_EQ(s3->delta_chunks, 0u) << "a MemChunkStore has no delta records";
  EXPECT_EQ(s3->compressed_chunks, 0u);
  // Identical header length, identical bodies, one encoding tag per record.
  EXPECT_EQ(v3.size(), v2.size() + ids.size());

  auto dst = std::make_shared<MemChunkStore>();
  auto import = ImportBundle(Slice(v3), dst.get());
  ASSERT_TRUE(import.ok()) << import.status().ToString();
  EXPECT_EQ(import->chunks, s3->chunks);
  EXPECT_EQ(import->head, *head);
  ForkBase replica(dst);
  replica.branches().SetHead("ds", "master", *head);
  EXPECT_TRUE(replica.Verify(*head).ok());
}

TEST(PackedBundleTest, StreamingImporterHandlesPackedRecords) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  ASSERT_TRUE(db.PutMap("k", {{"a", "1"}, {"b", "2"}, {"c", "3"}}).ok());
  auto head = db.Head("k");
  ASSERT_TRUE(head.ok());
  auto live = MarkLive(*store, {*head});
  ASSERT_TRUE(live.ok());
  std::vector<Hash256> ids(live->begin(), live->end());
  std::string packed;
  ASSERT_TRUE(ExportBundle(*store, {*head}, ids, AppendTo(&packed)).ok());

  // Byte-at-a-time feed: the tag byte must not confuse record framing.
  auto dst = std::make_shared<MemChunkStore>();
  BundleImporter importer(dst.get());
  for (size_t i = 0; i < packed.size(); ++i) {
    ASSERT_TRUE(importer.Feed(Slice(packed.data() + i, 1)).ok());
  }
  auto result = importer.Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->chunks, ids.size());
  EXPECT_TRUE(dst->Contains(*head));
}

TEST(PackedBundleTest, ShipsDeltaAndCompressedRecordsFromAnEncodedStore) {
  // The payoff case: a source store that actually holds delta chains and LZ
  // blocks exports them at their physical footprint, and the importer
  // rebuilds every logical chunk bit-exactly on a store that knows nothing
  // about the source's encoding.
  EncodedSource src("fb_bundle_encoded_src");
  const Hash256 head = src.chunks.front().hash();
  std::string packed;
  auto sp = ExportBundle(*src.store, {head}, src.ids, AppendTo(&packed));
  ASSERT_TRUE(sp.ok());
  EXPECT_GT(sp->delta_chunks, 0u) << "the chain must cross the wire as deltas";
  EXPECT_GT(sp->compressed_chunks, 0u);
  const std::string raw = BundleOf(Layout::kV2, *src.store, {head}, src.ids);
  EXPECT_LT(packed.size(), raw.size())
      << "physical records must make the packed bundle smaller";

  auto dst = std::make_shared<MemChunkStore>();
  auto import = ImportBundle(Slice(packed), dst.get());
  ASSERT_TRUE(import.ok()) << import.status().ToString();
  EXPECT_EQ(import->chunks, src.chunks.size());
  for (const auto& c : src.chunks) {
    auto got = dst->Get(c.hash());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->bytes().ToString(), c.bytes().ToString());
  }
}

TEST(PackedBundleTest, RejectsUnknownRecordEncoding) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  ASSERT_TRUE(db.PutMap("k", {{"a", "1"}}).ok());
  auto head = db.Head("k");
  ASSERT_TRUE(head.ok());
  auto live = MarkLive(*store, {*head});
  ASSERT_TRUE(live.ok());
  std::vector<Hash256> ids(live->begin(), live->end());
  std::string packed;
  ASSERT_TRUE(ExportBundle(*store, {*head}, ids, AppendTo(&packed)).ok());
  // Header: magic(4) + varint(1 head) + 32 + varint(chunk count). The first
  // record's tag byte sits right after its length varint; corrupt it.
  size_t pos = 4 + 1 + 32;
  while (static_cast<uint8_t>(packed[pos]) & 0x80) ++pos;  // chunk count
  ++pos;
  while (static_cast<uint8_t>(packed[pos]) & 0x80) ++pos;  // record length
  ++pos;
  packed[pos] = 0x7f;  // no such encoding
  MemChunkStore dst;
  auto import = ImportBundle(Slice(packed), &dst);
  ASSERT_FALSE(import.ok());
  EXPECT_TRUE(import.status().IsCorruption());
}

// A v3 bundle of one record whose decoder claims a 2^62-byte output — an
// allocation no host can satisfy. Both codecs must refuse the claim before
// sizing anything, so the import fails instead of aborting the process.
std::string HostileRecordBundle(const Hash256& head, uint8_t enc,
                                const Hash256& base) {
  std::string claim;
  PutVarint64(&claim, uint64_t{1} << 62);
  PutVarint64(&claim, 1u << 1);  // a one-byte literal/insert run
  claim.push_back('x');
  std::string body;
  if (enc == 2) {
    body.append(reinterpret_cast<const char*>(base.bytes.data()), 32);
    body.append(claim);
    PutFixed32(&body, DeltaChecksum(Slice("x")));
  } else {
    body = claim;
  }
  std::string out;
  PutFixed32(&out, 0x46424433);  // "FBD3"
  PutVarint64(&out, 1);
  out.append(reinterpret_cast<const char*>(head.bytes.data()), 32);
  PutVarint64(&out, 1);
  PutVarint64(&out, body.size());
  out.push_back(static_cast<char>(enc));
  out.append(body);
  return out;
}

TEST(PackedBundleTest, HostileDecodedLengthIsCorruptionNotAnAbort) {
  const Chunk base = Chunk::Make(ChunkType::kCell, "a resident delta base");
  const Hash256 head = Sha256(Slice("head"));
  for (uint8_t enc : {uint8_t{1}, uint8_t{2}}) {
    SCOPED_TRACE(enc == 1 ? "lz" : "delta");
    const std::string bundle = HostileRecordBundle(head, enc, base.hash());
    {
      MemChunkStore dst;
      ASSERT_TRUE(dst.Put(base).ok());
      auto import = ImportBundle(Slice(bundle), &dst);
      ASSERT_FALSE(import.ok());
      EXPECT_EQ(import.status().code(), StatusCode::kCorruption)
          << import.status().ToString();
    }
    {
      MemChunkStore dst;
      ASSERT_TRUE(dst.Put(base).ok());
      BundleImporter importer(&dst);
      Status fed = Status::OK();
      for (size_t i = 0; i < bundle.size() && fed.ok(); i += 3) {
        fed = importer.Feed(
            Slice(bundle.data() + i, std::min<size_t>(3, bundle.size() - i)));
      }
      EXPECT_EQ(fed.code(), StatusCode::kCorruption) << fed.ToString();
      EXPECT_EQ(importer.Finish().status().code(), StatusCode::kCorruption);
    }
  }
}

TEST(PackedBundleTest, EveryStrictPrefixIsCorruptionAtFinish) {
  // Each layout, v3 with delta and LZ records among its raw ones: a bundle
  // cut anywhere is a torn upload, never an accepted one or a crash.
  EncodedSource src("fb_bundle_prefix_src", 256);
  const Hash256 head = src.chunks.front().hash();
  for (Layout layout : {Layout::kV1, Layout::kV2, Layout::kV3}) {
    SCOPED_TRACE(static_cast<int>(layout));
    const std::string bundle = BundleOf(layout, *src.store, {head}, src.ids);
    ASSERT_FALSE(bundle.empty());
    for (size_t len = 0; len < bundle.size(); ++len) {
      MemChunkStore dst;
      BundleImporter importer(&dst);
      ASSERT_TRUE(importer.Feed(Slice(bundle.data(), len)).ok()) << len;
      EXPECT_EQ(importer.Finish().status().code(), StatusCode::kCorruption)
          << "prefix of " << len << " of " << bundle.size() << " bytes";
    }
    MemChunkStore dst;
    BundleImporter importer(&dst);
    ASSERT_TRUE(importer.Feed(Slice(bundle)).ok());
    auto whole = importer.Finish();
    ASSERT_TRUE(whole.ok()) << whole.status().ToString();
    EXPECT_EQ(whole->chunks, src.chunks.size());
  }
}

// ------------------------------------------- typed update conveniences --

TEST(FacadeUpdateTest, UpdateMapCommits) {
  ForkBase db(std::make_shared<MemChunkStore>());
  ASSERT_TRUE(db.PutMap("m", {{"a", "1"}}).ok());
  ASSERT_TRUE(db.UpdateMap("m", {KeyedOp{"b", std::string("2")},
                                 KeyedOp{"a", std::nullopt}})
                  .ok());
  auto map = db.GetMap("m");
  ASSERT_TRUE(map.ok());
  EXPECT_FALSE((*map->Get("a")).has_value());
  EXPECT_EQ(**map->Get("b"), "2");
  auto history = db.History("m");
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->size(), 2u);
}

TEST(FacadeUpdateTest, AppendBlobAndList) {
  ForkBase db(std::make_shared<MemChunkStore>());
  ASSERT_TRUE(db.PutBlob("b", "hello").ok());
  ASSERT_TRUE(db.AppendBlob("b", " world").ok());
  EXPECT_EQ(*db.GetBlob("b")->ReadAll(), "hello world");

  ASSERT_TRUE(db.PutList("l", {"one"}).ok());
  ASSERT_TRUE(db.AppendList("l", "two").ok());
  EXPECT_EQ(*db.GetList("l")->Get(1), "two");
}

TEST(FacadeUpdateTest, UpdateRequiresMatchingType) {
  ForkBase db(std::make_shared<MemChunkStore>());
  ASSERT_TRUE(db.Put("s", Value::String("not a map")).ok());
  EXPECT_FALSE(db.UpdateMap("s", {KeyedOp{"k", std::string("v")}}).ok());
  EXPECT_FALSE(db.AppendBlob("s", "x").ok());
}

}  // namespace
}  // namespace forkbase
