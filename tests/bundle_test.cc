// Tests for version bundles: export/import closure transfer between
// independent chunk stores, self-verification, corruption rejection — the
// repo's substitution for the paper's distributed replication.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <utility>

#include "chunk/file_chunk_store.h"
#include "chunk/mem_chunk_store.h"
#include "store/bundle.h"
#include "util/datagen.h"
#include "util/random.h"

namespace forkbase {
namespace {

TEST(BundleTest, RoundTripReplicatesBranch) {
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

  auto bundle = ExportBundle(*src_store, *head);
  ASSERT_TRUE(bundle.ok());
  EXPECT_GT(bundle->size(), 1000u);

  // Pull into a completely fresh store.
  auto dst_store = std::make_shared<MemChunkStore>();
  auto import = ImportBundle(*bundle, dst_store.get());
  ASSERT_TRUE(import.ok());
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
  auto b1 = ExportBundle(*src_store, *v1);
  ASSERT_TRUE(b1.ok());
  auto i1 = ImportBundle(*b1, dst_store.get());
  ASSERT_TRUE(i1.ok());

  // Small edit; the second bundle still carries the closure, but only a few
  // chunks are NEW on the destination.
  ASSERT_TRUE(src.UpdateTableCell("ds", "r00000750", 3, "x").ok());
  auto v2 = src.Head("ds");
  ASSERT_TRUE(v2.ok());
  auto b2 = ExportBundle(*src_store, *v2);
  ASSERT_TRUE(b2.ok());
  auto i2 = ImportBundle(*b2, dst_store.get());
  ASSERT_TRUE(i2.ok());
  EXPECT_LT(i2->new_chunks, i2->chunks / 4)
      << "most chunks were already present (content-addressed transfer)";
}

TEST(BundleTest, RejectsGarbage) {
  MemChunkStore dst;
  EXPECT_TRUE(ImportBundle(Slice("not a bundle"), &dst).status().IsCorruption());
  EXPECT_TRUE(ImportBundle(Slice(""), &dst).status().IsCorruption());
}

TEST(BundleTest, RejectsTamperedChunk) {
  auto src_store = std::make_shared<MemChunkStore>();
  ForkBase src(src_store);
  ASSERT_TRUE(src.PutMap("k", {{"a", "1"}, {"b", "2"}}).ok());
  auto head = src.Head("k");
  ASSERT_TRUE(head.ok());
  auto bundle = ExportBundle(*src_store, *head);
  ASSERT_TRUE(bundle.ok());

  // Flip one byte inside the bundle body (past magic + head).
  std::string corrupted = *bundle;
  corrupted[corrupted.size() - 5] ^= 0x10;
  MemChunkStore dst;
  auto import = ImportBundle(corrupted, &dst);
  ASSERT_FALSE(import.ok());
  EXPECT_TRUE(import.status().IsCorruption());
}

TEST(BundleTest, RejectsMissingHead) {
  auto src_store = std::make_shared<MemChunkStore>();
  ForkBase src(src_store);
  ASSERT_TRUE(src.PutMap("k", {{"a", "1"}}).ok());
  auto head = src.Head("k");
  ASSERT_TRUE(head.ok());
  auto bundle = ExportBundle(*src_store, *head);
  ASSERT_TRUE(bundle.ok());
  // Swap the head uid for a different hash: closure can't contain it.
  std::string forged = *bundle;
  Hash256 fake = Sha256(Slice("fake"));
  std::memcpy(forged.data() + 4, fake.bytes.data(), 32);
  MemChunkStore dst;
  auto import = ImportBundle(forged, &dst);
  ASSERT_FALSE(import.ok());
  EXPECT_TRUE(import.status().IsCorruption());
}

TEST(BundleTest, ExportRefusesTamperedSource) {
  auto src_store = std::make_shared<MemChunkStore>();
  ForkBase src(src_store);
  ASSERT_TRUE(src.PutMap("k", {{"a", "1"}, {"b", "2"}, {"c", "3"}}).ok());
  auto head = src.Head("k");
  ASSERT_TRUE(head.ok());
  auto map = src.GetMap("k");
  ASSERT_TRUE(map.ok());
  src_store->TamperForTesting(map->root(), 2, 0x01);
  auto bundle = ExportBundle(*src_store, *head);
  ASSERT_FALSE(bundle.ok());
  EXPECT_TRUE(bundle.status().IsCorruption());
}

TEST(BundleTest, DeterministicBytes) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  ASSERT_TRUE(db.PutMap("k", {{"x", "1"}, {"y", "2"}}).ok());
  auto head = db.Head("k");
  ASSERT_TRUE(head.ok());
  auto b1 = ExportBundle(*store, *head);
  auto b2 = ExportBundle(*store, *head);
  ASSERT_TRUE(b1.ok() && b2.ok());
  EXPECT_EQ(*b1, *b2);
}

TEST(BundleTest, StreamingSinkMatchesStringForm) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  CsvGenOptions opts;
  opts.num_rows = 600;
  ASSERT_TRUE(db.PutTableFromCsv("ds", GenerateCsv(opts)).ok());
  auto head = db.Head("ds");
  ASSERT_TRUE(head.ok());

  auto whole = ExportBundle(*store, *head);
  ASSERT_TRUE(whole.ok());

  // The sink form produces the same bytes regardless of write granularity.
  std::string streamed;
  auto stats = ExportBundle(*store, *head, [&](Slice bytes) {
    streamed.append(bytes.data(), bytes.size());
    return Status::OK();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(streamed, *whole);
  EXPECT_EQ(stats->bytes, whole->size());
  EXPECT_GT(stats->chunks, 0u);

  // Sink errors abort the export and surface unchanged.
  auto refused = ExportBundle(*store, *head, [](Slice) {
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
  auto full = ExportBundle(*src_store, *v1);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(ImportBundle(*full, dst_store.get()).ok());
  ASSERT_TRUE(src.UpdateTableCell("ds", "r00000600", 2, "edited").ok());
  auto v2 = src.Head("ds");
  ASSERT_TRUE(v2.ok());

  // The delta against the replicated frontier carries only the edit's
  // chunks — unlike the full bundle, which re-ships the whole closure.
  std::string delta;
  auto stats = ExportDeltaBundle(*src_store, {*v2}, {*v1},
                                 [&](Slice bytes) {
                                   delta.append(bytes.data(), bytes.size());
                                   return Status::OK();
                                 });
  ASSERT_TRUE(stats.ok());
  EXPECT_LT(delta.size(), full->size() / 4);

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
  auto full = ExportBundle(*src_store, *v1);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(src.UpdateTableCell("ds", "r00002000", 3, "edited").ok());
  auto v2 = src.Head("ds");
  ASSERT_TRUE(v2.ok());
  auto delta_ids = DeltaClosure(*src_store, {*v2}, {*v1}, src.commit_graph());
  ASSERT_TRUE(delta_ids.ok()) << delta_ids.status().ToString();

  auto fresh_replica = [&](std::shared_ptr<MemChunkStore>* store) {
    *store = std::make_shared<MemChunkStore>();
    auto replica = std::make_unique<ForkBase>(*store);
    EXPECT_TRUE(ImportBundle(*full, store->get(), replica.get()).ok());
    replica->branches().SetHead("ds", "master", *v1);
    return replica;
  };
  auto bundle_of = [&](const std::vector<Hash256>& ids) {
    std::string bytes;
    EXPECT_TRUE(ExportBundleOfIds(*src_store, {*v2}, ids, [&](Slice b) {
                  bytes.append(b.data(), b.size());
                  return Status::OK();
                }).ok());
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
// Builds a moderately sized bundle (two commits, many chunks) and returns
// (bundle bytes, head) for the streaming-importer tests.
std::pair<std::string, Hash256> MakeTestBundle() {
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
  auto bundle = ExportBundle(*store, *head);
  EXPECT_TRUE(bundle.ok());
  return {*bundle, *head};
}
}  // namespace

TEST(BundleTest, StreamingImporterMatchesOneShot) {
  auto [bundle, head] = MakeTestBundle();

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
  auto [bundle, head] = MakeTestBundle();
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
  auto [bundle, head] = MakeTestBundle();
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

  std::string v2, v3;
  auto collect = [](std::string* out) {
    return [out](Slice bytes) {
      out->append(bytes.data(), bytes.size());
      return Status::OK();
    };
  };
  auto s2 = ExportBundleOfIds(*store, {*head}, ids, collect(&v2));
  auto s3 = ExportPackedBundleOfIds(*store, {*head}, ids, collect(&v3));
  ASSERT_TRUE(s2.ok() && s3.ok());
  EXPECT_EQ(s3->chunks, s2->chunks);
  EXPECT_EQ(s3->delta_chunks, 0u) << "a MemChunkStore has no delta records";
  EXPECT_EQ(s3->compressed_chunks, 0u);
  // Identical header length, identical bodies, one encoding tag per record.
  EXPECT_EQ(v3.size(), v2.size() + s2->chunks);

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
  ASSERT_TRUE(ExportPackedBundleOfIds(*store, {*head}, ids,
                                      [&](Slice bytes) {
                                        packed.append(bytes.data(),
                                                      bytes.size());
                                        return Status::OK();
                                      })
                  .ok());

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
  const std::string dir =
      ::testing::TempDir() + "/fb_bundle_encoded_src";
  std::filesystem::remove_all(dir);
  FileChunkStore::Options fopts;
  fopts.compression = FileChunkStore::Compression::kLz;
  fopts.delta_chain_depth = 3;
  fopts.delta_window = 8;
  auto fstore_or = FileChunkStore::Open(dir, fopts);
  ASSERT_TRUE(fstore_or.ok());
  auto& fstore = **fstore_or;

  // A version chain (deltas) plus a repetitive chunk (compressed).
  Rng rng(51);
  std::string payload = rng.NextString(1024);
  std::vector<Chunk> chunks;
  for (int v = 0; v < 6; ++v) {
    if (v > 0) payload[rng.Uniform(payload.size())] ^= 0x5a;
    chunks.push_back(Chunk::Make(ChunkType::kCell, payload));
  }
  chunks.push_back(Chunk::Make(ChunkType::kCell,
                               std::string(2048, 'z') + "unique tail"));
  ASSERT_TRUE(fstore.PutMany(chunks).ok());

  std::vector<Hash256> ids;
  for (const auto& c : chunks) ids.push_back(c.hash());
  std::string packed, raw;
  auto collect = [](std::string* out) {
    return [out](Slice bytes) {
      out->append(bytes.data(), bytes.size());
      return Status::OK();
    };
  };
  auto sp = ExportPackedBundleOfIds(fstore, {chunks.front().hash()}, ids,
                                    collect(&packed));
  auto sr = ExportBundleOfIds(fstore, {chunks.front().hash()}, ids,
                              collect(&raw));
  ASSERT_TRUE(sp.ok() && sr.ok());
  EXPECT_GT(sp->delta_chunks, 0u) << "the chain must cross the wire as deltas";
  EXPECT_GT(sp->compressed_chunks, 0u);
  EXPECT_LT(packed.size(), raw.size())
      << "physical records must make the packed bundle smaller";

  auto dst = std::make_shared<MemChunkStore>();
  auto import = ImportBundle(Slice(packed), dst.get());
  ASSERT_TRUE(import.ok()) << import.status().ToString();
  EXPECT_EQ(import->chunks, chunks.size());
  for (const auto& c : chunks) {
    auto got = dst->Get(c.hash());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->bytes().ToString(), c.bytes().ToString());
  }
  std::filesystem::remove_all(dir);
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
  ASSERT_TRUE(ExportPackedBundleOfIds(*store, {*head}, ids,
                                      [&](Slice bytes) {
                                        packed.append(bytes.data(),
                                                      bytes.size());
                                        return Status::OK();
                                      })
                  .ok());
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
