// A4 — micro-benchmarks of core primitives and operations, on
// google-benchmark. Covers: SHA-256 and rolling-hash throughput, POS-Tree
// build / lookup / commit / scan / diff, blob read, ForkBase Put/Get, and
// batched vs. scalar chunk-store I/O (the baseline for the sharded batch
// subsystem).
#include <benchmark/benchmark.h>
#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <semaphore>
#include <thread>

#include "bench_common.h"
#include "chunk/caching_chunk_store.h"
#include "chunk/file_chunk_store.h"
#include "chunk/mem_chunk_store.h"
#include "chunk/tiered_chunk_store.h"
#include "postree/builder.h"
#include "postree/diff.h"
#include "postree/splitter.h"
#include "store/bundle.h"
#include "store/forkbase.h"
#include "store/gc.h"
#include "testing/remote_chunk_store.h"
#include "testing/serial_walk.h"
#include "types/table.h"
#include "util/datagen.h"
#include "util/rolling_hash.h"
#include "util/sha256.h"
#include "util/worker_pool.h"

namespace forkbase {
namespace bench {
namespace {

void BM_Sha256(benchmark::State& state) {
  std::string data = Rng(1).NextBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(256)->Arg(4096)->Arg(65536);

void BM_RollingHash(benchmark::State& state) {
  std::string data = Rng(2).NextBytes(1 << 20);
  RollingHash h(48, 12);
  for (auto _ : state) {
    uint64_t fired = 0;
    for (char c : data) fired += h.Roll(static_cast<uint8_t>(c));
    benchmark::DoNotOptimize(fired);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_RollingHash);

// ---- hardware hashing & block-wise chunking (docs/hashing.md) ----
//
// The Scalar/Dispatched pair measures the SHA core swap in isolation; the
// ChunkerOld/Blockwise pair measures the splitter rewrite in isolation (Old
// reproduces the retired per-byte AddByte loop on the unchanged Roll());
// BM_IngestBandwidth is the end-to-end blob ingest both feed into.

void BM_Sha256ThroughputScalar(benchmark::State& state) {
  std::string data = Rng(3).NextBytes(1 << 20);
  for (auto _ : state) {
    Sha256Hasher h(Sha256Backend::kScalar);
    h.Update(data);
    benchmark::DoNotOptimize(h.Finish());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Sha256ThroughputScalar);

void BM_Sha256ThroughputDispatched(benchmark::State& state) {
  std::string data = Rng(3).NextBytes(1 << 20);
  state.SetLabel(ActiveSha256BackendName());
  for (auto _ : state) {
    Sha256Hasher h;  // whatever cpu_features resolved for this host
    h.Update(data);
    benchmark::DoNotOptimize(h.Finish());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Sha256ThroughputDispatched);

void BM_HashManyBatched(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(4);
  std::vector<std::string> bufs;
  bufs.reserve(n);
  int64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    bufs.push_back(rng.NextBytes(4096));
    total += 4096;
  }
  std::vector<Slice> spans(bufs.begin(), bufs.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256Many(spans, SharedHashPool()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * total);
}
BENCHMARK(BM_HashManyBatched)->Arg(64)->Arg(512);

void BM_ChunkerThroughputOld(benchmark::State& state) {
  std::string data = Rng(5).NextBytes(8 << 20);
  const SplitConfig cfg = SplitConfig::Blob();
  for (auto _ : state) {
    // The retired formulation: one Roll per byte, bounds checked per byte.
    RollingHash roller(cfg.window, cfg.q_bits);
    size_t node_bytes = 0;
    uint64_t cuts = 0;
    for (char c : data) {
      const bool pattern = roller.Roll(static_cast<uint8_t>(c));
      ++node_bytes;
      if (node_bytes >= cfg.max_bytes ||
          (pattern && node_bytes >= cfg.min_bytes)) {
        ++cuts;
        node_bytes = 0;
        roller.Reset();
      }
    }
    benchmark::DoNotOptimize(cuts);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_ChunkerThroughputOld);

void BM_ChunkerThroughputBlockwise(benchmark::State& state) {
  std::string data = Rng(5).NextBytes(8 << 20);
  for (auto _ : state) {
    NodeSplitter splitter(SplitConfig::Blob());
    uint64_t cuts = 0;
    const uint8_t* p = reinterpret_cast<const uint8_t*>(data.data());
    size_t remaining = data.size();
    while (remaining > 0) {
      bool cut = false;
      const size_t took = splitter.Feed(p, remaining, &cut);
      p += took;
      remaining -= took;
      if (cut) {
        ++cuts;
        splitter.ResetNode();
      }
    }
    benchmark::DoNotOptimize(cuts);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_ChunkerThroughputBlockwise);

int64_t IngestOnce(const std::string& data) {
  MemChunkStore store;
  TreeBuilder builder(&store, ChunkType::kBlobLeaf, TreeConfig::ForBlob());
  if (!builder.AddBytes(Slice(data)).ok()) return 0;
  auto info = builder.Finish();
  return info.ok() ? static_cast<int64_t>(info->nodes_written) : 0;
}

void BM_IngestBandwidth(benchmark::State& state) {
  std::string data = Rng(6).NextBytes(8 << 20);
  state.SetLabel(ActiveSha256BackendName());
  for (auto _ : state) {
    benchmark::DoNotOptimize(IngestOnce(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_IngestBandwidth);

void BM_IngestBandwidthScalarSha(benchmark::State& state) {
  std::string data = Rng(6).NextBytes(8 << 20);
  const Sha256Backend prev =
      SetSha256BackendForTesting(Sha256Backend::kScalar);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IngestOnce(data));
  }
  SetSha256BackendForTesting(prev);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_IngestBandwidthScalarSha);

void BM_MapBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto kvs = RandomKvs(n, n);
  for (auto _ : state) {
    MemChunkStore store;
    auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
    benchmark::DoNotOptimize(info.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_MapBuild)->Arg(1000)->Arg(10000)->Arg(100000);

// Bulk table ingest as PutTableFromCsv runs it: rows of 6 three-word cells
// (~12 MB of CSV at 100k rows) into a fresh in-memory store, in key order or
// shuffled (the load then sorts them). Bytes processed are the document's
// CSV bytes.
void TableFromCsv(benchmark::State& state, bool shuffled) {
  CsvGenOptions opts;
  opts.num_rows = static_cast<size_t>(state.range(0));
  CsvDocument doc = GenerateCsv(opts);
  if (shuffled) {
    Rng rng(23);
    for (size_t i = doc.rows.size(); i > 1; --i) {
      std::swap(doc.rows[i - 1], doc.rows[rng.Uniform(i)]);
    }
  }
  for (auto _ : state) {
    MemChunkStore store;
    auto table = FTable::FromCsv(&store, doc);
    benchmark::DoNotOptimize(table.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(CsvBytes(doc)));
}
void BM_TableFromCsv(benchmark::State& state) { TableFromCsv(state, false); }
BENCHMARK(BM_TableFromCsv)->Arg(100000);
void BM_TableFromShuffledCsv(benchmark::State& state) {
  TableFromCsv(state, true);
}
BENCHMARK(BM_TableFromShuffledCsv)->Arg(100000);

// Bench-local streaming reference for the parallel bulk load: the row map
// built as FTable::Create built it before loads went parallel — one
// TreeBuilder::AddEntry per row, each row encoded into two reused buffers,
// on the caller's thread only. In-order input, so no sort; the header chunk
// (one small Put) is left out.
void BM_TableFromCsvStreaming(benchmark::State& state) {
  CsvGenOptions opts;
  opts.num_rows = static_cast<size_t>(state.range(0));
  CsvDocument doc = GenerateCsv(opts);
  for (auto _ : state) {
    MemChunkStore store;
    TreeBuilder builder(&store, ChunkType::kMapLeaf, TreeConfig::ForEntries());
    std::string encoded, entry;
    for (size_t i = 0; i < doc.rows.size(); ++i) {
      const std::vector<std::string>& row = doc.rows[i];
      if (row.size() != doc.header.size() ||
          (i > 0 && !(doc.rows[i - 1][0] < row[0]))) {
        state.SkipWithError("rows not in key order");
        return;
      }
      encoded.clear();
      for (const auto& cell : row) PutLengthPrefixed(&encoded, cell);
      entry.clear();
      AppendMapEntry(&entry, row[0], encoded);
      if (!builder.AddEntry(entry, row[0]).ok()) {
        state.SkipWithError("AddEntry failed");
        return;
      }
    }
    auto info = builder.Finish();
    benchmark::DoNotOptimize(info.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(CsvBytes(doc)));
}
// The gated pair runs in wall-clock time: the bulk load spreads its work
// over the hash pool, so the caller thread's CPU time would flatter it.
BENCHMARK(BM_TableFromCsv)->Arg(100000)->UseRealTime();
BENCHMARK(BM_TableFromCsvStreaming)->Arg(100000)->UseRealTime();

void BM_MapLookup(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  MemChunkStore store;
  auto kvs = RandomKvs(n, n);
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  PosTree tree(&store, ChunkType::kMapLeaf, info->root);
  Rng rng(7);
  for (auto _ : state) {
    auto v = tree.Lookup(kvs[rng.Uniform(kvs.size())].first);
    benchmark::DoNotOptimize(v.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MapLookup)->Arg(1000)->Arg(100000);

void BM_MapCommit(benchmark::State& state) {
  // One-key functional update (the write path of every Put).
  const size_t n = static_cast<size_t>(state.range(0));
  MemChunkStore store;
  auto kvs = RandomKvs(n, n);
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  PosTree tree(&store, ChunkType::kMapLeaf, info->root);
  Rng rng(8);
  int i = 0;
  for (auto _ : state) {
    auto updated = tree.ApplyKeyedOps(
        {KeyedOp{kvs[rng.Uniform(kvs.size())].first,
                 "v" + std::to_string(i++)}});
    benchmark::DoNotOptimize(updated.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MapCommit)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_MapScan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  MemChunkStore store;
  auto kvs = RandomKvs(n, n);
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  PosTree tree(&store, ChunkType::kMapLeaf, info->root);
  for (auto _ : state) {
    uint64_t count = 0;
    (void)tree.Scan([&count](const EntryView&) {
      ++count;
      return Status::OK();
    });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_MapScan)->Arg(10000)->Arg(100000);

void BM_Diff(benchmark::State& state) {
  const size_t n = 100000;
  const size_t d = static_cast<size_t>(state.range(0));
  MemChunkStore store;
  auto kvs = RandomKvs(n, 9);
  auto info = PosTree::BuildKeyed(&store, ChunkType::kMapLeaf, kvs);
  PosTree a(&store, ChunkType::kMapLeaf, info->root);
  Rng rng(10);
  std::vector<KeyedOp> ops;
  for (size_t i = 0; i < d; ++i) {
    ops.push_back(
        KeyedOp{kvs[rng.Uniform(kvs.size())].first, rng.NextString(8)});
  }
  auto edited = a.ApplyKeyedOps(ops);
  PosTree b(&store, ChunkType::kMapLeaf, edited->root);
  for (auto _ : state) {
    auto deltas = DiffKeyed(a, b);
    benchmark::DoNotOptimize(deltas.ok());
  }
}
BENCHMARK(BM_Diff)->Arg(1)->Arg(64)->Arg(1024);

void BM_BlobBuild(benchmark::State& state) {
  std::string data = Rng(11).NextBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    MemChunkStore store;
    auto info = PosTree::BuildBlob(&store, data);
    benchmark::DoNotOptimize(info.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BlobBuild)->Arg(64 << 10)->Arg(1 << 20)->Arg(8 << 20);

void BM_BlobRead(benchmark::State& state) {
  MemChunkStore store;
  std::string data = Rng(12).NextBytes(8 << 20);
  auto info = PosTree::BuildBlob(&store, data);
  PosTree tree(&store, ChunkType::kBlobLeaf, info->root,
               TreeConfig::ForBlob());
  Rng rng(13);
  std::string out;
  for (auto _ : state) {
    uint64_t offset = rng.Uniform((8 << 20) - 65536);
    (void)tree.ReadBytes(offset, 65536, &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 65536);
}
BENCHMARK(BM_BlobRead);

void BM_ForkBasePutGetString(benchmark::State& state) {
  ForkBase db(std::make_shared<MemChunkStore>());
  Rng rng(14);
  int i = 0;
  for (auto _ : state) {
    std::string key = "key" + std::to_string(i % 64);
    (void)db.Put(key, Value::String("value-" + std::to_string(i)));
    auto v = db.Get(key);
    benchmark::DoNotOptimize(v.ok());
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ForkBasePutGetString);

// ---- batched vs. scalar chunk-store I/O ----------------------------------
//
// The pairs below are the throughput baseline for FileChunkStore's batch
// subsystem: scalar Put pays one record append + fflush per chunk, PutMany
// one per batch; scalar Get opens its segment per call, GetMany opens each
// touched segment once per batch. Chunk payloads are small (256 B) so the
// per-call overhead, not the payload copy, dominates — the regime every
// POS-Tree node write/read lives in.

constexpr size_t kIoChunkBytes = 256;

// Fresh unique chunks, pre-hashed so the SHA cost stays out of the timed
// region for both sides of each comparison.
std::vector<Chunk> MakeUniqueChunks(size_t n, uint64_t* counter) {
  std::vector<Chunk> chunks;
  chunks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string payload = "unique-" + std::to_string((*counter)++);
    payload.resize(kIoChunkBytes, 'x');
    chunks.push_back(Chunk::Make(ChunkType::kCell, payload));
    chunks.back().hash();
  }
  return chunks;
}

class ScopedStoreDir {
 public:
  explicit ScopedStoreDir(const std::string& tag)
      : dir_(std::filesystem::temp_directory_path() /
             ("fb_bench_" + tag + std::to_string(::getpid()))) {
    std::filesystem::remove_all(dir_);
  }
  ~ScopedStoreDir() { std::filesystem::remove_all(dir_); }
  std::string path() const { return dir_.string(); }

 private:
  std::filesystem::path dir_;
};

void BM_FileStorePutScalar(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  ScopedStoreDir dir("put_scalar");
  auto store = FileChunkStore::Open(dir.path());
  uint64_t counter = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto chunks = MakeUniqueChunks(batch, &counter);
    state.ResumeTiming();
    for (const auto& c : chunks) {
      benchmark::DoNotOptimize((*store)->Put(c).ok());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch * kIoChunkBytes));
}
BENCHMARK(BM_FileStorePutScalar)->Arg(64)->Arg(256)->Arg(1024);

void BM_FileStorePutBatched(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  ScopedStoreDir dir("put_batched");
  auto store = FileChunkStore::Open(dir.path());
  uint64_t counter = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto chunks = MakeUniqueChunks(batch, &counter);
    state.ResumeTiming();
    benchmark::DoNotOptimize((*store)->PutMany(chunks).ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch * kIoChunkBytes));
}
BENCHMARK(BM_FileStorePutBatched)->Arg(64)->Arg(256)->Arg(1024);

void BM_FileStoreGetScalar(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  ScopedStoreDir dir("get_scalar");
  auto store = FileChunkStore::Open(dir.path());
  uint64_t counter = 0;
  auto chunks = MakeUniqueChunks(4096, &counter);
  (void)(*store)->PutMany(chunks);
  Rng rng(21);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Hash256> ids;
    ids.reserve(batch);
    for (size_t i = 0; i < batch; ++i) {
      ids.push_back(chunks[rng.Uniform(chunks.size())].hash());
    }
    state.ResumeTiming();
    for (const auto& id : ids) {
      benchmark::DoNotOptimize((*store)->Get(id).ok());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_FileStoreGetScalar)->Arg(64)->Arg(256);

void BM_FileStoreGetBatched(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  ScopedStoreDir dir("get_batched");
  auto store = FileChunkStore::Open(dir.path());
  uint64_t counter = 0;
  auto chunks = MakeUniqueChunks(4096, &counter);
  (void)(*store)->PutMany(chunks);
  Rng rng(22);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Hash256> ids;
    ids.reserve(batch);
    for (size_t i = 0; i < batch; ++i) {
      ids.push_back(chunks[rng.Uniform(chunks.size())].hash());
    }
    state.ResumeTiming();
    auto results = (*store)->GetMany(ids);
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_FileStoreGetBatched)->Arg(64)->Arg(256);

// ---- scans: the parallel leaf walk against the serial reference --------
//
// Every scan pair reads one tree two ways on one store. The walk side is
// PosTree::Scan (or FTable::Scan): the leaf walk reads runs of 16 leaves
// with one GetMany each, on the caller and the hash pool's helpers, while
// the caller consumes entries in order. The serial side is SerialScan
// (testing/serial_walk.h): one scalar Get per node on the caller, the
// plain depth-first walk the leaf walk must beat. The pair names keep
// their Async (walk) and Sync (serial) suffixes. The File benches read a
// page-cache-warm file store, so little latency is there to hide; the
// SlowDevice pair adds a fixed per-read device latency (seek/network
// class) on top of it, the regime reading ahead exists for.

/// Reads a slow device serves at once. The walk issues one read per
/// thread, from the caller and the hash pool's helpers, so the device, not
/// the host's core count, bounds the reads in flight on any host with at
/// least this many hardware threads; with fewer, the walk issues fewer and
/// the slow scan pairs' ratios fall with them.
constexpr size_t kDeviceQueueDepth = 4;

/// A device of queue depth kDeviceQueueDepth in front of a real store:
/// every Get and GetMany, on the calling thread, waits for one of that many
/// slots and holds it while it pays a fixed latency and reads the base.
/// With latency 0 it only queues the base's reads, as for a simulated
/// remote whose round trips already pay their latency.
class SlowChunkStore : public ChunkStore {
 public:
  SlowChunkStore(std::shared_ptr<ChunkStore> base, unsigned latency_us)
      : base_(std::move(base)), latency_us_(latency_us) {}

  StatusOr<Chunk> Get(const Hash256& id) const override {
    return Serve([&] { return base_->Get(id); });
  }
  std::vector<StatusOr<Chunk>> GetMany(
      std::span<const Hash256> ids) const override {
    return Serve([&] { return base_->GetMany(ids); });
  }
  bool Contains(const Hash256& id) const override {
    return base_->Contains(id);
  }
  ChunkStoreStats stats() const override { return base_->stats(); }
  void ForEach(const std::function<void(const Hash256&, const Chunk&)>& fn)
      const override {
    base_->ForEach(fn);
  }

 protected:
  Status PutImpl(const Chunk& chunk) override { return base_->Put(chunk); }
  Status PutManyImpl(std::span<const Chunk> chunks) override {
    return base_->PutMany(chunks);
  }

 private:
  template <typename Read>
  auto Serve(Read&& read) const -> decltype(read()) {
    slots_.acquire();
    std::this_thread::sleep_for(std::chrono::microseconds(latency_us_));
    auto result = read();
    slots_.release();
    return result;
  }
  std::shared_ptr<ChunkStore> base_;
  const unsigned latency_us_;
  mutable std::counting_semaphore<kDeviceQueueDepth> slots_{
      kDeviceQueueDepth};
};

constexpr size_t kScanEntries = 100000;
constexpr unsigned kDeviceLatencyUs = 150;

/// Scans the map tree at `root` every iteration: through the leaf walk, or
/// through the serial reference when `serial` is set.
void RunMapScan(benchmark::State& state, const ChunkStore* store,
                const Hash256& root, bool serial = false) {
  PosTree tree(store, ChunkType::kMapLeaf, root);
  for (auto _ : state) {
    uint64_t count = 0;
    auto visit = [&count](const EntryView&) {
      ++count;
      return Status::OK();
    };
    Status s = serial ? SerialScan(*store, root, visit) : tree.Scan(visit);
    if (!s.ok() || count != kScanEntries) {
      state.SkipWithError("scan failed");
      break;
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kScanEntries));
}

/// A file store holding a 100k-entry map built from `seed`.
struct FileMap {
  ScopedStoreDir dir;
  std::unique_ptr<FileChunkStore> store;
  Hash256 root;

  FileMap(const std::string& tag, uint64_t seed) : dir(tag) {
    auto opened = FileChunkStore::Open(dir.path());
    store = std::move(*opened);
    root = PosTree::BuildKeyed(store.get(), ChunkType::kMapLeaf,
                               RandomKvs(kScanEntries, seed))
               ->root;
  }
};

// The serial side of the validate pair below.
void BM_MapScanFileSync(benchmark::State& state) {
  FileMap map("scan_sync", 31);
  RunMapScan(state, map.store.get(), map.root, /*serial=*/true);
}
BENCHMARK(BM_MapScanFileSync)->UseRealTime();

// Deep validation of the same tree BM_MapScanFileSync scans: one batched,
// re-hashing pass over every chunk, read and hashed on the shared hash
// pool.
void BM_MapValidateFileSync(benchmark::State& state) {
  FileMap map("validate_sync", 31);
  PosTree tree(map.store.get(), ChunkType::kMapLeaf, map.root);
  for (auto _ : state) {
    if (!tree.Validate().ok()) {
      state.SkipWithError("validation failed");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kScanEntries));
}
BENCHMARK(BM_MapValidateFileSync)->UseRealTime();

void BM_MapScanFileAsync(benchmark::State& state) {
  FileMap map("scan_async", 31);
  RunMapScan(state, map.store.get(), map.root);
}
BENCHMARK(BM_MapScanFileAsync)->UseRealTime();

// Full scan of a 100k-row table (GenerateCsv: 7 columns of three-word
// cells) on a file-backed store under a cache of a fifth of the CSV bytes,
// the stack an archive query reads an old version through. The callback
// touches every cell.
struct ScanTable {
  ScopedStoreDir dir{"table_scan"};
  std::shared_ptr<ChunkStore> store;
  std::optional<FTable> table;
  size_t rows = 0;

  explicit ScanTable(size_t num_rows) {
    CsvGenOptions opts;
    opts.num_rows = num_rows;
    CsvDocument doc = GenerateCsv(opts);
    rows = doc.rows.size();
    auto file = FileChunkStore::Open(dir.path());
    store = std::make_shared<CachingChunkStore>(
        std::shared_ptr<ChunkStore>(std::move(*file)), CsvBytes(doc) / 5);
    auto built = FTable::FromCsv(store.get(), doc);
    if (built.ok()) table.emplace(std::move(*built));
  }
};

void BM_TableScan(benchmark::State& state) {
  ScanTable t(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    size_t rows = 0, bytes = 0;
    Status s = t.table->Scan(
        [&](Slice, const std::vector<std::string>& cells) -> Status {
          for (const auto& c : cells) bytes += c.size();
          ++rows;
          return Status::OK();
        });
    if (!s.ok() || rows != t.rows) {
      state.SkipWithError("scan failed");
      break;
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t.rows));
}
BENCHMARK(BM_TableScan)->Arg(100000)->UseRealTime();

// Bench-local serial reference for the table scan: the serial reference
// walk of the row map, each row split into cell views and assigned into
// one reused cells buffer, all on the caller's thread. Same stack and
// callback as BM_TableScan.
void BM_TableScanSerial(benchmark::State& state) {
  ScanTable t(static_cast<size_t>(state.range(0)));
  const size_t ncols = t.table->columns().size();
  for (auto _ : state) {
    size_t rows = 0, bytes = 0;
    std::vector<std::string> cells(ncols);
    std::vector<Slice> views(ncols);
    Status s = SerialScan(
        *t.store, t.table->rows().root(), [&](const EntryView& e) -> Status {
          Decoder dec(e.value);
          for (size_t c = 0; c < ncols; ++c) {
            if (!dec.GetLengthPrefixed(&views[c])) {
              return Status::Corruption("malformed row");
            }
          }
          if (!dec.AtEnd()) return Status::Corruption("malformed row");
          for (size_t c = 0; c < ncols; ++c) {
            cells[c].assign(views[c].data(), views[c].size());
          }
          for (const auto& c : cells) bytes += c.size();
          ++rows;
          return Status::OK();
        });
    if (!s.ok() || rows != t.rows) {
      state.SkipWithError("scan failed");
      break;
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t.rows));
}
BENCHMARK(BM_TableScanSerial)->Arg(100000)->UseRealTime();

void RunSlowDeviceScan(benchmark::State& state, bool serial) {
  FileMap map(serial ? "scan_slow_serial" : "scan_slow", 32);
  SlowChunkStore store(std::shared_ptr<ChunkStore>(std::move(map.store)),
                       kDeviceLatencyUs);
  RunMapScan(state, &store, map.root, serial);
}

void BM_MapScanSlowDeviceSync(benchmark::State& state) {
  RunSlowDeviceScan(state, /*serial=*/true);
}
BENCHMARK(BM_MapScanSlowDeviceSync)->UseRealTime();

void BM_MapScanSlowDeviceAsync(benchmark::State& state) {
  RunSlowDeviceScan(state, /*serial=*/false);
}
BENCHMARK(BM_MapScanSlowDeviceAsync)->UseRealTime();

// ---- tiered store: hot-resident and cold-resident scans ------------------
//
// TieredHot measures the tier machinery's overhead when the working set is
// local: the scan pays one hot-tier Contains probe per id on top of the
// plain file-store scan. The TieredCold pair is the tiered acceptance
// criterion: the tree lives only on a slow remote cold tier (the same
// 150us/batch device class as the SlowDevice pair), and the leaf walk,
// whose runs' round trips overlap on the hash pool, must beat the serial
// reference by the compare_bench.py floor. Promotion is off so every
// iteration measures steady cold reads, not a one-shot migration.

/// The slow cold tier of the tiered benches: a simulated remote over
/// `file`, each round trip kDeviceLatencyUs, queued on a device of depth
/// kDeviceQueueDepth like the SlowDevice pair's.
std::shared_ptr<ChunkStore> SlowColdTier(
    std::unique_ptr<FileChunkStore> file) {
  RemoteChunkStore::Options remote_options;
  remote_options.batch_latency_us = kDeviceLatencyUs;
  return std::make_shared<SlowChunkStore>(
      std::make_shared<RemoteChunkStore>(
          std::shared_ptr<ChunkStore>(std::move(file)), remote_options),
      /*latency_us=*/0);
}

void BM_MapScanTieredHot(benchmark::State& state) {
  ScopedStoreDir dir("scan_tiered_hot");
  auto hot = FileChunkStore::Open(dir.path() + "/hot");
  auto kvs = RandomKvs(kScanEntries, 33);
  auto built = PosTree::BuildKeyed(hot->get(), ChunkType::kMapLeaf, kvs);
  auto cold_file = FileChunkStore::Open(dir.path() + "/cold");
  TieredChunkStore store(std::shared_ptr<ChunkStore>(std::move(*hot)),
                         SlowColdTier(std::move(*cold_file)));
  RunMapScan(state, &store, built->root);
}
BENCHMARK(BM_MapScanTieredHot)->UseRealTime();

void RunTieredColdScan(benchmark::State& state, bool serial) {
  ScopedStoreDir dir(serial ? "scan_tiered_cold_serial" : "scan_tiered_cold");
  // The tree is built directly into the cold backend; the hot tier starts
  // (and stays) empty — the "fresh local disk over a populated remote"
  // state.
  auto cold_file = FileChunkStore::Open(dir.path() + "/cold");
  auto kvs = RandomKvs(kScanEntries, 34);
  auto built = PosTree::BuildKeyed(cold_file->get(), ChunkType::kMapLeaf, kvs);
  auto hot = FileChunkStore::Open(dir.path() + "/hot");
  TieredChunkStore::Options tier_options;
  tier_options.promote_on_read = false;
  TieredChunkStore store(std::shared_ptr<ChunkStore>(std::move(*hot)),
                         SlowColdTier(std::move(*cold_file)), tier_options);
  RunMapScan(state, &store, built->root, serial);
}

void BM_MapScanTieredColdSync(benchmark::State& state) {
  RunTieredColdScan(state, /*serial=*/true);
}
BENCHMARK(BM_MapScanTieredColdSync)->UseRealTime();

void BM_MapScanTieredColdAsync(benchmark::State& state) {
  RunTieredColdScan(state, /*serial=*/false);
}
BENCHMARK(BM_MapScanTieredColdAsync)->UseRealTime();

// Bounded-tier churn: the tree lives on the slow cold tier and the hot
// budget holds only ~half of it, with promotion ON — so every scan
// continuously promotes the chunks it touches while the evictor erases
// (and the hot store's segment rewrite reclaims) the least-recent half
// behind it. This is the steady state of a working set larger than local
// disk; the leaf walk must still keep up with the serial unbounded cold
// scan (compare_bench.py floors it against BM_MapScanTieredColdSync).
void BM_MapScanTieredEvicting(benchmark::State& state) {
  ScopedStoreDir dir("scan_tiered_evicting");
  auto cold_file = FileChunkStore::Open(dir.path() + "/cold");
  auto kvs = RandomKvs(kScanEntries, 35);
  auto built = PosTree::BuildKeyed(cold_file->get(), ChunkType::kMapLeaf, kvs);
  const uint64_t tree_bytes = (*cold_file)->stats().physical_bytes;
  FileChunkStore::Options hot_options;
  hot_options.segment_bytes = 256 << 10;  // rewrite at fine granularity
  auto hot = FileChunkStore::Open(dir.path() + "/hot", hot_options);
  TieredChunkStore::Options tier_options;
  tier_options.hot_bytes_budget = tree_bytes / 2;  // working set 2x budget
  TieredChunkStore store(std::shared_ptr<ChunkStore>(std::move(*hot)),
                         SlowColdTier(std::move(*cold_file)), tier_options);
  RunMapScan(state, &store, built->root);
  state.counters["evictions"] = static_cast<double>(
      store.tier_stats().evictions);
}
BENCHMARK(BM_MapScanTieredEvicting)->UseRealTime();

// A scalar Get through a write-through tiered store of two file stores,
// every id hot-resident: the tier split and merge on top of a file store
// Get. Ungated; it tracks the per-read cost of the one tiered read path.
void BM_TieredGetScalar(benchmark::State& state) {
  ScopedStoreDir dir("tiered_get_scalar");
  auto hot = FileChunkStore::Open(dir.path() + "/hot");
  auto cold = FileChunkStore::Open(dir.path() + "/cold");
  TieredChunkStore store(std::shared_ptr<ChunkStore>(std::move(*hot)),
                         std::shared_ptr<ChunkStore>(std::move(*cold)));
  uint64_t counter = 0;
  auto chunks = MakeUniqueChunks(4000, &counter);
  (void)store.PutMany(chunks);
  Rng rng(24);
  for (auto _ : state) {
    const Hash256& id = chunks[rng.Uniform(chunks.size())].hash();
    benchmark::DoNotOptimize(store.Get(id).ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TieredGetScalar);

// ---- group commit: concurrent FNode writers -----------------------------
//
// range(0) = 0: bench-local scalar reference — each writer writes its own
//               FNode (one append + fsync) and sets its head directly,
//               the per-commit cost with no queue at all.
// range(0) = 1: ForkBase::Put — the leader/follower group commit every
//               store uses (racing Puts land as one PutMany + fsync).
// Run at 1 and 4 threads: the 4-thread pair is the aggregate-throughput
// criterion, the 1-thread pair bounds what a lone writer pays the queue.

class CommitBench : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State& state) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (refs_++ == 0) {
      dir_ = std::make_unique<ScopedStoreDir>(
          state.range(0) != 0 ? "commit_grouped" : "commit_scalar");
      ForkBase::Config config;
      // Power-loss durability: every commit run fsyncs. This is the cost
      // the queue amortizes — scalar pays one sync per commit, the group
      // pays one per drain.
      config.fsync = true;
      auto db = ForkBase::Open(dir_->path(), config);
      db_ = std::move(*db);
    }
  }
  void TearDown(const benchmark::State&) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (--refs_ == 0) {
      db_.reset();
      dir_.reset();
    }
  }

 protected:
  static std::mutex mu_;
  static int refs_;
  static std::unique_ptr<ScopedStoreDir> dir_;
  static std::unique_ptr<ForkBase> db_;
};

std::mutex CommitBench::mu_;
int CommitBench::refs_ = 0;
std::unique_ptr<ScopedStoreDir> CommitBench::dir_;
std::unique_ptr<ForkBase> CommitBench::db_;

/// The scalar reference commit: read head, write the FNode, set the head.
/// Only safe because every writer owns its branch.
StatusOr<Hash256> ScalarCommit(ForkBase* db, const std::string& key,
                               const Value& value, const std::string& branch,
                               uint64_t logical_time) {
  FNode node;
  node.key = key;
  node.value = value;
  if (auto head = db->branches().Head(key, branch); head.ok()) {
    node.bases.push_back(*head);
  }
  node.logical_time = logical_time;
  FB_ASSIGN_OR_RETURN(Hash256 uid, node.Write(db->store()));
  db->branches().SetHead(key, branch, uid);
  return uid;
}

BENCHMARK_DEFINE_F(CommitBench, FNodeCommit)(benchmark::State& state) {
  // One branch per writer: heads race in the table, records race for the
  // append lock (scalar) or coalesce in the queue (grouped).
  const bool grouped = state.range(0) != 0;
  const std::string branch = "w" + std::to_string(state.thread_index());
  uint64_t i = 0;
  for (auto _ : state) {
    Value value = Value::String(branch + "-" + std::to_string(i++));
    auto uid = grouped ? db_->Put("bench-key", value, branch)
                       : ScalarCommit(db_.get(), "bench-key", value, branch, i);
    benchmark::DoNotOptimize(uid.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK_REGISTER_F(CommitBench, FNodeCommit)
    ->Arg(0)
    ->Arg(1)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime();

void BM_Verify(benchmark::State& state) {
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  auto kvs = RandomKvs(static_cast<size_t>(state.range(0)), 15);
  std::vector<std::pair<std::string, std::string>> pairs(kvs.begin(),
                                                         kvs.end());
  auto uid = db.PutMap("k", pairs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.Verify(*uid).ok());
  }
}
BENCHMARK(BM_Verify)->Arg(1000)->Arg(10000);

// ---- sync export: full bundle vs. negotiated delta ----------------------
//
// The sync subsystem's win: after branch-head negotiation, a push exports
// only the chunks past the receiver's frontier (the DeltaClosure against
// it) instead of the head's whole closure (the DeltaClosure against
// nothing); both go through the one ExportBundle. The corpus is a map with a
// 64-commit history; the delta covers the last commit only, the regime of
// a steady-state replica that syncs every few commits.

struct SyncCorpus {
  std::shared_ptr<MemChunkStore> store;
  Hash256 prev;  ///< the replica's frontier: one commit behind
  Hash256 head;
};

const SyncCorpus& GetSyncCorpus() {
  static SyncCorpus corpus = [] {
    SyncCorpus c;
    c.store = std::make_shared<MemChunkStore>();
    ForkBase db(c.store);
    auto kvs = RandomKvs(20000, 17);
    std::vector<std::pair<std::string, std::string>> pairs(kvs.begin(),
                                                           kvs.end());
    (void)db.PutMap("k", pairs);
    for (int i = 0; i < 62; ++i) {
      (void)db.UpdateMap(
          "k", {KeyedOp{"bench-key-" + std::to_string(i), std::string("v")}});
    }
    c.prev = *db.Head("k");
    (void)db.UpdateMap("k", {KeyedOp{"bench-final", std::string("v")}});
    c.head = *db.Head("k");
    return c;
  }();
  return corpus;
}

void BM_SyncPushFull(benchmark::State& state) {
  const SyncCorpus& corpus = GetSyncCorpus();
  uint64_t bytes = 0;
  for (auto _ : state) {
    auto ids = DeltaClosure(*corpus.store, {corpus.head}, {});
    auto stats = ExportBundle(*corpus.store, {corpus.head}, *ids, [&](Slice b) {
      bytes += b.size();
      return Status::OK();
    });
    benchmark::DoNotOptimize(stats.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  benchmark::DoNotOptimize(bytes);
}
BENCHMARK(BM_SyncPushFull);

void BM_SyncPushDelta(benchmark::State& state) {
  const SyncCorpus& corpus = GetSyncCorpus();
  uint64_t bytes = 0;
  for (auto _ : state) {
    auto ids = DeltaClosure(*corpus.store, {corpus.head}, {corpus.prev});
    auto stats = ExportBundle(*corpus.store, {corpus.head}, *ids, [&](Slice b) {
      bytes += b.size();
      return Status::OK();
    });
    benchmark::DoNotOptimize(stats.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  benchmark::DoNotOptimize(bytes);
}
BENCHMARK(BM_SyncPushDelta);

// ---- delta export vs. history length ------------------------------------
//
// The server side of a pull: a one-commit delta of a 20,000-entry map after
// 100 or 1,000 earlier one-key commits, through the commit graph of the
// ForkBase that made them. The walk stops at the receiver's frontier, so
// the longer history must cost about the same; subtracting the receiver's
// whole closure instead grows with every commit ever made.

struct DeltaExportCorpus {
  std::shared_ptr<MemChunkStore> store;
  std::unique_ptr<ForkBase> db;
  Hash256 prev;  ///< the receiver's frontier: one commit behind
  Hash256 head;
};

const DeltaExportCorpus& GetDeltaExportCorpus(int prior_commits) {
  static std::map<int, DeltaExportCorpus> corpora;
  auto it = corpora.find(prior_commits);
  if (it != corpora.end()) return it->second;
  DeltaExportCorpus c;
  c.store = std::make_shared<MemChunkStore>();
  c.db = std::make_unique<ForkBase>(c.store);
  auto kvs = RandomKvs(20000, 23);
  (void)c.db->PutMap("k", {kvs.begin(), kvs.end()});
  Rng rng(24);
  for (int i = 0; i < prior_commits; ++i) {
    (void)c.db->UpdateMap("k", {KeyedOp{kvs[rng.Uniform(kvs.size())].first,
                                        "v" + std::to_string(i)}});
  }
  c.prev = *c.db->Head("k");
  (void)c.db->UpdateMap("k", {KeyedOp{"bench-final", std::string("v")}});
  c.head = *c.db->Head("k");
  return corpora.emplace(prior_commits, std::move(c)).first->second;
}

void BM_DeltaExport(benchmark::State& state) {
  const DeltaExportCorpus& corpus =
      GetDeltaExportCorpus(static_cast<int>(state.range(0)));
  uint64_t bytes = 0;
  for (auto _ : state) {
    auto ids = DeltaClosure(*corpus.store, {corpus.head}, {corpus.prev},
                            corpus.db->commit_graph());
    auto stats = ExportBundle(*corpus.store, {corpus.head}, *ids, [&](Slice b) {
      bytes += b.size();
      return Status::OK();
    });
    benchmark::DoNotOptimize(stats.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  benchmark::DoNotOptimize(bytes);
}
BENCHMARK(BM_DeltaExport)->Arg(100)->Arg(1000);

// ---- GC: in-place sweep, copy collection, parallel compaction ------------
//
// The sweep pair sizes the two collectors against each other on the same
// corpus (half the chunks garbage). The Compact pair is the parallel-
// maintenance acceptance criterion: an administrative CompactBelow over
// ~dozens of eligible segments, run out on a 1-thread vs a 4-thread
// maintenance pool. Rewrites block on device reads (the page cache is
// dropped with posix_fadvise first) and on the pre-truncate fsync
// (fsync_on_flush is on), so the pool's overlap pays even on one core.

void BuildGcCorpus(ForkBase* db, uint64_t seed) {
  auto keep = RandomKvs(5000, seed);
  (void)db->PutMap("keep", keep);
  auto drop = RandomKvs(5000, seed + 1);
  (void)db->PutMap("drop", drop);
  (void)db->DeleteBranch("drop", "master");
}

void BM_GcSweepInPlace(benchmark::State& state) {
  uint64_t swept = 0;
  uint64_t seed = 40;
  for (auto _ : state) {
    state.PauseTiming();
    auto store = std::make_shared<MemChunkStore>();
    ForkBase db(store);
    BuildGcCorpus(&db, seed);
    seed += 2;
    state.ResumeTiming();
    auto stats = SweepInPlace(&db);
    benchmark::DoNotOptimize(stats.ok());
    if (stats.ok()) swept += stats->swept_chunks;
  }
  state.SetItemsProcessed(static_cast<int64_t>(swept));
}
BENCHMARK(BM_GcSweepInPlace);

void BM_GcCopyLive(benchmark::State& state) {
  // Same corpus as the sweep, but copy collection is non-destructive: one
  // source, a fresh destination per iteration.
  auto store = std::make_shared<MemChunkStore>();
  ForkBase db(store);
  BuildGcCorpus(&db, 42);
  uint64_t copied = 0;
  for (auto _ : state) {
    state.PauseTiming();
    MemChunkStore dst;
    state.ResumeTiming();
    auto stats = CopyLive(db, &dst);
    benchmark::DoNotOptimize(stats.ok());
    if (stats.ok()) copied += stats->live_chunks;
  }
  state.SetItemsProcessed(static_cast<int64_t>(copied));
}
BENCHMARK(BM_GcCopyLive);

// Drops every segment's pages from the cache so the rewrites that follow
// read the device, not memory — the cold-store regime compaction runs in.
void DropSegmentPageCache(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".fbc") continue;
    int fd = ::open(entry.path().c_str(), O_RDONLY);
    if (fd < 0) continue;
    (void)::fsync(fd);  // dirty pages would survive DONTNEED
    (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
    ::close(fd);
  }
}

void RunCompactBench(benchmark::State& state, uint32_t threads) {
  FileChunkStore::Options options;
  options.segment_bytes = 64 << 10;  // ~37 segments of 256 B records
  options.compact_live_ratio = 0;    // nothing rewrites until CompactBelow
  options.maintenance_threads = threads;
  options.fsync_on_flush = true;  // rewrites pay the pre-truncate sync
  // Model a device with ~500us sync latency (same methodology as the
  // SlowDevice scan benches): the measured ratio then reflects how well the
  // maintenance pool overlaps per-segment device waits, instead of the
  // runner's disk — this host's virtio disk serves fsyncs and cold reads
  // almost serially, which would drown the scheduling signal in noise.
  options.rewrite_sync_delay_for_testing = std::chrono::microseconds(500);
  uint64_t counter = 0;
  uint64_t rewritten = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ScopedStoreDir dir("compact" + std::to_string(threads));
    auto store_or = FileChunkStore::Open(dir.path(), options);
    auto& store = **store_or;
    auto chunks = MakeUniqueChunks(8192, &counter);
    (void)store.PutMany(chunks);
    std::vector<Hash256> victims;
    for (size_t i = 0; i < chunks.size(); ++i) {
      if (i % 4 != 0) victims.push_back(chunks[i].hash());
    }
    (void)store.Erase(victims);
    DropSegmentPageCache(dir.path());
    state.ResumeTiming();
    const size_t queued = store.CompactBelow(1.0);
    store.WaitForMaintenance();
    benchmark::DoNotOptimize(queued);
    state.PauseTiming();
    rewritten += store.maintenance_stats().segments_rewritten;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(rewritten));
}

void BM_CompactSerial(benchmark::State& state) { RunCompactBench(state, 1); }
BENCHMARK(BM_CompactSerial)->UseRealTime();

void BM_CompactParallel(benchmark::State& state) { RunCompactBench(state, 4); }
BENCHMARK(BM_CompactParallel)->UseRealTime();

// ---- encoded segment storage: footprint and read tax ---------------------

// A 64-commit versioned corpus: every commit is the previous ~4 KiB payload
// with a 24-byte splice re-randomized and a few bytes appended — the
// successive-versions shape delta chains exist for.
std::vector<Chunk> VersionedCorpus(size_t commits) {
  Rng rng(81);
  std::string payload = rng.NextBytes(4096);
  std::vector<Chunk> chunks;
  chunks.reserve(commits);
  for (size_t v = 0; v < commits; ++v) {
    if (v > 0) {
      size_t off = rng.Uniform(payload.size() - 24);
      for (size_t i = 0; i < 24; ++i) {
        payload[off + i] = static_cast<char>(rng.Uniform(256));
      }
      payload += rng.NextBytes(8);
    }
    chunks.push_back(Chunk::Make(ChunkType::kCell, payload));
  }
  return chunks;
}

uint64_t CorpusPhysicalBytes(const FileChunkStore::Options& options,
                             const std::string& tag) {
  ScopedStoreDir dir(tag);
  auto store = FileChunkStore::Open(dir.path(), options);
  auto corpus = VersionedCorpus(64);
  (void)(*store)->PutMany(corpus);
  (void)(*store)->Flush();
  return (*store)->space_used();
}

// Not a timing benchmark: a deterministic size measurement smuggled through
// the ratio gate. Manual time is pinned to 1 s and items to the store's
// physical footprint, so items_per_second IS the byte count and the
// compare_bench ratio raw/encoded is exactly the storage saving. The gate
// floors it at 1.67x — i.e. the encoded corpus must stay <= 0.6x raw.
void BM_VersionedCorpusBytesRaw(benchmark::State& state) {
  uint64_t bytes = 0;
  for (auto _ : state) {
    bytes = CorpusPhysicalBytes(FileChunkStore::Options{}, "corpus_raw");
    state.SetIterationTime(1.0);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_VersionedCorpusBytesRaw)->UseManualTime();

void BM_VersionedCorpusBytesEncoded(benchmark::State& state) {
  FileChunkStore::Options options;
  options.compression = FileChunkStore::Compression::kLz;
  options.delta_chain_depth = 4;
  options.delta_window = 8;
  uint64_t bytes = 0;
  for (auto _ : state) {
    bytes = CorpusPhysicalBytes(options, "corpus_encoded");
    state.SetIterationTime(1.0);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_VersionedCorpusBytesEncoded)->UseManualTime();

// The read-side tax of compression on a COLD scan: batched GetMany over a
// compressible corpus through the SlowChunkStore device model (the same
// 150us/batch class as the scan benches above), raw store vs LZ store.
// Every LZ record decompresses on read, but a cold scan is latency-bound,
// so the decode has to hide inside the device wait. The gate floors
// compressed at 0.8x raw — representation may cost a fifth of cold-scan
// throughput, no more.
void RunEncodedScanBench(benchmark::State& state,
                         const FileChunkStore::Options& options,
                         const std::string& tag) {
  ScopedStoreDir dir(tag);
  auto file = FileChunkStore::Open(dir.path(), options);
  Rng rng(82);
  std::vector<Chunk> chunks;
  std::vector<Hash256> ids;
  for (size_t i = 0; i < 512; ++i) {
    // Compressible but not degenerate: a mutating tiling of a 256-byte
    // alphabet, distinct per chunk.
    std::string payload;
    payload.reserve(4096);
    std::string tile = rng.NextBytes(256);
    while (payload.size() < 4096) {
      tile[rng.Uniform(tile.size())] = static_cast<char>(rng.Uniform(256));
      payload += tile;
    }
    chunks.push_back(Chunk::Make(ChunkType::kCell, payload));
    ids.push_back(chunks.back().hash());
  }
  (void)(*file)->PutMany(chunks);
  (void)(*file)->Flush();
  SlowChunkStore store(std::shared_ptr<ChunkStore>(std::move(*file)),
                       kDeviceLatencyUs);
  constexpr size_t kBatch = 32;
  for (auto _ : state) {
    for (size_t off = 0; off < ids.size(); off += kBatch) {
      auto results = store.GetMany(std::span<const Hash256>(
          ids.data() + off, std::min(kBatch, ids.size() - off)));
      benchmark::DoNotOptimize(results.size());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ids.size()));
}

void BM_ScanRawStore(benchmark::State& state) {
  RunEncodedScanBench(state, FileChunkStore::Options{}, "scan_raw");
}
BENCHMARK(BM_ScanRawStore)->UseRealTime();

void BM_ScanCompressedStore(benchmark::State& state) {
  FileChunkStore::Options options;
  options.compression = FileChunkStore::Compression::kLz;
  RunEncodedScanBench(state, options, "scan_lz");
}
BENCHMARK(BM_ScanCompressedStore)->UseRealTime();

}  // namespace
}  // namespace bench
}  // namespace forkbase

BENCHMARK_MAIN();
