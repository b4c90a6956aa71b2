// In-memory span tracing for the benchmark's traced run.
//
// A span is (name, start, end, parent) on one thread. Spans are opened by
// the workload code around each public call it makes, so a compound verb
// is split into the calls that make it up (UpdateTableCell = GetTable +
// FTable::UpdateCell + Put). Chunk-store calls are not kept as spans of
// their own: there are thousands per commit, so TimedStore folds each one
// into the innermost open span of the calling thread as (calls, chunks,
// bytes, time) for its layer. A span's self time is its duration minus its
// child spans and minus the chunk time folded into it.
//
// Tracing is off unless Tracer::Enable() was called; a ScopedSpan then
// costs one branch, so the untraced run measures the program alone.
#ifndef FORKBASE_PERFBENCH_TRACE_H_
#define FORKBASE_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chunk/chunk_store.h"

namespace fbbench {

int64_t NowNs();

/// Where a TimedStore sits: directly under ForkBase (above the read cache)
/// or between the read cache and the file store.
enum Layer : int { kUpper = 0, kDevice = 1, kNumLayers = 2 };

/// Chunk-store work of one layer, attributed to a span.
struct ChunkIo {
  uint64_t get_calls = 0;
  uint64_t get_chunks = 0;
  uint64_t get_bytes = 0;
  int64_t get_ns = 0;
  uint64_t put_calls = 0;
  uint64_t put_chunks = 0;
  uint64_t put_bytes = 0;
  int64_t put_ns = 0;

  void Add(const ChunkIo& o);
  int64_t ns() const { return get_ns + put_ns; }
};

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int thread = 0;
  int64_t parent = -1;    ///< index into the same thread's spans, -1 = root
  int64_t child_ns = 0;   ///< time covered by direct child spans
  ChunkIo io[kNumLayers];  ///< chunk calls made while this span was innermost
  int64_t duration_ns() const { return end_ns - start_ns; }
  /// Duration minus child spans minus the chunk time of the upper layer
  /// (which already contains the device layer's time).
  int64_t self_ns() const { return duration_ns() - child_ns - io[kUpper].ns(); }
};

/// Process-wide span store: one vector per thread, merged on read.
class Tracer {
 public:
  static void Enable();
  static bool enabled();
  /// Every finished span, grouped by thread, in start order per thread.
  static std::vector<Span> Collect();
  /// Every chunk call of one layer, in spans or on threads with none open.
  static ChunkIo LayerTotal(Layer layer);
  /// Writes one tab-separated line per span.
  static bool WriteTsv(const std::string& path);
};

/// Opens a span for its lifetime (no-op while tracing is off).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
};

/// ChunkStore decorator that times every read and write call and folds it
/// into the calling thread's innermost span. Everything else forwards.
class TimedStore : public forkbase::ChunkStore {
 public:
  TimedStore(std::shared_ptr<forkbase::ChunkStore> inner, Layer layer)
      : inner_(std::move(inner)), layer_(layer) {}

  forkbase::StatusOr<forkbase::Chunk> Get(
      const forkbase::Hash256& id) const override;
  std::vector<forkbase::StatusOr<forkbase::Chunk>> GetMany(
      std::span<const forkbase::Hash256> ids) const override;
  forkbase::AsyncChunkBatch GetManyAsync(
      std::span<const forkbase::Hash256> ids) const override;
  bool SupportsAsyncGet() const override {
    return inner_->SupportsAsyncGet();
  }
  bool Contains(const forkbase::Hash256& id) const override {
    return inner_->Contains(id);
  }
  bool GetDeltaBase(const forkbase::Hash256& id,
                    forkbase::Hash256* base) const override {
    return inner_->GetDeltaBase(id, base);
  }
  bool GetPhysicalRecord(const forkbase::Hash256& id,
                         PhysicalRecord* rec) const override {
    return inner_->GetPhysicalRecord(id, rec);
  }
  bool SupportsErase() const override { return inner_->SupportsErase(); }
  forkbase::Status Erase(std::span<const forkbase::Hash256> ids) override {
    return inner_->Erase(ids);
  }
  uint64_t space_used() const override { return inner_->space_used(); }
  forkbase::ChunkStoreStats stats() const override { return inner_->stats(); }
  void ForEach(const std::function<void(const forkbase::Hash256&,
                                        const forkbase::Chunk&)>& fn)
      const override {
    inner_->ForEach(fn);
  }
  void ForEachId(const std::function<void(const forkbase::Hash256&,
                                          uint64_t)>& fn) const override {
    inner_->ForEachId(fn);
  }

  /// Test hook: from now on, every chunk this layer returns has one byte
  /// flipped — what an untrusted storage provider altering data looks like
  /// to the layers above.
  void TamperReads() { tamper_.store(true); }

 protected:
  forkbase::Status PutImpl(const forkbase::Chunk& chunk) override;
  forkbase::Status PutManyImpl(
      std::span<const forkbase::Chunk> chunks) override;

 private:
  forkbase::StatusOr<forkbase::Chunk> Tampered(
      forkbase::StatusOr<forkbase::Chunk> chunk) const;

  std::shared_ptr<forkbase::ChunkStore> inner_;
  Layer layer_;
  std::atomic<bool> tamper_{false};
};

}  // namespace fbbench

#endif  // FORKBASE_PERFBENCH_TRACE_H_
