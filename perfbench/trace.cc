#include "trace.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <mutex>

namespace fbbench {

using forkbase::AsyncChunkBatch;
using forkbase::Chunk;
using forkbase::Hash256;
using forkbase::Status;
using forkbase::StatusOr;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ChunkIo::Add(const ChunkIo& o) {
  get_calls += o.get_calls;
  get_chunks += o.get_chunks;
  get_bytes += o.get_bytes;
  get_ns += o.get_ns;
  put_calls += o.put_calls;
  put_chunks += o.put_chunks;
  put_bytes += o.put_bytes;
  put_ns += o.put_ns;
}

namespace {

std::atomic<bool> g_enabled{false};

struct ThreadSpans {
  int thread = 0;
  std::vector<Span> spans;
  std::vector<int64_t> open;  // indices of open spans, innermost last
};

std::mutex g_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_threads;  // guarded by g_mu
ChunkIo g_unattributed[kNumLayers];                   // guarded by g_mu

ThreadSpans* Local() {
  thread_local ThreadSpans* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_threads.push_back(std::make_unique<ThreadSpans>());
    local = g_threads.back().get();
    local->thread = static_cast<int>(g_threads.size()) - 1;
  }
  return local;
}

void Record(Layer layer, const ChunkIo& io) {
  ThreadSpans* local = Local();
  if (local->open.empty()) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_unattributed[layer].Add(io);
    return;
  }
  local->spans[local->open.back()].io[layer].Add(io);
}

uint64_t Bytes(const std::vector<StatusOr<Chunk>>& slots) {
  uint64_t bytes = 0;
  for (const auto& slot : slots) {
    if (slot.ok()) bytes += slot->size();
  }
  return bytes;
}

}  // namespace

void Tracer::Enable() { g_enabled.store(true); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<Span> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<Span> all;
  for (const auto& t : g_threads) {
    const int64_t base = static_cast<int64_t>(all.size());
    for (Span span : t->spans) {
      if (span.parent >= 0) span.parent += base;
      all.push_back(std::move(span));
    }
  }
  return all;
}

ChunkIo Tracer::LayerTotal(Layer layer) {
  std::lock_guard<std::mutex> lock(g_mu);
  ChunkIo total = g_unattributed[layer];
  for (const auto& t : g_threads) {
    for (const Span& span : t->spans) total.Add(span.io[layer]);
  }
  return total;
}

bool Tracer::WriteTsv(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << "index\tthread\tparent\tname\tstart_ns\tend_ns\tself_ns"
         "\tupper_get_calls\tupper_get_ns\tupper_put_calls\tupper_put_ns"
         "\tdevice_get_calls\tdevice_get_bytes\tdevice_get_ns"
         "\tdevice_put_calls\tdevice_put_bytes\tdevice_put_ns\n";
  const std::vector<Span> spans = Collect();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const ChunkIo& u = s.io[kUpper];
    const ChunkIo& d = s.io[kDevice];
    out << i << '\t' << s.thread << '\t' << s.parent << '\t' << s.name << '\t'
        << s.start_ns << '\t' << s.end_ns << '\t' << s.self_ns() << '\t'
        << u.get_calls << '\t' << u.get_ns << '\t' << u.put_calls << '\t'
        << u.put_ns << '\t' << d.get_calls << '\t' << d.get_bytes << '\t'
        << d.get_ns << '\t' << d.put_calls << '\t' << d.put_bytes << '\t'
        << d.put_ns << '\n';
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char* name) {
  if (!Tracer::enabled()) return;
  active_ = true;
  ThreadSpans* local = Local();
  Span span;
  span.name = name;
  span.thread = local->thread;
  span.parent = local->open.empty() ? -1 : local->open.back();
  span.start_ns = NowNs();
  local->spans.push_back(std::move(span));
  local->open.push_back(static_cast<int64_t>(local->spans.size()) - 1);
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  ThreadSpans* local = Local();
  Span& span = local->spans[local->open.back()];
  local->open.pop_back();
  span.end_ns = NowNs();
  if (span.parent >= 0) {
    local->spans[span.parent].child_ns += span.duration_ns();
  }
}

StatusOr<Chunk> TimedStore::Tampered(StatusOr<Chunk> chunk) const {
  if (!tamper_.load(std::memory_order_relaxed) || !chunk.ok()) return chunk;
  std::string bytes = chunk->bytes().ToString();
  if (bytes.size() > 1) bytes[bytes.size() / 2] ^= 0x01;
  return Chunk::FromBytes(std::move(bytes));
}

StatusOr<Chunk> TimedStore::Get(const Hash256& id) const {
  const int64_t start = NowNs();
  StatusOr<Chunk> chunk = Tampered(inner_->Get(id));
  ChunkIo io;
  io.get_calls = 1;
  io.get_chunks = 1;
  io.get_bytes = chunk.ok() ? chunk->size() : 0;
  io.get_ns = NowNs() - start;
  Record(layer_, io);
  return chunk;
}

std::vector<StatusOr<Chunk>> TimedStore::GetMany(
    std::span<const Hash256> ids) const {
  const int64_t start = NowNs();
  std::vector<StatusOr<Chunk>> slots = inner_->GetMany(ids);
  for (auto& slot : slots) slot = Tampered(std::move(slot));
  ChunkIo io;
  io.get_calls = 1;
  io.get_chunks = ids.size();
  io.get_bytes = Bytes(slots);
  io.get_ns = NowNs() - start;
  Record(layer_, io);
  return slots;
}

AsyncChunkBatch TimedStore::GetManyAsync(std::span<const Hash256> ids) const {
  // Submitting is cheap; the caller blocks in Take(). A deferred future runs
  // its body inside Take() on the caller's thread, so the wait is timed
  // there and lands in whatever span is open at that moment.
  const int64_t submit_start = NowNs();
  AsyncChunkBatch inner = inner_->GetManyAsync(ids);
  const int64_t submit_ns = NowNs() - submit_start;
  const size_t count = ids.size();
  return AsyncChunkBatch::Deferred(std::async(
      std::launch::deferred,
      [this, count, submit_ns, inner = std::move(inner)]() mutable {
        const int64_t start = NowNs();
        AsyncChunkBatch::Slots slots = inner.Take();
        for (auto& slot : slots) slot = Tampered(std::move(slot));
        ChunkIo io;
        io.get_calls = 1;
        io.get_chunks = count;
        io.get_bytes = Bytes(slots);
        io.get_ns = submit_ns + (NowNs() - start);
        Record(layer_, io);
        return slots;
      }));
}

Status TimedStore::PutImpl(const Chunk& chunk) {
  const int64_t start = NowNs();
  Status status = inner_->Put(chunk);
  ChunkIo io;
  io.put_calls = 1;
  io.put_chunks = 1;
  io.put_bytes = chunk.size();
  io.put_ns = NowNs() - start;
  Record(layer_, io);
  return status;
}

Status TimedStore::PutManyImpl(std::span<const Chunk> chunks) {
  const int64_t start = NowNs();
  Status status = inner_->PutMany(chunks);
  ChunkIo io;
  io.put_calls = 1;
  io.put_chunks = chunks.size();
  for (const Chunk& chunk : chunks) io.put_bytes += chunk.size();
  io.put_ns = NowNs() - start;
  Record(layer_, io);
  return status;
}

}  // namespace fbbench
