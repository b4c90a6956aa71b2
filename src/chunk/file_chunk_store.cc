#include "chunk/file_chunk_store.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <thread>
#include <unordered_set>

#include "util/compress.h"
#include "util/delta_codec.h"

namespace forkbase {

namespace {
constexpr uint32_t kRecordMagic = 0x46424331;     // "FBC1" raw chunk bytes
constexpr uint32_t kRecordMagic2 = 0x46424332;    // "FBC2" encoded payload
constexpr uint32_t kTombstoneMagic = 0x46425431;  // "FBT1"
constexpr size_t kHeaderBytes = 4 + 32 + 4;       // magic + hash + len
// FBC2 header: magic + hash + payload_len + enc + logical_len.
constexpr size_t kHeader2Bytes = 4 + 32 + 4 + 1 + 4;

constexpr uint8_t kEncRaw = 0;
constexpr uint8_t kEncLz = 1;
constexpr uint8_t kEncDelta = 2;

// A delta payload is [32-byte base id][delta]; the smallest structurally
// valid delta (varint target_len + one op + fixed32 checksum) is 5 bytes.
constexpr uint32_t kMinDeltaPayload = 32 + 5;
// Chunks below this size never delta: the 32-byte base reference plus
// varint overhead eats any plausible saving.
constexpr size_t kMinDeltaChunk = 128;
// Hard ceiling on chain resolution depth. Write-time chains are bounded by
// Options::delta_chain_depth; this guards reads against corrupt records
// manufacturing a cycle.
constexpr int kMaxChainHops = 128;
// Delta cache budget: materialized base bytes kept for chain resolution.
constexpr uint64_t kDeltaCacheBytes = 4ull << 20;
// Mutex stripes for the index (a power of two).
constexpr size_t kIndexShards = 16;

void AppendHeader(std::string* buf, uint32_t magic, const Hash256& id,
                  uint32_t len) {
  uint8_t header[kHeaderBytes];
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, id.bytes.data(), 32);
  std::memcpy(header + 36, &len, 4);
  buf->append(reinterpret_cast<const char*>(header), kHeaderBytes);
}

void AppendRecord(std::string* buf, const Hash256& id, Slice bytes) {
  AppendHeader(buf, kRecordMagic, id, static_cast<uint32_t>(bytes.size()));
  buf->append(bytes.data(), bytes.size());
}

void AppendHeader2(std::string* buf, const Hash256& id, uint32_t payload_len,
                   uint8_t enc, uint32_t logical) {
  uint8_t header[kHeader2Bytes];
  std::memcpy(header, &kRecordMagic2, 4);
  std::memcpy(header + 4, id.bytes.data(), 32);
  std::memcpy(header + 36, &payload_len, 4);
  header[40] = enc;
  std::memcpy(header + 41, &logical, 4);
  buf->append(reinterpret_cast<const char*>(header), kHeader2Bytes);
}

}  // namespace

FileChunkStore::FileChunkStore(std::string dir, Options options)
    : dir_(std::move(dir)),
      options_(options),
      shards_(kIndexShards),
      compact_pool_(options.maintenance_threads) {}

FileChunkStore::~FileChunkStore() {
  // Scheduled rewrites still need the index and the append stream; run them
  // out first, then close the stream.
  compact_pool_.Shutdown();
  std::lock_guard<std::mutex> lock(append_mu_);
  append_.Close();
}

std::string FileChunkStore::SegmentPath(uint32_t seg_no) const {
  return dir_ + "/segment-" + std::to_string(seg_no) + ".fbc";
}

size_t FileChunkStore::ShardIndexOf(const Hash256& id) const {
  // Digest bytes are uniformly distributed.
  return id.bytes[0] & (kIndexShards - 1);
}

FileChunkStore::Shard& FileChunkStore::ShardFor(const Hash256& id) const {
  return shards_[ShardIndexOf(id)];
}

bool FileChunkStore::Lookup(const Hash256& id, Location* loc) const {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(id);
  if (it == shard.index.end()) return false;
  *loc = it->second;
  return true;
}

StatusOr<std::unique_ptr<FileChunkStore>> FileChunkStore::Open(
    const std::string& dir) {
  return Open(dir, Options{});
}

StatusOr<std::unique_ptr<FileChunkStore>> FileChunkStore::Open(
    const std::string& dir, Options options) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("create_directories(" + dir + "): " + ec.message());
  }
  std::unique_ptr<FileChunkStore> store(new FileChunkStore(dir, options));
  FB_RETURN_IF_ERROR(store->Recover());
  // Schedule rewrites for segments that were already dead-heavy on disk
  // (e.g. a crash interrupted the previous store's compaction). Outside
  // Recover: scheduling must not run inline under the append lock.
  std::vector<uint32_t> candidates;
  {
    std::lock_guard<std::mutex> seg_lock(store->seg_mu_);
    for (const auto& [seg, space] : store->segments_) {
      (void)space;
      candidates.push_back(seg);
    }
  }
  for (uint32_t seg : candidates) store->MaybeScheduleCompaction(seg);
  return store;
}

Status FileChunkStore::Recover() {
  std::lock_guard<std::mutex> lock(append_mu_);
  uint32_t last_segment = 0;
  bool any_segment = false;
  // id -> base for ids whose FINAL record is a delta, maintained alongside
  // the index through the replay (tombstones and superseding records drop
  // entries). Chain depths are computed after the full scan: compaction can
  // move a base to a later segment than its dependent, so no single-pass
  // order sees bases first.
  std::unordered_map<Hash256, Hash256, Hash256Hasher> delta_bases;
  for (uint32_t seg = 0;; ++seg) {
    const std::string path = SegmentPath(seg);
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f) break;
    any_segment = true;
    last_segment = seg;
    uint64_t offset = 0;
    uint64_t valid_end = 0;
    std::string buf;
    for (;;) {
      // Sniff the magic first: record generations (FBC1 raw, FBC2 encoded,
      // tombstones) mix freely within a segment and have different header
      // sizes.
      uint8_t header[kHeader2Bytes];
      if (std::fread(header, 1, 4, f) < 4) break;  // torn tail or EOF
      uint32_t magic = 0;
      std::memcpy(&magic, header, 4);
      size_t header_size = 0;
      if (magic == kRecordMagic || magic == kTombstoneMagic) {
        header_size = kHeaderBytes;
      } else if (magic == kRecordMagic2) {
        header_size = kHeader2Bytes;
      } else {
        break;  // foreign bytes: treat as torn tail
      }
      if (std::fread(header + 4, 1, header_size - 4, f) < header_size - 4) {
        break;  // torn header
      }
      Hash256 id;
      std::memcpy(id.bytes.data(), header + 4, 32);
      uint32_t len = 0;
      std::memcpy(&len, header + 36, 4);
      uint8_t enc = kEncRaw;
      uint32_t logical = len;
      if (magic == kRecordMagic2) {
        enc = header[40];
        std::memcpy(&logical, header + 41, 4);
        if (enc > kEncDelta) break;  // unknown encoding: torn/corrupt tail
        if (enc == kEncDelta && len < kMinDeltaPayload) break;
      }
      buf.resize(len);
      if (std::fread(buf.data(), 1, len, f) < len) break;  // torn record
      Shard& shard = ShardFor(id);
      if (magic == kTombstoneMagic) {
        // Replay in append order: the tombstone undoes any earlier record of
        // this id. (A later re-Put appends a fresh record after it.)
        std::lock_guard<std::mutex> shard_lock(shard.mu);
        auto it = shard.index.find(id);
        if (it != shard.index.end()) {
          chunk_count_.fetch_sub(1, std::memory_order_relaxed);
          physical_bytes_.fetch_sub(it->second.length,
                                    std::memory_order_relaxed);
          shard.index.erase(it);
        }
        delta_bases.erase(id);
      } else {
        Location loc;
        loc.segment = seg;
        loc.offset = offset + header_size;
        loc.length = len;
        loc.logical = logical;
        loc.enc = enc;
        loc.header = static_cast<uint8_t>(header_size);
        // Last copy wins: a later record supersedes an earlier one of the
        // same id. Duplicates appear when a crash interrupts a segment
        // rewrite or a dependent flatten — both append the replacement
        // AFTER the original, and the replacement is the one whose
        // encoding is still resolvable (a flattened record must shadow the
        // delta it replaced, whose base may be tombstoned later in the
        // log). Content addressing makes either copy's bytes correct.
        std::lock_guard<std::mutex> shard_lock(shard.mu);
        auto it = shard.index.find(id);
        if (it == shard.index.end()) {
          shard.index.emplace(id, loc);
          chunk_count_.fetch_add(1, std::memory_order_relaxed);
          physical_bytes_.fetch_add(len, std::memory_order_relaxed);
        } else {
          physical_bytes_.fetch_sub(it->second.length,
                                    std::memory_order_relaxed);
          physical_bytes_.fetch_add(len, std::memory_order_relaxed);
          it->second = loc;
        }
        if (enc == kEncDelta) {
          Hash256 base;
          std::memcpy(base.bytes.data(), buf.data(), 32);
          delta_bases[id] = base;
        } else {
          delta_bases.erase(id);
        }
      }
      offset += header_size + len;
      valid_end = offset;
    }
    std::fclose(f);
    // Truncate any torn tail so future appends start at a record boundary.
    std::error_code ec;
    auto size = std::filesystem::file_size(path, ec);
    if (!ec && size > valid_end) {
      std::filesystem::resize_file(path, valid_end, ec);
    }
    std::lock_guard<std::mutex> seg_lock(seg_mu_);
    segments_[seg].total_bytes = valid_end;
  }
  // Second pass: live bytes per segment come from what the replayed index
  // still points at (everything else — tombstoned records, duplicates left
  // by an interrupted rewrite — is dead space).
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard.mu);
    std::lock_guard<std::mutex> seg_lock(seg_mu_);
    for (const auto& [id, loc] : shard.index) {
      (void)id;
      SegmentSpace& space = segments_[loc.segment];
      space.live_bytes += loc.header + loc.length;
      space.live_logical_bytes += loc.logical;
    }
  }
  // Third pass: rebuild chain bookkeeping. Depths are memoized walks over
  // the final base edges; the guard only trips on corrupt self-referential
  // data (write paths cannot create cycles).
  {
    std::unordered_map<Hash256, uint32_t, Hash256Hasher> depth_memo;
    std::function<uint32_t(const Hash256&, int)> depth_of =
        [&](const Hash256& id, int guard) -> uint32_t {
      auto base_it = delta_bases.find(id);
      if (base_it == delta_bases.end()) return 0;
      auto memo_it = depth_memo.find(id);
      if (memo_it != depth_memo.end()) return memo_it->second;
      uint32_t d = kMaxChainHops;
      if (guard < kMaxChainHops) d = depth_of(base_it->second, guard + 1) + 1;
      depth_memo[id] = d;
      return d;
    };
    std::lock_guard<std::mutex> delta_lock(delta_mu_);
    for (const auto& [id, base] : delta_bases) {
      delta_info_[id] = DeltaInfo{base, depth_of(id, 0)};
      delta_children_.emplace(base, id);
    }
  }
  const uint32_t seg = any_segment ? last_segment : 0;
  return OpenSegmentForAppend(seg);
}

Status FileChunkStore::OpenSegmentForAppend(uint32_t seg_no) {
  FB_RETURN_IF_ERROR(append_.Open(SegmentPath(seg_no)));
  append_segment_ = seg_no;
  active_segment_.store(seg_no, std::memory_order_relaxed);
  return Status::OK();
}

// ---- read path -------------------------------------------------------------

bool FileChunkStore::CacheGet(const Hash256& id, std::string* bytes) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_map_.find(id);
  if (it == cache_map_.end()) return false;
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
  *bytes = it->second->second;
  return true;
}

void FileChunkStore::CachePut(const Hash256& id,
                              const std::string& bytes) const {
  if (bytes.size() > kDeltaCacheBytes / 4) return;  // oversized: not worth it
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (cache_map_.count(id)) return;
  cache_lru_.emplace_front(id, bytes);
  cache_map_[id] = cache_lru_.begin();
  cache_bytes_ += bytes.size();
  while (cache_bytes_ > kDeltaCacheBytes && !cache_lru_.empty()) {
    auto& back = cache_lru_.back();
    cache_bytes_ -= back.second.size();
    cache_map_.erase(back.first);
    cache_lru_.pop_back();
  }
}

// Reads record payloads out of one segment file, opened once. Every segment
// read outside Recover's sequential replay goes through a SegmentReader.
class FileChunkStore::SegmentReader {
 public:
  SegmentReader(const FileChunkStore& store, uint32_t segment)
      : segment_(segment),
        path_(store.SegmentPath(segment)),
        file_(std::fopen(path_.c_str(), "rb")),
        open_errno_(file_ ? 0 : errno) {}
  ~SegmentReader() {
    if (file_) std::fclose(file_);
  }
  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;

  uint32_t segment() const { return segment_; }

  /// The physical payload at `loc`, which must lie in this segment.
  StatusOr<std::string> Read(const Location& loc) {
    if (!file_) {
      return Status::IOError("open " + path_ + ": " +
                             std::strerror(open_errno_));
    }
    std::string payload(loc.length, '\0');
    if (std::fseek(file_, static_cast<long>(loc.offset), SEEK_SET) != 0 ||
        std::fread(payload.data(), 1, loc.length, file_) != loc.length) {
      return Status::IOError("short read from " + path_);
    }
    return payload;
  }

 private:
  const uint32_t segment_;
  const std::string path_;
  std::FILE* const file_;
  const int open_errno_;
};

template <typename Decode>
auto FileChunkStore::ReadHealed(const Hash256& id, Location* loc,
                                SegmentReader* reader, Decode decode) const
    -> decltype(decode(*loc, std::string())) {
  auto attempt = [&]() -> decltype(decode(*loc, std::string())) {
    std::optional<SegmentReader> own;
    SegmentReader* r = reader;
    if (!r || r->segment() != loc->segment) {
      r = &own.emplace(*this, loc->segment);
    }
    FB_ASSIGN_OR_RETURN(std::string payload, r->Read(*loc));
    return decode(*loc, std::move(payload));
  };
  auto result = attempt();
  if (result.ok()) return result;
  // A segment rewrite may have moved the record (and truncated its old
  // segment) between the index lookup and the read, and a delta's base may
  // have been erased right after the delta was flattened elsewhere. If the
  // id left the index, it was erased mid-read: linearize after the erase
  // and report absent, not a phantom error. If it moved, retry once at the
  // new home. A real disk or decode error keeps its index entry and
  // surfaces unchanged.
  Location now;
  if (!Lookup(id, &now)) {
    return Status::NotFound("chunk " + id.ToBase32() + " (erased mid-read)");
  }
  if (now.segment == loc->segment && now.offset == loc->offset) return result;
  *loc = now;
  return attempt();
}

StatusOr<std::string> FileChunkStore::DecodePayload(const Hash256& id,
                                                    const Location& loc,
                                                    std::string payload,
                                                    int depth) const {
  switch (loc.enc) {
    case kEncRaw:
      return payload;
    case kEncLz: {
      std::string logical;
      if (!LzDecompressBlock(Slice(payload), &logical, loc.logical) ||
          logical.size() != loc.logical) {
        return Status::Corruption("compressed record for " + id.ToBase32() +
                                  " does not decode");
      }
      return logical;
    }
    case kEncDelta: {
      if (payload.size() < kMinDeltaPayload) {
        return Status::Corruption("truncated delta record for " +
                                  id.ToBase32());
      }
      Hash256 base;
      std::memcpy(base.bytes.data(), payload.data(), 32);
      FB_ASSIGN_OR_RETURN(std::string base_bytes,
                          MaterializeLogical(base, depth + 1));
      delta_chain_hops_.fetch_add(1, std::memory_order_relaxed);
      std::string logical;
      if (!ApplyDelta(Slice(base_bytes),
                      Slice(payload.data() + 32, payload.size() - 32),
                      &logical, loc.logical) ||
          logical.size() != loc.logical) {
        return Status::Corruption("delta record for " + id.ToBase32() +
                                  " does not apply against base " +
                                  base.ToBase32());
      }
      return logical;
    }
    default:
      return Status::Corruption("unknown record encoding for " +
                                id.ToBase32());
  }
}

StatusOr<std::string> FileChunkStore::MaterializeLogical(const Hash256& id,
                                                         int depth) const {
  if (depth > kMaxChainHops) {
    return Status::Corruption("delta chain exceeds " +
                              std::to_string(kMaxChainHops) + " hops at " +
                              id.ToBase32());
  }
  std::string cached;
  if (CacheGet(id, &cached)) return cached;
  Location loc;
  if (!Lookup(id, &loc)) {
    return Status::NotFound("delta base " + id.ToBase32() + " missing");
  }
  FB_ASSIGN_OR_RETURN(
      std::string logical,
      ReadHealed(id, &loc, nullptr,
                 [&](const Location& at, std::string payload) {
                   return DecodePayload(id, at, std::move(payload), depth);
                 }));
  CachePut(id, logical);
  return logical;
}

StatusOr<Chunk> FileChunkStore::ReadChunk(const Hash256& id, Location loc,
                                          SegmentReader* reader) const {
  return ReadHealed(
      id, &loc, reader,
      [&](const Location& at, std::string payload) -> StatusOr<Chunk> {
        FB_ASSIGN_OR_RETURN(std::string logical,
                            DecodePayload(id, at, std::move(payload), 0));
        Chunk chunk = Chunk::FromBytes(std::move(logical));
        if (options_.verify_on_get && chunk.hash() != id) {
          return Status::Corruption("chunk bytes do not match id " +
                                    id.ToBase32());
        }
        return chunk;
      });
}

StatusOr<Chunk> FileChunkStore::Get(const Hash256& id) const {
  get_calls_.fetch_add(1, std::memory_order_relaxed);
  Location loc;
  if (!Lookup(id, &loc)) {
    return Status::NotFound("chunk " + id.ToBase32());
  }
  return ReadChunk(id, loc, nullptr);
}

std::vector<StatusOr<Chunk>> FileChunkStore::GetMany(
    std::span<const Hash256> ids) const {
  get_calls_.fetch_add(ids.size(), std::memory_order_relaxed);
  std::vector<std::optional<StatusOr<Chunk>>> slots(ids.size());

  // Resolve locations first, then group the hits by segment so each segment
  // file is opened once and read in ascending-offset order.
  struct Pending {
    size_t slot;
    Location loc;
  };
  std::unordered_map<uint32_t, std::vector<Pending>> by_segment;
  for (size_t i = 0; i < ids.size(); ++i) {
    Location loc;
    if (!Lookup(ids[i], &loc)) {
      slots[i] = StatusOr<Chunk>(
          Status::NotFound("chunk " + ids[i].ToBase32()));
      continue;
    }
    by_segment[loc.segment].push_back(Pending{i, loc});
  }

  for (auto& [segment, pendings] : by_segment) {
    std::sort(pendings.begin(), pendings.end(),
              [](const Pending& a, const Pending& b) {
                return a.loc.offset < b.loc.offset;
              });
    SegmentReader reader(*this, segment);
    for (const Pending& p : pendings) {
      slots[p.slot] = ReadChunk(ids[p.slot], p.loc, &reader);
    }
  }

  std::vector<StatusOr<Chunk>> out;
  out.reserve(slots.size());
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

// ---- write path ------------------------------------------------------------

void FileChunkStore::WindowPush(const Hash256& id, const Chunk& chunk,
                                uint32_t depth) {
  if (options_.delta_chain_depth == 0 || options_.delta_window == 0) return;
  window_.push_back(WindowEntry{id, chunk, depth});
  while (window_.size() > options_.delta_window) window_.pop_front();
}

void FileChunkStore::EncodeSelfContained(const Hash256& id, Slice bytes,
                                         std::string* buffer,
                                         Location* loc) const {
  loc->logical = static_cast<uint32_t>(bytes.size());
  // Keep LZ only for a >= 1/16 saving, so incompressible payloads stay raw
  // and readable without any codec.
  std::string lz;
  if (options_.compression == Compression::kLz) {
    LzCompressBlock(bytes, &lz);
    if (lz.size() > bytes.size() - bytes.size() / 16) lz.clear();
  }
  if (!lz.empty()) {
    AppendHeader2(buffer, id, static_cast<uint32_t>(lz.size()), kEncLz,
                  loc->logical);
    buffer->append(lz);
    loc->length = static_cast<uint32_t>(lz.size());
    loc->enc = kEncLz;
    loc->header = static_cast<uint8_t>(kHeader2Bytes);
    return;
  }
  // Raw records keep the legacy FBC1 layout (5 bytes smaller, and a store
  // with the default options stays byte-identical to the pre-FBC2 format).
  AppendRecord(buffer, id, bytes);
  loc->length = loc->logical;
  loc->enc = kEncRaw;
  loc->header = static_cast<uint8_t>(kHeaderBytes);
}

uint64_t FileChunkStore::SerializeRecord(const Chunk& chunk,
                                         std::string* buffer,
                                         PendingEntry* entry) {
  const Hash256& id = chunk.hash();
  const Slice raw = chunk.bytes();
  entry->id = id;
  entry->depth = 0;

  // Delta attempt: best (smallest) delta against a window entry whose chain
  // stays within bounds. Early-out once a delta reaches 1/4 of raw — more
  // scanning cannot change the accept decision enough to matter.
  std::string delta_payload;
  uint32_t delta_depth = 0;
  Hash256 delta_base{};
  if (options_.delta_chain_depth > 0 && raw.size() >= kMinDeltaChunk) {
    for (auto it = window_.rbegin(); it != window_.rend(); ++it) {
      if (it->id == id) continue;
      if (it->depth + 1 > options_.delta_chain_depth) continue;
      std::string d;
      d.append(reinterpret_cast<const char*>(it->id.bytes.data()), 32);
      CreateDelta(it->chunk.bytes(), raw, &d);
      if (delta_payload.empty() || d.size() < delta_payload.size()) {
        delta_payload = std::move(d);
        delta_base = it->id;
        delta_depth = it->depth + 1;
        if (delta_payload.size() <= raw.size() / 4) break;
      }
    }
    // A delta must pay materially (<= 7/8 of raw): every chain link costs a
    // base materialization on the read path.
    if (!delta_payload.empty() &&
        delta_payload.size() > raw.size() - raw.size() / 8) {
      delta_payload.clear();
    }
  }

  // The delta wins only where it beats the self-contained form (which is
  // raw, or LZ when that pays).
  const size_t mark = buffer->size();
  EncodeSelfContained(id, raw, buffer, &entry->loc);
  if (!delta_payload.empty() && delta_payload.size() < entry->loc.length) {
    buffer->resize(mark);
    AppendHeader2(buffer, id, static_cast<uint32_t>(delta_payload.size()),
                  kEncDelta, entry->loc.logical);
    buffer->append(delta_payload);
    entry->loc.length = static_cast<uint32_t>(delta_payload.size());
    entry->loc.enc = kEncDelta;
    entry->loc.header = static_cast<uint8_t>(kHeader2Bytes);
    entry->base = delta_base;
    entry->depth = delta_depth;
  }
  return entry->loc.header + static_cast<uint64_t>(entry->loc.length);
}

Status FileChunkStore::AppendRun(const std::string& buffer, bool sync) {
  Status appended = append_.Append(buffer, sync);
  // The recency window may reference records the failed run discarded.
  if (!appended.ok()) window_.clear();
  return appended;
}

Status FileChunkStore::RollIfFull(std::vector<uint32_t>* rolled) {
  if (!append_.is_open() || append_.size() < options_.segment_bytes) {
    return Status::OK();
  }
  if (rolled) rolled->push_back(append_segment_);
  return OpenSegmentForAppend(append_segment_ + 1);
}

Status FileChunkStore::PutImpl(const Chunk& chunk) {
  const Chunk* one = &chunk;
  return PutManyImpl(std::span<const Chunk>(one, 1));
}

Status FileChunkStore::PutManyImpl(std::span<const Chunk> chunks) {
  for (const Chunk& chunk : chunks) {
    if (!chunk.valid()) return Status::InvalidArgument("invalid chunk");
  }
  put_calls_.fetch_add(chunks.size(), std::memory_order_relaxed);

  // Phase 1 (no append lock): drop duplicates within the batch, keeping the
  // first occurrence in its original position (append order must follow
  // batch order). Sort-based dedup over an 8-byte hash prefix beats a node-
  // allocating hash set at batch sizes. Chunks already resident in the
  // store are filtered by the authoritative check under the append lock
  // below — checking here too would just do every shard lookup twice.
  std::vector<const Chunk*> candidates;
  candidates.reserve(chunks.size());
  uint64_t batch_logical = 0;
  for (const Chunk& chunk : chunks) batch_logical += chunk.size();
  logical_bytes_.fetch_add(batch_logical, std::memory_order_relaxed);
  if (chunks.size() == 1) {
    candidates.push_back(&chunks[0]);
  } else {
    struct PrefixKey {
      uint64_t prefix;
      uint32_t idx;
    };
    std::vector<PrefixKey> keys(chunks.size());
    for (size_t i = 0; i < chunks.size(); ++i) {
      uint64_t prefix;
      std::memcpy(&prefix, chunks[i].hash().bytes.data(), sizeof(prefix));
      keys[i] = PrefixKey{prefix, static_cast<uint32_t>(i)};
    }
    std::sort(keys.begin(), keys.end(),
              [&](const PrefixKey& a, const PrefixKey& b) {
                if (a.prefix != b.prefix) return a.prefix < b.prefix;
                const Hash256& ha = chunks[a.idx].hash();
                const Hash256& hb = chunks[b.idx].hash();
                if (ha != hb) return ha < hb;
                return a.idx < b.idx;  // first occurrence sorts first
              });
    std::vector<bool> duplicate(chunks.size(), false);
    for (size_t i = 1; i < keys.size(); ++i) {
      if (keys[i].prefix == keys[i - 1].prefix &&
          chunks[keys[i].idx].hash() == chunks[keys[i - 1].idx].hash()) {
        duplicate[keys[i].idx] = true;
      }
    }
    for (size_t i = 0; i < chunks.size(); ++i) {
      if (duplicate[i]) {
        dedup_hits_.fetch_add(1, std::memory_order_relaxed);
      } else {
        candidates.push_back(&chunks[i]);
      }
    }
  }

  // Phase 2: serialize the surviving records into one buffer and append it
  // with a single fwrite+fflush. Index entries are published only after the
  // flush succeeds, so readers never chase bytes still in the stdio buffer.
  // The recency window is updated at serialize time, so a chunk can delta
  // against an earlier chunk of the same batch (its base's record precedes
  // it in the same buffer — a torn tail can never keep the dependent while
  // losing the base).
  Status status;
  std::vector<uint32_t> rolled;
  {
    std::lock_guard<std::mutex> lock(append_mu_);
    std::string buffer;
    std::vector<PendingEntry> pending;
    {
      size_t projected = 0;
      for (const Chunk* chunk : candidates) {
        projected += kHeader2Bytes + chunk->size();
      }
      buffer.reserve(projected);
      pending.reserve(candidates.size());
    }
    uint64_t offset = append_.size();

    auto flush = [&]() -> Status {
      if (buffer.empty()) return Status::OK();
      FB_RETURN_IF_ERROR(AppendRun(buffer, options_.fsync_on_flush));
      const uint64_t flushed = buffer.size();
      // Publish grouped by stripe so each shard mutex is taken once per
      // batch, not once per chunk: counting-sort the entry indices by stripe,
      // then walk each stripe's contiguous run under its lock.
      uint64_t batch_bytes = 0;
      uint64_t batch_live_logical = 0;
      std::vector<uint32_t> counts(shards_.size() + 1, 0);
      for (const PendingEntry& entry : pending) {
        ++counts[ShardIndexOf(entry.id) + 1];
        batch_bytes += entry.loc.length;
        batch_live_logical += entry.loc.logical;
      }
      for (size_t s = 1; s < counts.size(); ++s) counts[s] += counts[s - 1];
      std::vector<uint32_t> order(pending.size());
      {
        std::vector<uint32_t> cursor(counts.begin(), counts.end() - 1);
        for (uint32_t i = 0; i < pending.size(); ++i) {
          order[cursor[ShardIndexOf(pending[i].id)]++] = i;
        }
      }
      for (size_t s = 0; s < shards_.size(); ++s) {
        if (counts[s] == counts[s + 1]) continue;
        std::lock_guard<std::mutex> shard_lock(shards_[s].mu);
        for (uint32_t k = counts[s]; k < counts[s + 1]; ++k) {
          const PendingEntry& entry = pending[order[k]];
          shards_[s].index.emplace(entry.id, entry.loc);
        }
      }
      // Chain bookkeeping and encoding counters, only for records that
      // actually reached the file.
      uint64_t deltas = 0, compressed = 0;
      {
        std::lock_guard<std::mutex> delta_lock(delta_mu_);
        for (const PendingEntry& entry : pending) {
          if (entry.loc.enc == kEncDelta) {
            delta_info_[entry.id] = DeltaInfo{entry.base, entry.depth};
            delta_children_.emplace(entry.base, entry.id);
            ++deltas;
          } else if (entry.loc.enc == kEncLz) {
            ++compressed;
          }
        }
      }
      if (deltas) delta_records_.fetch_add(deltas, std::memory_order_relaxed);
      if (compressed) {
        compressed_records_.fetch_add(compressed, std::memory_order_relaxed);
      }
      chunk_count_.fetch_add(pending.size(), std::memory_order_relaxed);
      physical_bytes_.fetch_add(batch_bytes, std::memory_order_relaxed);
      NoteAppend(append_segment_, flushed, flushed, batch_live_logical);
      buffer.clear();
      pending.clear();
      return Status::OK();
    };

    status = [&]() -> Status {
      for (const Chunk* chunk : candidates) {
        const Hash256& id = chunk->hash();
        // Re-check under the append lock: only append-lock holders insert,
        // so a present entry here is final and the write can be skipped.
        Location existing;
        if (Lookup(id, &existing)) {
          dedup_hits_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (offset >= options_.segment_bytes) {
          FB_RETURN_IF_ERROR(flush());
          FB_RETURN_IF_ERROR(RollIfFull(&rolled));
          offset = append_.size();
        }
        PendingEntry entry;
        const uint64_t appended = SerializeRecord(*chunk, &buffer, &entry);
        entry.loc.segment = append_segment_;
        entry.loc.offset = offset + entry.loc.header;
        WindowPush(id, *chunk, entry.depth);
        pending.push_back(std::move(entry));
        offset += appended;
      }
      return flush();
    }();
  }
  // A just-closed segment may already be dead-heavy (erases land in closed
  // segments' accounting while the records sit anywhere).
  for (uint32_t seg : rolled) MaybeScheduleCompaction(seg);
  return status;
}

bool FileChunkStore::Contains(const Hash256& id) const {
  Location loc;
  return Lookup(id, &loc);
}

bool FileChunkStore::GetDeltaBase(const Hash256& id, Hash256* base) const {
  std::lock_guard<std::mutex> lock(delta_mu_);
  auto it = delta_info_.find(id);
  if (it == delta_info_.end()) return false;
  *base = it->second.base;
  return true;
}

bool FileChunkStore::GetPhysicalRecord(const Hash256& id,
                                       PhysicalRecord* rec) const {
  Location loc;
  if (!Lookup(id, &loc) || loc.enc == kEncRaw) return false;
  auto encoded = ReadHealed(
      id, &loc, nullptr,
      [&](const Location& at, std::string payload) -> StatusOr<bool> {
        rec->logical_length = at.logical;
        switch (at.enc) {
          case kEncDelta:
            if (payload.size() < kMinDeltaPayload) {
              return Status::Corruption("truncated delta record for " +
                                        id.ToBase32());
            }
            rec->encoding = Encoding::kDelta;
            std::memcpy(rec->delta_base.bytes.data(), payload.data(), 32);
            rec->payload.assign(payload.data() + 32, payload.size() - 32);
            return true;
          case kEncLz:
            rec->encoding = Encoding::kCompressed;
            rec->delta_base = Hash256{};
            rec->payload = std::move(payload);
            return true;
          default:  // a retried read that landed on a flattened, raw copy
            return false;
        }
      });
  return encoded.ok() && *encoded;
}

// ---- erase & segment rewrite ---------------------------------------------

void FileChunkStore::ForgetDelta(const Hash256& id) {
  std::lock_guard<std::mutex> lock(delta_mu_);
  auto it = delta_info_.find(id);
  if (it == delta_info_.end()) return;
  auto [b, e] = delta_children_.equal_range(it->second.base);
  for (auto child = b; child != e; ++child) {
    if (child->second == id) {
      delta_children_.erase(child);
      break;
    }
  }
  delta_info_.erase(it);
}

Status FileChunkStore::FlattenDependentsOf(std::span<const Hash256> ids) {
  if (ids.empty()) return Status::OK();
  std::unordered_set<Hash256, Hash256Hasher> dying(ids.begin(), ids.end());

  // Purge the recency window first, under the append lock: once this
  // returns, no concurrent PutMany can mint a NEW delta against a dying id
  // (serialization and window reads both happen under append_mu_), so the
  // dependent set collected below is complete.
  {
    std::lock_guard<std::mutex> lock(append_mu_);
    window_.erase(std::remove_if(window_.begin(), window_.end(),
                                 [&](const WindowEntry& w) {
                                   return dying.count(w.id) > 0;
                                 }),
                  window_.end());
  }

  std::vector<Hash256> deps;
  {
    std::lock_guard<std::mutex> lock(delta_mu_);
    for (const Hash256& id : ids) {
      auto [b, e] = delta_children_.equal_range(id);
      for (auto it = b; it != e; ++it) {
        // A dependent that is itself being erased needs no flatten; ITS
        // dependents are found under its own id in this same loop.
        if (!dying.count(it->second)) deps.push_back(it->second);
      }
    }
  }
  if (deps.empty()) return Status::OK();

  // Materialize each dependent's logical bytes while every record involved
  // is still readable (nothing has been dropped yet). A dependent that
  // meanwhile moved or stopped being a delta (a racing compaction flattened
  // it) is skipped.
  struct Flat {
    Hash256 id;
    Location old_loc;
    std::string logical;
  };
  std::vector<Flat> flats;
  flats.reserve(deps.size());
  for (const Hash256& dep : deps) {
    Location loc;
    if (!Lookup(dep, &loc) || loc.enc != kEncDelta) continue;
    auto logical = ReadHealed(
        dep, &loc, nullptr, [&](const Location& at, std::string payload) {
          return DecodePayload(dep, at, std::move(payload), 0);
        });
    if (!logical.ok()) {
      if (!Contains(dep)) continue;  // erased concurrently
      // Failing to flatten a live dependent would strand its chain once the
      // base is gone — refuse the erase instead.
      return logical.status();
    }
    if (loc.enc != kEncDelta) continue;  // retry landed on a flattened copy
    flats.push_back(Flat{dep, loc, std::move(*logical)});
  }
  if (flats.empty()) return Status::OK();

  // Re-append the dependents self-contained (raw or compressed — never as a
  // delta), then repoint their index entries. The old delta records become
  // dead space; on a crash before the erase's tombstones land, replay keeps
  // the LAST copy of each id, i.e. the flattened one.
  Status status;
  std::vector<uint32_t> rolled;
  {
    std::lock_guard<std::mutex> lock(append_mu_);
    std::string buffer;
    struct Out {
      size_t idx;
      Location loc;
    };
    std::vector<Out> outs;
    uint64_t offset = append_.size();

    auto flush = [&]() -> Status {
      if (buffer.empty()) return Status::OK();
      FB_RETURN_IF_ERROR(AppendRun(buffer, options_.fsync_on_flush));
      uint64_t live_phys = 0, live_logical = 0;
      for (const Out& out : outs) {
        // Moved or erased meanwhile: the copy is dead.
        if (!Repoint(flats[out.idx].id, flats[out.idx].old_loc, out.loc)) {
          continue;
        }
        live_phys += out.loc.header + out.loc.length;
        live_logical += out.loc.logical;
      }
      NoteAppend(append_segment_, buffer.size(), live_phys, live_logical);
      buffer.clear();
      outs.clear();
      return Status::OK();
    };

    status = [&]() -> Status {
      for (size_t i = 0; i < flats.size(); ++i) {
        if (offset >= options_.segment_bytes) {
          FB_RETURN_IF_ERROR(flush());
          FB_RETURN_IF_ERROR(RollIfFull(&rolled));
          offset = append_.size();
        }
        Location loc;
        loc.segment = append_segment_;
        EncodeSelfContained(flats[i].id, Slice(flats[i].logical), &buffer,
                            &loc);
        loc.offset = offset + loc.header;
        outs.push_back(Out{i, loc});
        offset += loc.header + loc.length;
      }
      return flush();
    }();
  }
  for (uint32_t seg : rolled) MaybeScheduleCompaction(seg);
  return status;
}

Status FileChunkStore::Erase(std::span<const Hash256> ids) {
  // Phase 0: live delta dependents of the dying ids are re-appended
  // self-contained. If this cannot be persisted the erase fails with the
  // store unchanged (the re-appends are idempotent dead bytes at worst) —
  // erasing anyway would leave chains that cannot be resolved.
  FB_RETURN_IF_ERROR(FlattenDependentsOf(ids));

  // Phase 1: drop index entries. From here the chunks are unreadable; the
  // journal record below only makes that survive a reopen.
  std::vector<std::pair<Hash256, Location>> erased;
  erased.reserve(ids.size());
  uint64_t erased_bytes = 0;
  for (const Hash256& id : ids) {
    Shard& shard = ShardFor(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(id);
    if (it == shard.index.end()) continue;  // absent: a no-op, like Put
    erased.emplace_back(id, it->second);
    erased_bytes += it->second.length;
    shard.index.erase(it);
  }
  if (erased.empty()) return Status::OK();
  chunk_count_.fetch_sub(erased.size(), std::memory_order_relaxed);
  physical_bytes_.fetch_sub(erased_bytes, std::memory_order_relaxed);
  erased_chunks_.fetch_add(erased.size(), std::memory_order_relaxed);
  // The erased ids' own chain edges are dead (a delta that got erased, or a
  // base whose dependents were flattened above).
  for (const auto& [id, loc] : erased) {
    (void)loc;
    ForgetDelta(id);
  }

  // Phase 2: journal one tombstone per erased id, in one append run. Ids
  // that were re-Put between phase 1 and here are skipped — their fresh
  // record was appended under the same lock we now hold, and a tombstone
  // journaled after it would erase it on replay.
  Status journal;
  std::vector<uint32_t> rolled;
  {
    std::lock_guard<std::mutex> lock(append_mu_);
    std::string buffer;
    size_t tombstones = 0;
    for (const auto& [id, loc] : erased) {
      (void)loc;
      Location current;
      if (Lookup(id, &current)) continue;  // re-added: keep it
      AppendHeader(&buffer, kTombstoneMagic, id, 0);
      ++tombstones;
    }
    journal = [&]() -> Status {
      if (buffer.empty()) return Status::OK();
      // Roll before journaling, like PutMany does per record. An erase-only
      // workload (a GC sweep on a freshly reopened store) must still close
      // an over-limit active segment — otherwise the garbage it holds stays
      // exempt from compaction behind the never-rewrite-the-active-segment
      // rule until some future Put.
      FB_RETURN_IF_ERROR(RollIfFull(&rolled));
      FB_RETURN_IF_ERROR(AppendRun(buffer, options_.fsync_on_flush));
      NoteAppend(append_segment_, buffer.size(), 0, 0);  // tombstones: dead
      tombstone_records_.fetch_add(tombstones, std::memory_order_relaxed);
      return Status::OK();
    }();
  }
  // Even when the journal failed, the in-memory erase stands (a reopen may
  // resurrect the chunks — harmless, the evictor erases them again), and
  // the dead-space accounting below is true either way.
  for (uint32_t seg : rolled) MaybeScheduleCompaction(seg);

  // Phase 3: the erased records are dead space in their segments; rewrite
  // any segment that crossed the threshold.
  std::vector<uint32_t> affected;
  for (const auto& [id, loc] : erased) {
    (void)id;
    NoteDead(loc.segment, loc.header + static_cast<uint64_t>(loc.length),
             loc.logical);
    if (std::find(affected.begin(), affected.end(), loc.segment) ==
        affected.end()) {
      affected.push_back(loc.segment);
    }
  }
  for (uint32_t seg : affected) MaybeScheduleCompaction(seg);
  return journal;
}

void FileChunkStore::NoteAppend(uint32_t segment, uint64_t appended,
                                uint64_t live, uint64_t live_logical) {
  std::lock_guard<std::mutex> lock(seg_mu_);
  SegmentSpace& space = segments_[segment];
  space.total_bytes += appended;
  space.live_bytes += live;
  space.live_logical_bytes += live_logical;
}

void FileChunkStore::NoteDead(uint32_t segment, uint64_t record_bytes,
                              uint64_t logical_bytes) {
  std::lock_guard<std::mutex> lock(seg_mu_);
  auto it = segments_.find(segment);
  if (it == segments_.end()) return;
  it->second.live_bytes -=
      std::min<uint64_t>(it->second.live_bytes, record_bytes);
  it->second.live_logical_bytes -=
      std::min<uint64_t>(it->second.live_logical_bytes, logical_bytes);
}

bool FileChunkStore::BelowLiveRatio(const SegmentSpace& space) const {
  if (options_.compact_live_ratio <= 0 || space.total_bytes == 0) return false;
  return static_cast<double>(space.live_bytes) <
         options_.compact_live_ratio * static_cast<double>(space.total_bytes);
}

void FileChunkStore::MaybeScheduleCompaction(uint32_t segment) {
  if (options_.compact_live_ratio <= 0) return;
  if (segment == active_segment_.load(std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> lock(seg_mu_);
    auto it = segments_.find(segment);
    if (it == segments_.end() || it->second.compaction_scheduled ||
        !BelowLiveRatio(it->second)) {
      return;
    }
    it->second.compaction_scheduled = true;
    ++compactions_pending_;
  }
  SubmitCompaction(segment);
}

void FileChunkStore::SubmitCompaction(uint32_t segment) {
  // With maintenance_threads = 0, Submit runs this inline — which is why
  // callers must not hold store locks here.
  compact_pool_.Submit([this, segment] {
    CompactSegment(segment);
    std::lock_guard<std::mutex> lock(seg_mu_);
    --compactions_pending_;
    compact_cv_.notify_all();
  });
}

bool FileChunkStore::Repoint(const Hash256& id, const Location& old_loc,
                             const Location& fresh) {
  {
    Shard& shard = ShardFor(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(id);
    // Repoint only if the entry still references the record that was
    // copied; an id erased (or tombstoned-and-re-put) meanwhile leaves its
    // copy as immediately-dead bytes.
    if (it == shard.index.end() || it->second.segment != old_loc.segment ||
        it->second.offset != old_loc.offset) {
      return false;
    }
    it->second = fresh;
  }
  NoteDead(old_loc.segment,
           old_loc.header + static_cast<uint64_t>(old_loc.length),
           old_loc.logical);
  physical_bytes_.fetch_add(fresh.length, std::memory_order_relaxed);
  physical_bytes_.fetch_sub(old_loc.length, std::memory_order_relaxed);
  if (old_loc.enc == kEncDelta) {
    ForgetDelta(id);
    flattened_chains_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

void FileChunkStore::CompactSegment(uint32_t segment) {
  // Snapshot the entries the index still maps into this segment. The
  // segment is closed (appends only reach the active one), so the snapshot
  // can only shrink concurrently (erases), never grow.
  std::vector<std::pair<Hash256, Location>> entries;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [id, loc] : shard.index) {
      if (loc.segment == segment) entries.emplace_back(id, loc);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              return a.second.offset < b.second.offset;
            });

  bool aborted = false;
  uint64_t moved_live = 0;
  // Segments the moved records landed in. Batches are flushed to the OS but
  // NOT fsynced under append_mu_ — the old segment stays intact until the
  // truncate below, so crash replay recovers the records (replay keeps the
  // last copy of a duplicated id, and both copies decode to the same
  // bytes). One by-path fsync per target segment right before the truncate,
  // outside every lock, gives the same durability ordering at a fraction of
  // the sync count — and keeps concurrent rewrites from serializing on the
  // device behind append_mu_.
  std::vector<uint32_t> new_homes;
  // Stream the live records in bounded batches (the same shape as GC's
  // CopyLive sweep): read a run from the old file, re-encode it (delta
  // records are materialized self-contained — the rewrite is where chains
  // die — and raw records pick up compression when the store has it on),
  // append it to the active segment in one flushed run, then repoint the
  // index entries that still reference their old location.
  SegmentReader reader(*this, segment);
  const size_t kBatch = 128;
  struct Move {
    size_t entry_idx;
    Location fresh;
  };
  for (size_t start = 0; start < entries.size() && !aborted; start += kBatch) {
    const size_t n = std::min(kBatch, entries.size() - start);
    std::string buffer;
    std::vector<Move> moves;
    moves.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const auto& [id, loc] = entries[start + i];
      auto payload = reader.Read(loc);
      if (payload.ok() && loc.enc == kEncDelta) {
        payload = DecodePayload(id, loc, std::move(*payload), 0);
      }
      if (!payload.ok()) {
        // A record moved or erased under us needs no copy (it would lose
        // the repoint race anyway). A live record we cannot read or
        // resolve leaves the whole segment in place rather than truncate
        // data the index still points at.
        Location now;
        if (!Lookup(id, &now) || now.segment != loc.segment ||
            now.offset != loc.offset) {
          continue;
        }
        aborted = true;
        break;
      }
      Move mv{start + i, loc};
      if (loc.enc == kEncLz) {
        // Compressed records move verbatim — no point re-coding.
        AppendHeader2(&buffer, id, loc.length, kEncLz, loc.logical);
        buffer.append(*payload);
      } else {
        EncodeSelfContained(id, Slice(*payload), &buffer, &mv.fresh);
      }
      moves.push_back(mv);
    }
    if (aborted || buffer.empty()) continue;

    std::lock_guard<std::mutex> lock(append_mu_);
    // Roll without a pending put buffer; the closed segment is fully
    // accounted already.
    if (!RollIfFull(nullptr).ok()) {
      aborted = true;
      break;
    }
    uint64_t offset = append_.size();
    if (!AppendRun(buffer, /*sync=*/false).ok()) {
      aborted = true;
      break;
    }
    if (new_homes.empty() || new_homes.back() != append_segment_) {
      new_homes.push_back(append_segment_);
    }
    uint64_t batch_live = 0;
    uint64_t batch_live_logical = 0;
    for (Move& mv : moves) {
      mv.fresh.segment = append_segment_;
      mv.fresh.offset = offset + mv.fresh.header;
      offset += static_cast<uint64_t>(mv.fresh.header) + mv.fresh.length;
      const auto& [id, old_loc] = entries[mv.entry_idx];
      if (!Repoint(id, old_loc, mv.fresh)) continue;
      batch_live += static_cast<uint64_t>(mv.fresh.header) + mv.fresh.length;
      batch_live_logical += mv.fresh.logical;
    }
    NoteAppend(append_segment_, buffer.size(), batch_live, batch_live_logical);
    moved_live += batch_live;
  }

  if (!aborted && options_.fsync_on_flush) {
    // Durability ordering: the moved records must be on the device before
    // the only other copy is truncated away. Runs without append_mu_, so a
    // rewrite's sync never blocks writers (or other rewrites) — the device
    // wait is exactly the blocked time parallel maintenance overlaps.
    for (uint32_t seg : new_homes) {
      if (options_.rewrite_sync_delay_for_testing.count() > 0) {
        std::this_thread::sleep_for(options_.rewrite_sync_delay_for_testing);
      }
      if (!FsyncPath(SegmentPath(seg))) {
        // Keep the old segment: both copies exist, replay keeps the last.
        aborted = true;
        break;
      }
    }
  }

  if (aborted) {
    // Give back the scheduled slot; a later erase (or reopen) retries.
    std::lock_guard<std::mutex> lock(seg_mu_);
    auto it = segments_.find(segment);
    if (it != segments_.end()) it->second.compaction_scheduled = false;
    return;
  }
  // Every live record has a new home (or was erased): release the disk.
  // Truncate to zero rather than unlink so Recover's contiguous segment
  // scan still sees the file.
  std::error_code ec;
  std::filesystem::resize_file(SegmentPath(segment), 0, ec);
  uint64_t reclaimed = 0;
  {
    std::lock_guard<std::mutex> lock(seg_mu_);
    auto it = segments_.find(segment);
    if (it != segments_.end()) {
      reclaimed = it->second.total_bytes;
      segments_.erase(it);
    }
  }
  segments_rewritten_.fetch_add(1, std::memory_order_relaxed);
  rewritten_bytes_.fetch_add(moved_live, std::memory_order_relaxed);
  reclaimed_bytes_.fetch_add(reclaimed, std::memory_order_relaxed);
}

uint64_t FileChunkStore::space_used() const {
  std::lock_guard<std::mutex> lock(seg_mu_);
  uint64_t total = 0;
  for (const auto& [seg, space] : segments_) {
    (void)seg;
    total += space.total_bytes;
  }
  return total;
}

void FileChunkStore::WaitForMaintenance() {
  std::unique_lock<std::mutex> lock(seg_mu_);
  compact_cv_.wait(lock, [&] { return compactions_pending_ == 0; });
}

size_t FileChunkStore::CompactBelow(double live_ratio) {
  const uint32_t active = active_segment_.load(std::memory_order_relaxed);
  std::vector<uint32_t> targets;
  {
    std::lock_guard<std::mutex> lock(seg_mu_);
    for (auto& [seg, space] : segments_) {
      if (seg == active || space.compaction_scheduled) continue;
      if (space.total_bytes == 0) continue;
      if (static_cast<double>(space.live_bytes) >=
          live_ratio * static_cast<double>(space.total_bytes)) {
        continue;
      }
      space.compaction_scheduled = true;
      ++compactions_pending_;
      targets.push_back(seg);
    }
  }
  for (uint32_t seg : targets) SubmitCompaction(seg);
  return targets.size();
}

FileChunkStore::MaintenanceStats FileChunkStore::maintenance_stats() const {
  MaintenanceStats stats;
  stats.erased_chunks = erased_chunks_.load(std::memory_order_relaxed);
  stats.tombstone_records =
      tombstone_records_.load(std::memory_order_relaxed);
  stats.segments_rewritten =
      segments_rewritten_.load(std::memory_order_relaxed);
  stats.rewritten_bytes = rewritten_bytes_.load(std::memory_order_relaxed);
  stats.reclaimed_bytes = reclaimed_bytes_.load(std::memory_order_relaxed);
  stats.delta_records = delta_records_.load(std::memory_order_relaxed);
  stats.compressed_records =
      compressed_records_.load(std::memory_order_relaxed);
  stats.delta_chain_hops = delta_chain_hops_.load(std::memory_order_relaxed);
  stats.flattened_chains = flattened_chains_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(seg_mu_);
    stats.pending_compactions = compactions_pending_;
    for (const auto& [seg, space] : segments_) {
      (void)seg;
      stats.live_physical_bytes += space.live_bytes;
      stats.live_logical_bytes += space.live_logical_bytes;
    }
  }
  return stats;
}

FileChunkStore::MaintenanceStats& FileChunkStore::MaintenanceStats::operator+=(
    const MaintenanceStats& o) {
  erased_chunks += o.erased_chunks;
  tombstone_records += o.tombstone_records;
  segments_rewritten += o.segments_rewritten;
  rewritten_bytes += o.rewritten_bytes;
  reclaimed_bytes += o.reclaimed_bytes;
  pending_compactions += o.pending_compactions;
  delta_records += o.delta_records;
  compressed_records += o.compressed_records;
  delta_chain_hops += o.delta_chain_hops;
  flattened_chains += o.flattened_chains;
  live_logical_bytes += o.live_logical_bytes;
  live_physical_bytes += o.live_physical_bytes;
  return *this;
}

ChunkStoreStats FileChunkStore::stats() const {
  ChunkStoreStats s;
  s.chunk_count = chunk_count_.load(std::memory_order_relaxed);
  s.physical_bytes = physical_bytes_.load(std::memory_order_relaxed);
  s.put_calls = put_calls_.load(std::memory_order_relaxed);
  s.dedup_hits = dedup_hits_.load(std::memory_order_relaxed);
  s.logical_bytes = logical_bytes_.load(std::memory_order_relaxed);
  s.get_calls = get_calls_.load(std::memory_order_relaxed);
  return s;
}

void FileChunkStore::ForEach(
    const std::function<void(const Hash256&, const Chunk&)>& fn) const {
  std::vector<Hash256> ids;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    ids.reserve(ids.size() + shard.index.size());
    for (const auto& [id, loc] : shard.index) {
      (void)loc;
      ids.push_back(id);
    }
  }
  (void)ForEachChunkBatch(
      *this, ids,
      [&](size_t i, StatusOr<Chunk>& chunk) {
        if (chunk.ok()) fn(ids[i], *chunk);
        return Status::OK();  // diagnostics sweep: skip unreadable chunks
      });
}

void FileChunkStore::ForEachId(
    const std::function<void(const Hash256&, uint64_t)>& fn) const {
  // Pure index walk — no segment I/O — so reconciliation and eviction
  // bookkeeping over a big store stay cheap.
  for (Shard& shard : shards_) {
    std::vector<std::pair<Hash256, uint64_t>> snapshot;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      snapshot.reserve(shard.index.size());
      for (const auto& [id, loc] : shard.index) {
        snapshot.emplace_back(id, loc.length);
      }
    }
    // fn runs outside the shard lock: it may call back into the store.
    for (const auto& [id, len] : snapshot) fn(id, len);
  }
}

Status FileChunkStore::Flush() {
  std::lock_guard<std::mutex> lock(append_mu_);
  // An empty run: flushes what is buffered and fsyncs when configured.
  return append_.Append(Slice(), options_.fsync_on_flush);
}

}  // namespace forkbase
