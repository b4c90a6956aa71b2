#include "store/bundle.h"

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "util/codec.h"
#include "util/compress.h"
#include "util/delta_codec.h"

namespace forkbase {

namespace {

constexpr uint32_t kBundleMagicV1 = 0x46424e44;  // "FBND" — read-only
constexpr uint32_t kBundleMagicV2 = 0x46424432;  // "FBD2" — read-only
constexpr uint32_t kBundleMagicV3 = 0x46424433;  // "FBD3" — the one written
// v3 record encodings (the tag byte after each record's length).
constexpr uint8_t kRecordRaw = 0;
constexpr uint8_t kRecordLz = 1;
constexpr uint8_t kRecordDelta = 2;
// A v3 delta body is a 32-byte base id plus at least one delta byte.
constexpr size_t kMinPackedDeltaBody = 33;
// Ceiling on the in-bundle base chain the exporter will preserve. Longer
// (or cyclic, which a healthy store cannot produce) chains are materialized
// instead of shipped — the importer never needs more lookback than this.
constexpr int kMaxBundleChainHops = 512;

// Parse-time sanity caps. A head list or chunk record larger than these is
// not a plausible bundle; failing fast here turns a hostile length prefix
// (or a decoder's claimed output length) into kCorruption instead of an
// attempted giant allocation.
constexpr uint64_t kMaxBundleHeads = 1u << 20;
constexpr uint64_t kMaxChunkRecordBytes = 1u << 30;
constexpr size_t kMaxVarintBytes = 10;

/// How many GetDeltaBase hops from `id` stay inside the shipped set
/// (`sorted`); -1 past kMaxBundleChainHops — a corruption firewall, not a
/// tuning knob.
int InBundleChainDepth(const ChunkStore& store,
                       const std::vector<Hash256>& sorted, const Hash256& id) {
  int depth = 0;
  Hash256 cur = id;
  Hash256 base;
  while (store.GetDeltaBase(cur, &base) &&
         std::binary_search(sorted.begin(), sorted.end(), base)) {
    if (++depth > kMaxBundleChainHops) return -1;
    cur = base;
  }
  return depth;
}

}  // namespace

StatusOr<BundleStats> ExportBundle(const ChunkStore& store,
                                   const std::vector<Hash256>& heads,
                                   const std::vector<Hash256>& ids,
                                   const BundleSink& sink) {
  if (heads.empty()) {
    return Status::InvalidArgument("bundle export needs at least one head");
  }
  std::vector<Hash256> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  BundleStats stats;
  std::string out;
  PutFixed32(&out, kBundleMagicV3);
  PutVarint64(&out, heads.size());
  for (const auto& head : heads) {
    out.append(reinterpret_cast<const char*>(head.bytes.data()), 32);
  }
  PutVarint64(&out, sorted.size());
  FB_RETURN_IF_ERROR(sink(Slice(out)));
  stats.bytes += out.size();

  auto emit = [&](uint8_t enc, const Hash256* base, Slice body) -> Status {
    out.clear();
    PutVarint64(&out, (base ? 32 : 0) + body.size());
    out.push_back(static_cast<char>(enc));
    if (base != nullptr) {
      out.append(reinterpret_cast<const char*>(base->bytes.data()), 32);
    }
    out.append(body.data(), body.size());
    FB_RETURN_IF_ERROR(sink(Slice(out)));
    stats.bytes += out.size();
    ++stats.chunks;
    return Status::OK();
  };
  // Logical bytes ship verbatim: the writer forwards what the store already
  // paid to encode; it has no wire compression policy of its own.
  auto emit_materialized = [&](const Hash256& id, const Chunk& chunk) {
    if (chunk.hash() != id) {
      return Status::Corruption("chunk " + id.ToBase32() +
                                " is tampered; refusing to export");
    }
    return emit(kRecordRaw, nullptr, chunk.bytes());
  };

  // Self-contained records first. An LZ block ships as stored, the moment
  // the probe has read it; everything else without an in-bundle delta base
  // is read through the batched, cached Get path below — the probe reports
  // a verbatim record without reading it.
  struct Delta {
    int depth;
    Hash256 id;
    Hash256 base;
  };
  std::vector<Delta> deltas;
  std::vector<Hash256> materialize;
  ChunkStore::PhysicalRecord rec;
  for (const auto& id : sorted) {
    Hash256 base;
    if (store.GetDeltaBase(id, &base)) {
      const int depth = InBundleChainDepth(store, sorted, id);
      if (depth > 0) {
        deltas.push_back({depth, id, base});
        continue;
      }
    } else if (store.GetPhysicalRecord(id, &rec) &&
               rec.encoding == ChunkStore::Encoding::kCompressed) {
      FB_RETURN_IF_ERROR(emit(kRecordLz, nullptr, Slice(rec.payload)));
      ++stats.compressed_chunks;
      continue;
    }
    materialize.push_back(id);
  }
  FB_RETURN_IF_ERROR(ForEachChunkBatch(
      store, materialize,
      [&](size_t index, StatusOr<Chunk>& chunk_or) -> Status {
        if (!chunk_or.ok()) return chunk_or.status();
        return emit_materialized(materialize[index], *chunk_or);
      },
      BatchHashing::kPrecompute));

  // Deltas by (in-bundle chain depth, id): every base is either a
  // self-contained record above or a shallower delta, so it precedes its
  // dependents — the order the importer resolves them in.
  std::sort(deltas.begin(), deltas.end(), [](const Delta& a, const Delta& b) {
    return std::tie(a.depth, a.id) < std::tie(b.depth, b.id);
  });
  for (const auto& delta : deltas) {
    if (store.GetPhysicalRecord(delta.id, &rec) &&
        rec.encoding == ChunkStore::Encoding::kDelta &&
        rec.delta_base == delta.base) {
      FB_RETURN_IF_ERROR(emit(kRecordDelta, &delta.base, Slice(rec.payload)));
      ++stats.delta_chunks;
      continue;
    }
    // A compaction flattened the record since the probe.
    FB_ASSIGN_OR_RETURN(Chunk chunk, store.Get(delta.id));
    FB_RETURN_IF_ERROR(emit_materialized(delta.id, chunk));
  }
  return stats;
}

namespace {

/// Tree stage of DeltaClosure: emits the nodes of a value tree that none of
/// its base trees holds. Nodes are compared level by level, counted from
/// the leaves, so trees whose heights differ still line up; a node whose id
/// a base holds at the same level is skipped unloaded. Base nodes are
/// loaded only to learn candidate ids for the level below, and only while
/// fresh nodes remain there.
class TreeDelta {
 public:
  TreeDelta(const ChunkStore& store,
            std::unordered_set<Hash256, Hash256Hasher>* emitted,
            std::vector<Hash256>* out)
      : store_(store), emitted_(emitted), out_(out) {}

  Status Add(const Hash256& root, const std::vector<Hash256>& base_roots) {
    FB_RETURN_IF_ERROR(Descend(root, base_roots));
    // Children of a leaf-level node: only a malformed tree has them, and
    // they are checked in full like any tree without bases.
    while (!orphans_.empty()) {
      const Hash256 orphan = orphans_.back();
      orphans_.pop_back();
      FB_RETURN_IF_ERROR(Descend(orphan, {}));
    }
    return Status::OK();
  }

 private:
  Status Descend(const Hash256& root, const std::vector<Hash256>& base_roots) {
    if (emitted_->count(root) ||
        std::find(base_roots.begin(), base_roots.end(), root) !=
            base_roots.end()) {
      return Status::OK();
    }
    FB_ASSIGN_OR_RETURN(size_t top, Level(root));
    std::vector<std::vector<Hash256>> fresh(top + 1), held(top + 1);
    fresh[top].push_back(root);
    for (const auto& base_root : base_roots) {
      FB_ASSIGN_OR_RETURN(size_t level, Level(base_root));
      if (level >= held.size()) {
        held.resize(level + 1);
        fresh.resize(level + 1);
      }
      held[level].push_back(base_root);
    }
    for (size_t level = held.size() - 1;; --level) {
      const std::unordered_set<Hash256, Hash256Hasher> in_base(
          held[level].begin(), held[level].end());
      std::vector<Hash256> survivors;
      for (const auto& id : fresh[level]) {
        if (!in_base.count(id) && emitted_->insert(id).second) {
          survivors.push_back(id);
        }
      }
      out_->insert(out_->end(), survivors.begin(), survivors.end());
      if (level == 0) return Expand(survivors, &orphans_);
      FB_RETURN_IF_ERROR(Expand(survivors, &fresh[level - 1]));
      if (level - 1 <= top && fresh[level - 1].empty()) return Status::OK();
      // A base node some fresh node matched holds that very subtree; only
      // the unmatched ones can match fresh nodes further down.
      std::unordered_set<Hash256, Hash256Hasher> skip(fresh[level].begin(),
                                                      fresh[level].end());
      std::vector<Hash256> unmatched;
      for (const auto& id : held[level]) {
        if (skip.insert(id).second) unmatched.push_back(id);
      }
      FB_RETURN_IF_ERROR(Expand(unmatched, &held[level - 1]));
    }
  }

  /// Loads `ids` (batched) and appends their children to `children`. An
  /// index node is loaded and parsed once per DeltaClosure: one version's
  /// fresh tree is the next version's base tree.
  Status Expand(const std::vector<Hash256>& ids,
                std::vector<Hash256>* children) {
    std::vector<Hash256> misses;
    for (const auto& id : ids) {
      if (!index_.count(id)) misses.push_back(id);
    }
    std::vector<Hash256> parsed;
    FB_RETURN_IF_ERROR(ForEachChunkBatch(
        store_, misses,
        [&](size_t i, StatusOr<Chunk>& chunk_or) -> Status {
          if (!chunk_or.ok()) return chunk_or.status();
          parsed.clear();
          FB_RETURN_IF_ERROR(AppendTreeChildren(*chunk_or, &parsed));
          if (!parsed.empty()) index_.emplace(misses[i], parsed);
          return Status::OK();
        }));
    for (const auto& id : ids) {
      auto it = index_.find(id);
      if (it == index_.end()) continue;  // a leaf
      children->insert(children->end(), it->second.begin(), it->second.end());
    }
    return Status::OK();
  }

  /// Distance from `root` to the leaves, down its leftmost path.
  StatusOr<size_t> Level(const Hash256& root) {
    size_t level = 0;
    std::vector<Hash256> children{root};
    for (;;) {
      const Hash256 current = children.front();
      children.clear();
      FB_RETURN_IF_ERROR(Expand({current}, &children));
      if (children.empty()) return level;
      ++level;
    }
  }

  const ChunkStore& store_;
  std::unordered_set<Hash256, Hash256Hasher>* emitted_;
  std::vector<Hash256>* out_;
  std::vector<Hash256> orphans_;
  /// Children of the index nodes (and table headers) loaded so far.
  std::unordered_map<Hash256, std::vector<Hash256>, Hash256Hasher> index_;
};

}  // namespace

StatusOr<std::vector<Hash256>> DeltaClosure(const ChunkStore& store,
                                            const std::vector<Hash256>& want,
                                            const std::vector<Hash256>& have,
                                            CommitGraph* graph) {
  CommitGraph scratch;
  if (graph == nullptr) graph = &scratch;
  std::vector<Hash256> out;
  std::unordered_set<Hash256, Hash256Hasher> emitted;
  TreeDelta trees(store, &emitted, &out);

  std::unordered_set<std::string> keys;
  std::vector<Hash256> want_versions;
  for (const auto& id : want) {
    FB_ASSIGN_OR_RETURN(Chunk chunk, store.Get(id));
    if (chunk.type() != ChunkType::kFNode) {
      FB_RETURN_IF_ERROR(trees.Add(id, {}));
      continue;
    }
    FB_ASSIGN_OR_RETURN(FNode node, FNode::FromChunk(chunk));
    keys.insert(node.key);
    want_versions.push_back(id);
  }
  std::vector<Hash256> have_versions;
  for (const auto& id : have) {
    if (!store.Contains(id)) continue;
    auto node = FNode::Load(&store, id);
    if (node.ok() && keys.count(node->key)) have_versions.push_back(id);
  }
  FB_ASSIGN_OR_RETURN(auto versions,
                      NewVersions(store, graph, want_versions, have_versions));

  // Oldest first: a descent trusts its bases' trees and every subtree
  // emitted before it, so both must be settled already — walking newest
  // first would let a base's descent skip a subtree whose children the
  // newer version pruned against that very base.
  for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
    const Hash256& uid = *it;
    FB_ASSIGN_OR_RETURN(FNode node, FNode::Load(&store, uid));
    emitted.insert(uid);
    out.push_back(uid);
    if (!node.value.is_container()) continue;
    std::vector<Hash256> base_roots;
    for (const auto& base : node.bases) {
      FB_ASSIGN_OR_RETURN(FNode base_node, FNode::Load(&store, base));
      if (base_node.value.is_container()) {
        base_roots.push_back(base_node.value.root());
      }
    }
    FB_RETURN_IF_ERROR(trees.Add(node.value.root(), base_roots));
  }
  return out;
}

StatusOr<ImportResult> ImportBundle(Slice bundle, ChunkStore* dst,
                                    const ForkBase* local) {
  BundleImporter importer(dst, local);
  FB_RETURN_IF_ERROR(importer.Feed(bundle));
  return importer.Finish();
}

Status BundleImporter::Fail(std::string message) {
  error_ = Status::Corruption(std::move(message));
  return error_;
}

Status BundleImporter::Feed(Slice bytes) {
  if (!error_.ok()) return error_;
  buffer_.append(bytes.data(), bytes.size());
  return Parse();
}

Status BundleImporter::Parse() {
  size_t pos = 0;
  for (;;) {
    Slice rest(buffer_.data() + pos, buffer_.size() - pos);
    if (state_ == State::kMagic) {
      if (rest.size() < 4) break;
      Decoder dec(rest);
      uint32_t magic = 0;
      dec.GetFixed32(&magic);
      if (magic != kBundleMagicV1 && magic != kBundleMagicV2 &&
          magic != kBundleMagicV3) {
        return Fail("not a ForkBase bundle");
      }
      pos += 4;
      packed_ = magic == kBundleMagicV3;
      if (magic == kBundleMagicV1) {
        heads_expected_ = 1;
        state_ = State::kHeadList;
      } else {
        state_ = State::kHeadCount;
      }
    } else if (state_ == State::kHeadCount ||
               state_ == State::kChunkCount) {
      Decoder dec(rest);
      uint64_t v = 0;
      if (!dec.GetVarint64(&v)) {
        // A varint never needs more than 10 bytes: with that many on hand
        // a failed decode is malformed, not merely incomplete.
        if (rest.size() >= kMaxVarintBytes) {
          return Fail("bundle: malformed varint");
        }
        break;
      }
      pos += dec.position();
      if (state_ == State::kHeadCount) {
        if (v == 0) return Fail("bundle: missing head list");
        if (v > kMaxBundleHeads) return Fail("bundle: absurd head count");
        heads_expected_ = v;
        state_ = State::kHeadList;
      } else {
        chunks_expected_ = v;
        state_ = State::kRecords;
      }
    } else if (state_ == State::kHeadList) {
      if (rest.size() < 32) break;
      Hash256 head;
      std::memcpy(head.bytes.data(), rest.data(), 32);
      result_.heads.push_back(head);
      pos += 32;
      if (result_.heads.size() == heads_expected_) {
        result_.head = result_.heads.front();
        state_ = State::kChunkCount;
      }
    } else {  // State::kRecords
      if (chunks_seen_ == chunks_expected_) {
        if (!rest.empty()) return Fail("bundle: trailing bytes");
        break;
      }
      Decoder dec(rest);
      uint64_t len = 0;
      if (!dec.GetVarint64(&len)) {
        if (rest.size() >= kMaxVarintBytes) {
          return Fail("bundle: malformed varint");
        }
        break;
      }
      if (len == 0) return Fail("bundle: truncated chunk record");
      if (len > kMaxChunkRecordBytes) {
        return Fail("bundle: absurd chunk record length");
      }
      // A packed (v3) record carries a 1-byte encoding tag between the
      // length and the body.
      const size_t body_extra = packed_ ? 1 : 0;
      if (dec.remaining() < len + body_extra) break;
      const size_t prefix = dec.position() + body_extra;
      std::string chunk_bytes;
      if (packed_) {
        const uint8_t enc =
            static_cast<uint8_t>(rest.data()[dec.position()]);
        const Slice body(rest.data() + prefix, len);
        if (enc == kRecordRaw) {
          chunk_bytes.assign(body.data(), body.size());
        } else if (enc == kRecordLz) {
          if (!LzDecompressBlock(body, &chunk_bytes, kMaxChunkRecordBytes)) {
            return Fail("bundle: malformed compressed record");
          }
        } else if (enc == kRecordDelta) {
          // The exporter orders bases before dependents, so the base is
          // already admitted to dst — resolve it there, not from staging.
          if (body.size() < kMinPackedDeltaBody) {
            return Fail("bundle: short delta record");
          }
          Hash256 base;
          std::memcpy(base.bytes.data(), body.data(), 32);
          // The base may be a record staged earlier in this very feed —
          // admit the backlog before looking it up.
          FB_RETURN_IF_ERROR(FlushStaged());
          auto base_chunk = dst_->Get(base);
          if (!base_chunk.ok()) {
            if (base_chunk.status().IsNotFound()) {
              return Fail("bundle: delta base " + base.ToBase32() +
                          " not resident at import time");
            }
            error_ = base_chunk.status();
            return error_;
          }
          if (!ApplyDelta(base_chunk->bytes(),
                          Slice(body.data() + 32, body.size() - 32),
                          &chunk_bytes, kMaxChunkRecordBytes)) {
            return Fail("bundle: delta record does not apply to its base");
          }
        } else {
          return Fail("bundle: unknown record encoding");
        }
      } else {
        chunk_bytes.assign(rest.data() + prefix, len);
      }
      // Self-verification: the id is recomputed from the bytes, so a chunk
      // can be admitted the moment its record completes — a record the wire
      // corrupted simply lands under a different id (or fails its codec's
      // own guards above) and the closure check at Finish() reports the gap.
      Chunk chunk = Chunk::FromBytes(std::move(chunk_bytes));
      result_.bytes += chunk.size();
      staged_.push_back(std::move(chunk));
      ++result_.chunks;
      ++chunks_seen_;
      if (staged_.size() >= kChunkSweepBatch) {
        FB_RETURN_IF_ERROR(FlushStaged());
      }
      pos += prefix + len;
    }
  }
  buffer_.erase(0, pos);
  // One batched write per feed (bounded above by kChunkSweepBatch flushes):
  // PutMany computes the batch's identities through the pooled hasher, so
  // import rehashing rides the same fan-out as ingest.
  return FlushStaged();
}

Status BundleImporter::FlushStaged() {
  if (staged_.empty()) return Status::OK();
  Chunk::PrecomputeHashes(staged_, SharedHashPool());
  // new_chunks must count a chunk repeated within one batch only once, like
  // the old record-at-a-time Contains-then-Put did.
  std::unordered_set<Hash256, Hash256Hasher> batch_new;
  for (const Chunk& chunk : staged_) {
    const Hash256& id = chunk.hash();
    if (!dst_->Contains(id) && batch_new.insert(id).second) {
      ++result_.new_chunks;
    }
  }
  Status put = dst_->PutMany(staged_);
  staged_.clear();
  if (!put.ok()) {
    error_ = put;
    return error_;
  }
  return Status::OK();
}

StatusOr<ImportResult> BundleImporter::Finish() {
  if (!error_.ok()) return error_;
  FB_RETURN_IF_ERROR(FlushStaged());
  if (state_ != State::kRecords || chunks_seen_ != chunks_expected_ ||
      !buffer_.empty()) {
    return Fail("bundle: truncated");
  }
  // Every bundle chunk is already in dst, so head presence in bundle ∪ dst
  // collapses to a Contains probe.
  for (const auto& head : result_.heads) {
    if (!dst_->Contains(head)) {
      return Fail("bundle does not contain its head uid");
    }
  }
  // Closure check: what the local heads of the bundle's keys do not
  // already cover must be loadable from dst.
  std::vector<Hash256> have;
  if (local_ != nullptr) {
    std::unordered_set<std::string> keys;
    for (const auto& head : result_.heads) {
      auto node = FNode::Load(dst_, head);
      if (!node.ok() || !keys.insert(node->key).second) continue;
      auto heads = local_->Latest(node->key);
      if (!heads.ok()) continue;  // a key new to this instance
      for (const auto& [branch, uid] : *heads) {
        (void)branch;
        have.push_back(uid);
      }
    }
  }
  auto closure = DeltaClosure(*dst_, result_.heads, have,
                              local_ ? local_->commit_graph() : nullptr);
  if (!closure.ok()) {
    return Fail("bundle closure incomplete: " + closure.status().message());
  }
  return result_;
}

}  // namespace forkbase
