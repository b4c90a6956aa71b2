#include "store/forkbase.h"

#include <algorithm>
#include <sstream>
#include <tuple>
#include <unordered_set>

#include "store/gc.h"
#include "store/merge_engine.h"

namespace forkbase {

namespace {

/// ResurrectionGuard: a publish that re-points a branch at pre-existing
/// history (nothing was put, so nothing is pin-protected) races an
/// in-place sweep's erase batches. Under the write lease — which excludes
/// the sweep's check-and-erase sections — walk the target's full closure
/// and pin it: either every chunk is still present (pinned, the remaining
/// batches spare them) or some were already erased (refuse the publish
/// before it creates a dangling head).
Status PinReachableForSweep(ChunkStore* store, const Hash256& target) {
  auto live_or = MarkLive(*store, {target});
  if (!live_or.ok()) {
    if (live_or.status().code() == StatusCode::kNotFound) {
      return Status::NotFound(
          "version history was reclaimed by a concurrent GC sweep; "
          "re-upload it or retry after the sweep");
    }
    return live_or.status();
  }
  std::vector<Hash256> ids(live_or->begin(), live_or->end());
  store->PinIds(ids);
  return Status::OK();
}

}  // namespace

ForkBase::ForkBase(std::shared_ptr<ChunkStore> store, const Config::Commit&)
    : store_(std::move(store)) {}

ForkBase::~ForkBase() = default;

StatusOr<std::unique_ptr<ForkBase>> ForkBase::Open(const std::string& path) {
  return Open(path, Config{});
}

StatusOr<std::unique_ptr<ForkBase>> ForkBase::Open(const std::string& path,
                                                   const Config& config) {
  // Hot and cold file stores share every knob but one: only the hot store
  // gets the budget clamp.
  auto file_options = [&config](bool hot) {
    FileChunkStore::Options options;
    options.fsync_on_flush = config.fsync;
    options.maintenance_threads = config.maintenance_threads;
    options.compression = config.compression
                              ? FileChunkStore::Compression::kLz
                              : FileChunkStore::Compression::kNone;
    options.delta_chain_depth = config.delta_chain_depth;
    options.delta_window = config.delta_window;
    if (hot && config.tier.hot_bytes_budget > 0) {
      // A bounded hot tier wants segments much smaller than the budget:
      // eviction reclaims disk at segment-rewrite granularity, and the
      // budget's slack is "one active segment". Keep several segments per
      // budget, within sane bounds.
      options.segment_bytes = std::clamp<uint64_t>(
          config.tier.hot_bytes_budget / 8, 1ull << 20, 64ull << 20);
    }
    if (config.segment_bytes > 0) options.segment_bytes = config.segment_bytes;
    return options;
  };
  // Lock every directory before touching any file in it, so a second Open
  // of a live store fails cleanly instead of interleaving appends.
  std::vector<DirLock> locks;
  for (const std::string* dir : {&path, &config.tier.cold_dir}) {
    if (dir->empty()) continue;
    FB_ASSIGN_OR_RETURN(DirLock lock, DirLock::Acquire(*dir));
    locks.push_back(std::move(lock));
  }
  FB_ASSIGN_OR_RETURN(auto file_store,
                      FileChunkStore::Open(path, file_options(true)));
  FileChunkStore* hot_raw = file_store.get();
  FileChunkStore* cold_raw = nullptr;
  std::shared_ptr<ChunkStore> backing(std::move(file_store));
  std::shared_ptr<TieredChunkStore> tiered;
  if (!config.tier.cold_dir.empty()) {
    // Tiered stack: `path` is the hot tier, tier.cold_dir the cold backend.
    FB_ASSIGN_OR_RETURN(
        auto cold_store,
        FileChunkStore::Open(config.tier.cold_dir, file_options(false)));
    cold_raw = cold_store.get();
    TieredChunkStore::Options tier_options;
    tier_options.policy = config.tier.write_back ? TierPolicy::kWriteBack
                                                 : TierPolicy::kWriteThrough;
    tier_options.hot_bytes_budget = config.tier.hot_bytes_budget;
    if (config.tier.write_back) {
      // The persistent dirty manifest lives beside the hot segments: a
      // reopened write-back stack resumes demotion where the last process
      // stopped (crash included) instead of silently abandoning it.
      FB_ASSIGN_OR_RETURN(auto manifest, DirtyManifest::Open(path));
      tier_options.dirty_manifest = std::move(manifest);
    }
    tiered = std::make_shared<TieredChunkStore>(
        std::move(backing), std::shared_ptr<ChunkStore>(std::move(cold_store)),
        std::move(tier_options));
    backing = tiered;
  }
  auto cache = std::make_shared<CachingChunkStore>(std::move(backing),
                                                   config.cache_bytes);
  CachingChunkStore* cache_raw = cache.get();
  auto db = std::make_unique<ForkBase>(std::move(cache));
  db->dir_locks_ = std::move(locks);
  db->tiered_store_ = std::move(tiered);
  db->cache_store_ = cache_raw;
  db->hot_file_store_ = hot_raw;
  db->cold_file_store_ = cold_raw;
  db->config_ = config;
  // Branch heads live beside the (hot) segments, in the head log.
  FB_RETURN_IF_ERROR(db->branch_table_.Attach(path, config.fsync));
  return db;
}

StatusOr<Hash256> ForkBase::Commit(const std::string& key, const Value& value,
                                   std::optional<std::vector<Hash256>> bases,
                                   const std::string& branch,
                                   const PutMeta& meta,
                                   std::optional<Hash256> expected_head) {
  CommitQueue::Request req;
  req.key = key;
  req.value = value;
  req.bases = std::move(bases);
  req.expected_head = expected_head;
  req.branch = branch;
  req.author = meta.author;
  req.message = meta.message;
  return commit_queue_.Commit(std::move(req));
}

StatusOr<Hash256> ForkBase::Put(const std::string& key, const Value& value,
                                const std::string& branch,
                                const PutMeta& meta) {
  auto lease = AcquireWriteLease();
  return PutLeased(key, value, branch, meta);
}

StatusOr<Hash256> ForkBase::PutLeased(const std::string& key,
                                      const Value& value,
                                      const std::string& branch,
                                      const PutMeta& meta) {
  if (key.empty()) return Status::InvalidArgument("empty key");
  return Commit(key, value, std::nullopt, branch, meta);
}

StatusOr<Hash256> ForkBase::PutIf(const std::string& key, const Value& value,
                                  const Hash256& expected_head,
                                  const std::string& branch,
                                  const PutMeta& meta) {
  auto lease = AcquireWriteLease();
  if (key.empty()) return Status::InvalidArgument("empty key");
  return Commit(key, value, std::vector<Hash256>{expected_head}, branch, meta,
                expected_head);
}

StatusOr<Hash256> ForkBase::AdvanceHead(const std::string& key,
                                        const std::string& branch,
                                        const Hash256& expected,
                                        const Hash256& target) {
  auto lease = AcquireWriteLease();
  // Unlike the commit path (whose targets were just put, hence pinned),
  // this CAS can point at arbitrary pre-existing history — sync
  // fast-forwards do exactly that with chunks the store may already hold
  // as garbage.
  if (gc_sweep_active()) {
    FB_RETURN_IF_ERROR(PinReachableForSweep(store_.get(), target));
  }
  return commit_queue_.AdvanceHead(key, branch, expected, target);
}

StatusOr<Hash256> ForkBase::PutBlob(const std::string& key, Slice bytes,
                                    const std::string& branch,
                                    const PutMeta& meta) {
  auto lease = AcquireWriteLease();
  FB_ASSIGN_OR_RETURN(FBlob blob, FBlob::Create(store_.get(), bytes));
  return PutLeased(key, Value::OfBlob(blob.root()), branch, meta);
}

StatusOr<Hash256> ForkBase::PutMap(
    const std::string& key,
    std::vector<std::pair<std::string, std::string>> kvs,
    const std::string& branch, const PutMeta& meta) {
  auto lease = AcquireWriteLease();
  FB_ASSIGN_OR_RETURN(FMap map, FMap::Create(store_.get(), std::move(kvs)));
  return PutLeased(key, Value::OfMap(map.root()), branch, meta);
}

StatusOr<Hash256> ForkBase::PutSet(const std::string& key,
                                   std::vector<std::string> members,
                                   const std::string& branch,
                                   const PutMeta& meta) {
  auto lease = AcquireWriteLease();
  FB_ASSIGN_OR_RETURN(FSet set, FSet::Create(store_.get(), std::move(members)));
  return PutLeased(key, Value::OfSet(set.root()), branch, meta);
}

StatusOr<Hash256> ForkBase::PutList(const std::string& key,
                                    const std::vector<std::string>& elements,
                                    const std::string& branch,
                                    const PutMeta& meta) {
  auto lease = AcquireWriteLease();
  FB_ASSIGN_OR_RETURN(FList list, FList::Create(store_.get(), elements));
  return PutLeased(key, Value::OfList(list.root()), branch, meta);
}

StatusOr<Hash256> ForkBase::PutTableFromCsv(const std::string& key,
                                            const CsvDocument& doc,
                                            size_t key_column,
                                            const std::string& branch,
                                            const PutMeta& meta) {
  auto lease = AcquireWriteLease();
  FB_ASSIGN_OR_RETURN(FTable table,
                      FTable::FromCsv(store_.get(), doc, key_column));
  return PutLeased(key, Value::OfTable(table.id()), branch, meta);
}

StatusOr<Hash256> ForkBase::UpdateMap(const std::string& key,
                                      std::vector<KeyedOp> ops,
                                      const std::string& branch,
                                      const PutMeta& meta) {
  auto lease = AcquireWriteLease();
  FB_ASSIGN_OR_RETURN(FMap map, GetMap(key, branch));
  FB_ASSIGN_OR_RETURN(FMap updated, map.Apply(std::move(ops)));
  return PutLeased(key, Value::OfMap(updated.root()), branch, meta);
}

StatusOr<Hash256> ForkBase::UpdateTableCell(const std::string& key,
                                            Slice row_key, size_t column,
                                            const std::string& value,
                                            const std::string& branch,
                                            const PutMeta& meta) {
  auto lease = AcquireWriteLease();
  FB_ASSIGN_OR_RETURN(FTable table, GetTable(key, branch));
  FB_ASSIGN_OR_RETURN(FTable updated,
                      table.UpdateCell(row_key, column, value));
  return PutLeased(key, Value::OfTable(updated.id()), branch, meta);
}

StatusOr<Hash256> ForkBase::AppendBlob(const std::string& key, Slice bytes,
                                       const std::string& branch,
                                       const PutMeta& meta) {
  auto lease = AcquireWriteLease();
  FB_ASSIGN_OR_RETURN(FBlob blob, GetBlob(key, branch));
  FB_ASSIGN_OR_RETURN(FBlob appended, blob.Append(bytes));
  return PutLeased(key, Value::OfBlob(appended.root()), branch, meta);
}

StatusOr<Hash256> ForkBase::AppendList(const std::string& key,
                                       const std::string& element,
                                       const std::string& branch,
                                       const PutMeta& meta) {
  auto lease = AcquireWriteLease();
  FB_ASSIGN_OR_RETURN(FList list, GetList(key, branch));
  FB_ASSIGN_OR_RETURN(FList appended, list.Append(element));
  return PutLeased(key, Value::OfList(appended.root()), branch, meta);
}

StatusOr<Value> ForkBase::Get(const std::string& key,
                              const std::string& branch) const {
  FB_ASSIGN_OR_RETURN(Hash256 uid, branch_table_.Head(key, branch));
  return GetVersion(uid);
}

StatusOr<Value> ForkBase::GetVersion(const Hash256& uid) const {
  FB_ASSIGN_OR_RETURN(FNode node, FNode::Load(store_.get(), uid));
  return node.value;
}

namespace {
Status ExpectType(const Value& v, ValueType want) {
  if (v.type() != want) {
    return Status::InvalidArgument(
        std::string("object is a ") + ValueTypeToString(v.type()) + ", not a " +
        ValueTypeToString(want));
  }
  return Status::OK();
}
}  // namespace

StatusOr<FBlob> ForkBase::GetBlob(const std::string& key,
                                  const std::string& branch) const {
  FB_ASSIGN_OR_RETURN(Value v, Get(key, branch));
  FB_RETURN_IF_ERROR(ExpectType(v, ValueType::kBlob));
  return FBlob::Attach(store_.get(), v.root());
}

StatusOr<FMap> ForkBase::GetMap(const std::string& key,
                                const std::string& branch) const {
  FB_ASSIGN_OR_RETURN(Value v, Get(key, branch));
  FB_RETURN_IF_ERROR(ExpectType(v, ValueType::kMap));
  return FMap::Attach(store_.get(), v.root());
}

StatusOr<FSet> ForkBase::GetSet(const std::string& key,
                                const std::string& branch) const {
  FB_ASSIGN_OR_RETURN(Value v, Get(key, branch));
  FB_RETURN_IF_ERROR(ExpectType(v, ValueType::kSet));
  return FSet::Attach(store_.get(), v.root());
}

StatusOr<FList> ForkBase::GetList(const std::string& key,
                                  const std::string& branch) const {
  FB_ASSIGN_OR_RETURN(Value v, Get(key, branch));
  FB_RETURN_IF_ERROR(ExpectType(v, ValueType::kList));
  return FList::Attach(store_.get(), v.root());
}

StatusOr<FTable> ForkBase::GetTable(const std::string& key,
                                    const std::string& branch) const {
  FB_ASSIGN_OR_RETURN(Value v, Get(key, branch));
  FB_RETURN_IF_ERROR(ExpectType(v, ValueType::kTable));
  return FTable::Attach(store_.get(), v.root());
}

StatusOr<Hash256> ForkBase::Head(const std::string& key,
                                 const std::string& branch) const {
  return branch_table_.Head(key, branch);
}

StatusOr<std::vector<std::pair<std::string, Hash256>>> ForkBase::Latest(
    const std::string& key) const {
  auto heads = branch_table_.Heads(key);
  if (heads.empty()) return Status::NotFound("key " + key);
  return heads;
}

bool ForkBase::IsBranchHead(const std::string& key, const Hash256& uid) const {
  for (const auto& [branch, head] : branch_table_.Heads(key)) {
    (void)branch;
    if (head == uid) return true;
  }
  return false;
}

StatusOr<VersionInfo> ForkBase::Meta(const Hash256& uid) const {
  FB_ASSIGN_OR_RETURN(FNode node, FNode::Load(store_.get(), uid));
  VersionInfo info;
  info.uid = uid;
  info.key = node.key;
  info.type = node.value.type();
  info.bases = node.bases;
  info.author = node.author;
  info.message = node.message;
  info.logical_time = node.logical_time;
  return info;
}

StatusOr<std::vector<VersionInfo>> ForkBase::History(const std::string& key,
                                                     const std::string& branch,
                                                     size_t limit) const {
  FB_ASSIGN_OR_RETURN(Hash256 uid, branch_table_.Head(key, branch));
  std::vector<VersionInfo> out;
  while (out.size() < limit) {
    FB_ASSIGN_OR_RETURN(VersionInfo info, Meta(uid));
    out.push_back(info);
    if (info.bases.empty()) break;
    uid = info.bases.front();  // first-parent walk
  }
  return out;
}

Status ForkBase::Branch(const std::string& key, const std::string& new_branch,
                        const std::string& from_branch) {
  auto lease = AcquireWriteLease();
  FB_ASSIGN_OR_RETURN(Hash256 uid, branch_table_.Head(key, from_branch));
  return branch_table_.Create(key, new_branch, uid);
}

Status ForkBase::BranchFromVersion(const std::string& key,
                                   const std::string& new_branch,
                                   const Hash256& uid) {
  auto lease = AcquireWriteLease();
  FB_ASSIGN_OR_RETURN(FNode node, FNode::Load(store_.get(), uid));
  if (node.key != key) {
    return Status::InvalidArgument("version belongs to key " + node.key);
  }
  if (gc_sweep_active()) {
    FB_RETURN_IF_ERROR(PinReachableForSweep(store_.get(), uid));
  }
  return branch_table_.Create(key, new_branch, uid);
}

Status ForkBase::RenameBranch(const std::string& key, const std::string& from,
                              const std::string& to) {
  auto lease = AcquireWriteLease();
  return branch_table_.Rename(key, from, to);
}

Status ForkBase::DeleteBranch(const std::string& key,
                              const std::string& branch) {
  auto lease = AcquireWriteLease();
  return branch_table_.Delete(key, branch);
}

StatusOr<std::vector<std::string>> ForkBase::ListBranches(
    const std::string& key) const {
  auto branches = branch_table_.Branches(key);
  if (branches.empty()) return Status::NotFound("key " + key);
  return branches;
}

std::vector<std::string> ForkBase::ListKeys() const {
  return branch_table_.Keys();
}

StatusOr<ObjectDiff> ForkBase::Diff(const std::string& key,
                                    const std::string& branch_a,
                                    const std::string& branch_b) const {
  FB_ASSIGN_OR_RETURN(Hash256 ua, branch_table_.Head(key, branch_a));
  FB_ASSIGN_OR_RETURN(Hash256 ub, branch_table_.Head(key, branch_b));
  return DiffVersions(ua, ub);
}

StatusOr<ObjectDiff> ForkBase::DiffVersions(const Hash256& uid_a,
                                            const Hash256& uid_b) const {
  FB_ASSIGN_OR_RETURN(Value va, GetVersion(uid_a));
  FB_ASSIGN_OR_RETURN(Value vb, GetVersion(uid_b));
  ObjectDiff diff;
  diff.left = va;
  diff.right = vb;
  if (va.type() != vb.type()) {
    diff.type = va.type();
    diff.identical = false;
    return diff;
  }
  diff.type = va.type();
  if (va == vb) {
    diff.identical = true;
    return diff;
  }
  const ChunkStore* cs = store_.get();
  switch (va.type()) {
    case ValueType::kMap: {
      FB_ASSIGN_OR_RETURN(diff.keyed,
                          DiffKeyed(PosTree(cs, ChunkType::kMapLeaf, va.root()),
                                    PosTree(cs, ChunkType::kMapLeaf, vb.root()),
                                    &diff.metrics));
      diff.identical = diff.keyed.empty();
      return diff;
    }
    case ValueType::kSet: {
      FB_ASSIGN_OR_RETURN(diff.keyed,
                          DiffKeyed(PosTree(cs, ChunkType::kSetLeaf, va.root()),
                                    PosTree(cs, ChunkType::kSetLeaf, vb.root()),
                                    &diff.metrics));
      diff.identical = diff.keyed.empty();
      return diff;
    }
    case ValueType::kList: {
      FB_ASSIGN_OR_RETURN(
          diff.sequence,
          DiffSequence(PosTree(cs, ChunkType::kListLeaf, va.root()),
                       PosTree(cs, ChunkType::kListLeaf, vb.root()),
                       &diff.metrics));
      diff.identical = !diff.sequence.has_value();
      return diff;
    }
    case ValueType::kBlob: {
      FB_ASSIGN_OR_RETURN(
          diff.sequence,
          DiffSequence(PosTree(cs, ChunkType::kBlobLeaf, va.root(),
                               TreeConfig::ForBlob()),
                       PosTree(cs, ChunkType::kBlobLeaf, vb.root(),
                               TreeConfig::ForBlob()),
                       &diff.metrics));
      diff.identical = !diff.sequence.has_value();
      return diff;
    }
    case ValueType::kTable: {
      FB_ASSIGN_OR_RETURN(FTable ta, FTable::Attach(cs, va.root()));
      FB_ASSIGN_OR_RETURN(FTable tb, FTable::Attach(cs, vb.root()));
      FB_ASSIGN_OR_RETURN(diff.rows, ta.Diff(tb, &diff.metrics));
      diff.identical = diff.rows.empty();
      return diff;
    }
    default:
      diff.identical = va == vb;
      return diff;
  }
}

StatusOr<Hash256> ForkBase::CommonAncestor(const Hash256& a,
                                           const Hash256& b) const {
  FB_ASSIGN_OR_RETURN(auto bases, MergeBases(*store_, &commit_graph_, a, b));
  if (bases.empty()) {
    return Status::NotFound("versions share no common ancestor");
  }
  return bases.front();
}

StatusOr<Hash256> ForkBase::Merge(const std::string& key,
                                  const std::string& dst_branch,
                                  const std::string& src_branch,
                                  MergePolicy policy, const PutMeta& meta) {
  // A fast-forward is a queue-ordered compare-and-advance and a merge
  // commit carries its dst head as the expected head; when either loses a
  // race against a commit in the drain, the whole merge is recomputed
  // against the new head. Bounded retries: contention this sustained means
  // the caller should be merging less eagerly.
  auto lease = AcquireWriteLease();
  constexpr int kMaxRaceRetries = 16;
  for (int attempt = 0; attempt < kMaxRaceRetries; ++attempt) {
    FB_ASSIGN_OR_RETURN(Hash256 dst_head, branch_table_.Head(key, dst_branch));
    FB_ASSIGN_OR_RETURN(Hash256 src_head, branch_table_.Head(key, src_branch));
    if (dst_head == src_head) return dst_head;  // nothing to merge

    FB_ASSIGN_OR_RETURN(Hash256 base_uid, CommonAncestor(dst_head, src_head));
    if (base_uid == src_head) return dst_head;  // src already in dst history
    if (base_uid == dst_head) {
      // Fast-forward: dst is an ancestor of src. The target is src's live
      // head, so unlike the public AdvanceHead it needs no sweep pin.
      auto advanced =
          commit_queue_.AdvanceHead(key, dst_branch, dst_head, src_head);
      if (advanced.ok()) return *advanced;
      if (advanced.status().code() != StatusCode::kAlreadyExists) {
        return advanced.status();
      }
      continue;  // head moved underneath us: recompute the merge
    }
    FB_ASSIGN_OR_RETURN(Value base_value, GetVersion(base_uid));
    FB_ASSIGN_OR_RETURN(Value dst_value, GetVersion(dst_head));
    FB_ASSIGN_OR_RETURN(Value src_value, GetVersion(src_head));
    FB_ASSIGN_OR_RETURN(Value merged,
                        MergeValues(store_.get(), base_value, dst_value,
                                    src_value, policy));
    PutMeta merge_meta = meta;
    if (merge_meta.message.empty()) {
      merge_meta.message = "merge " + src_branch + " into " + dst_branch;
    }
    auto committed = Commit(key, merged,
                            std::vector<Hash256>{dst_head, src_head},
                            dst_branch, merge_meta, dst_head);
    if (!committed.ok() &&
        committed.status().code() == StatusCode::kAlreadyExists) {
      continue;  // a commit landed after our head read: remerge against it
    }
    return committed;
  }
  // Distinct from the per-attempt kAlreadyExists race signal so a caller's
  // own retry-on-AlreadyExists loop terminates here.
  return Status::MergeConflict("merge of " + src_branch + " into " +
                               dst_branch +
                               " kept racing concurrent commits; retry later");
}

Status ForkBase::VerifyValue(const Value& value) const {
  const ChunkStore* cs = store_.get();
  switch (value.type()) {
    case ValueType::kMap:
      return PosTree(cs, ChunkType::kMapLeaf, value.root()).Validate();
    case ValueType::kSet:
      return PosTree(cs, ChunkType::kSetLeaf, value.root()).Validate();
    case ValueType::kList:
      return PosTree(cs, ChunkType::kListLeaf, value.root()).Validate();
    case ValueType::kBlob:
      return PosTree(cs, ChunkType::kBlobLeaf, value.root(),
                     TreeConfig::ForBlob())
          .Validate();
    case ValueType::kTable:
      return FTable::Verify(cs, value.root());
    default:
      return Status::OK();  // primitives are covered by the FNode hash
  }
}

Status ForkBase::Verify(const Hash256& uid) const {
  // 1. The FNode itself (Load re-hashes the chunk).
  FB_ASSIGN_OR_RETURN(FNode node, FNode::Load(store_.get(), uid));
  // 2. The full value tree at this version.
  FB_RETURN_IF_ERROR(VerifyValue(node.value));
  // 3. The derivation history: every ancestor FNode chunk must re-hash to
  //    its uid (the bases fields form a hash chain, so one pass suffices).
  //    The commit graph lists the ancestors; each is still loaded, in
  //    batches, and its bytes checked against its uid.
  FB_ASSIGN_OR_RETURN(auto ancestors, commit_graph_.Ancestors(*store_, uid));
  return ForEachChunkBatch(
      *store_, ancestors,
      [&](size_t i, StatusOr<Chunk>& chunk_or) -> Status {
        if (!chunk_or.ok()) return chunk_or.status();
        if (chunk_or->hash() != ancestors[i]) {
          return Status::Corruption("fnode bytes do not hash to uid " +
                                    ancestors[i].ToBase32() +
                                    " (tampering detected)");
        }
        return Status::OK();
      },
      BatchHashing::kPrecompute);
}

StatusOr<ForkBase::ObjectStat> ForkBase::StatObject(
    const std::string& key, const std::string& branch) const {
  FB_ASSIGN_OR_RETURN(Value value, Get(key, branch));
  ObjectStat stat;
  stat.type = value.type();
  if (!value.is_container()) {
    stat.entries = 1;
    return stat;
  }
  const ChunkStore* cs = store_.get();
  Hash256 tree_root = value.root();
  ChunkType leaf_type;
  TreeConfig config;
  switch (value.type()) {
    case ValueType::kMap:
      leaf_type = ChunkType::kMapLeaf;
      break;
    case ValueType::kSet:
      leaf_type = ChunkType::kSetLeaf;
      break;
    case ValueType::kList:
      leaf_type = ChunkType::kListLeaf;
      break;
    case ValueType::kBlob:
      leaf_type = ChunkType::kBlobLeaf;
      config = TreeConfig::ForBlob();
      break;
    case ValueType::kTable: {
      FB_ASSIGN_OR_RETURN(FTable table, FTable::Attach(cs, value.root()));
      tree_root = table.rows().root();
      leaf_type = ChunkType::kMapLeaf;
      break;
    }
    default:
      return Status::Unimplemented("stat for this value type");
  }
  PosTree tree(cs, leaf_type, tree_root, config);
  FB_ASSIGN_OR_RETURN(stat.shape, tree.Shape());
  stat.entries = stat.shape.entries;
  return stat;
}

void ForkBase::WaitForMaintenance() {
  if (hot_file_store_) hot_file_store_->WaitForMaintenance();
  if (cold_file_store_) cold_file_store_->WaitForMaintenance();
}

void ForkBase::RecordGcSweep(uint64_t swept_chunks, uint64_t swept_bytes) {
  gc_sweeps_.fetch_add(1);
  gc_swept_chunks_.fetch_add(swept_chunks);
  gc_swept_bytes_.fetch_add(swept_bytes);
}

ForkBaseStats ForkBase::Stat() const {
  ForkBaseStats stats;
  stats.chunks = store_->stats();
  std::tie(stats.keys, stats.branches) = branch_table_.Count();
  stats.commit_queue = commit_queue_.stats();
  stats.commits = stats.commit_queue.commits;
  stats.gc_sweeps = gc_sweeps_.load();
  stats.gc_swept_chunks = gc_swept_chunks_.load();
  stats.gc_swept_bytes = gc_swept_bytes_.load();
  if (cache_store_) stats.cache = cache_store_->cache_stats();
  if (hot_file_store_) {
    stats.maintenance = hot_file_store_->maintenance_stats();
    if (cold_file_store_) {
      *stats.maintenance += cold_file_store_->maintenance_stats();
    }
  }
  if (tiered_store_) {
    stats.tier = tiered_store_->tier_stats();
    stats.tier_hot_space = tiered_store_->hot()->space_used();
    stats.tier_hot_budget = config_.tier.hot_bytes_budget;
  }
  return stats;
}

std::vector<std::pair<std::string, std::string>> ForkBaseStats::ToKeyValues()
    const {
  std::vector<std::pair<std::string, std::string>> kvs;
  auto add = [&kvs](const char* k, uint64_t v) {
    kvs.emplace_back(k, std::to_string(v));
  };
  add("keys", keys);
  add("branches", branches);
  add("commits", commits);
  // Which SHA-256 core computes chunk identities in this process — lets an
  // operator confirm a deployment actually runs hardware-accelerated.
  kvs.emplace_back("sha256_backend", ActiveSha256BackendName());
  add("chunks", chunks.chunk_count);
  add("physical_bytes", chunks.physical_bytes);
  add("logical_bytes", chunks.logical_bytes);
  add("dedup_hits", chunks.dedup_hits);
  {
    std::ostringstream ratio;
    ratio << chunks.DedupRatio();
    kvs.emplace_back("dedup_ratio", ratio.str());
  }
  add("get_calls", chunks.get_calls);
  add("put_calls", chunks.put_calls);
  add("gc_sweeps", gc_sweeps);
  add("gc_swept_chunks", gc_swept_chunks);
  add("gc_swept_bytes", gc_swept_bytes);
  if (cache) {
    add("cache_hits", cache->hits);
    add("cache_misses", cache->misses);
    add("cache_evictions", cache->evictions);
    add("cache_resident_bytes", cache->resident_bytes);
  }
  add("commit_queue_commits", commit_queue.commits);
  add("commit_queue_batches", commit_queue.batches);
  add("commit_queue_advances", commit_queue.advances);
  if (maintenance) {
    add("maintenance_erased_chunks", maintenance->erased_chunks);
    add("maintenance_tombstone_records", maintenance->tombstone_records);
    add("maintenance_segments_rewritten", maintenance->segments_rewritten);
    add("maintenance_rewritten_bytes", maintenance->rewritten_bytes);
    add("maintenance_reclaimed_bytes", maintenance->reclaimed_bytes);
    add("maintenance_pending_compactions", maintenance->pending_compactions);
    add("storage_delta_records", maintenance->delta_records);
    add("storage_compressed_records", maintenance->compressed_records);
    add("storage_delta_chain_hops", maintenance->delta_chain_hops);
    add("storage_flattened_chains", maintenance->flattened_chains);
    add("storage_live_physical_bytes", maintenance->live_physical_bytes);
    add("storage_live_logical_bytes", maintenance->live_logical_bytes);
  }
  if (tier) {
    add("tier_hot_space", tier_hot_space);
    add("tier_hot_budget", tier_hot_budget);
    add("tier_hot_bytes", tier->hot_bytes);
    add("tier_pinned_dirty_bytes", tier->pinned_dirty_bytes);
    add("tier_dirty_pending", tier->dirty_pending);
    add("tier_hot_hits", tier->hot_hits);
    add("tier_cold_hits", tier->cold_hits);
    add("tier_promotions", tier->promotions);
    add("tier_demotions", tier->demotions);
    add("tier_evictions", tier->evictions);
    add("tier_hot_only_erases", tier->hot_only_erases);
  }
  return kvs;
}

std::string FormatObjectDiff(const ObjectDiff& diff) {
  std::ostringstream out;
  if (diff.identical) {
    out << "identical\n";
    return out.str();
  }
  for (const auto& d : diff.keyed) {
    out << (d.added() ? "+ " : d.removed() ? "- " : "~ ") << d.key << "\n";
  }
  for (const auto& d : diff.rows) {
    out << (!d.left ? "+ " : !d.right ? "- " : "~ ") << d.key;
    if (!d.changed_columns.empty()) {
      out << " cols:";
      for (size_t c : d.changed_columns) out << " " << c;
    }
    out << "\n";
  }
  if (diff.sequence) {
    out << "~ [" << diff.sequence->left_start << ","
        << diff.sequence->left_start + diff.sequence->left_count << ") -> ["
        << diff.sequence->right_start << ","
        << diff.sequence->right_start + diff.sequence->right_count << ")\n";
  }
  return out.str();
}

}  // namespace forkbase
