#include "types/map.h"

#include <algorithm>

namespace forkbase {

StatusOr<FMap> FMap::Create(
    ChunkStore* store, std::vector<std::pair<std::string, std::string>> kvs) {
  auto key_less = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  // Stable, so that among equal keys the last one given stays last.
  if (!std::is_sorted(kvs.begin(), kvs.end(), key_less)) {
    std::stable_sort(kvs.begin(), kvs.end(), key_less);
  }
  // Last-wins dedup, in place.
  size_t kept = 0;
  for (size_t i = 0; i < kvs.size(); ++i) {
    if (i + 1 < kvs.size() && kvs[i + 1].first == kvs[i].first) continue;
    if (kept != i) kvs[kept] = std::move(kvs[i]);
    ++kept;
  }
  kvs.erase(kvs.begin() + kept, kvs.end());
  FB_ASSIGN_OR_RETURN(TreeInfo info,
                      PosTree::BuildKeyed(store, ChunkType::kMapLeaf, kvs));
  return FMap(PosTree(store, ChunkType::kMapLeaf, info.root));
}

FMap FMap::Attach(const ChunkStore* store, const Hash256& root) {
  return FMap(PosTree(store, ChunkType::kMapLeaf, root));
}

Status FMap::ForEach(
    const std::function<Status(Slice key, Slice value)>& fn) const {
  return tree_.Scan(
      [&fn](const EntryView& e) { return fn(e.key, e.value); });
}

Status FMap::ForEachInRange(
    Slice begin, Slice end,
    const std::function<Status(Slice key, Slice value)>& fn) const {
  return tree_.ScanRange(begin, end, [&fn](const EntryView& e) {
    return fn(e.key, e.value);
  });
}

StatusOr<std::vector<std::pair<std::string, std::string>>> FMap::Range(
    Slice begin, Slice end) const {
  std::vector<std::pair<std::string, std::string>> out;
  FB_RETURN_IF_ERROR(ForEachInRange(begin, end, [&out](Slice k, Slice v) {
    out.emplace_back(k.ToString(), v.ToString());
    return Status::OK();
  }));
  return out;
}

StatusOr<FMap> FMap::Set(const std::string& key,
                         const std::string& value) const {
  return Apply({KeyedOp{key, value}});
}

StatusOr<FMap> FMap::Remove(const std::string& key) const {
  return Apply({KeyedOp{key, std::nullopt}});
}

StatusOr<FMap> FMap::Apply(std::vector<KeyedOp> ops) const {
  FB_ASSIGN_OR_RETURN(TreeInfo info, tree_.ApplyKeyedOps(std::move(ops)));
  return FMap(PosTree(tree_.store(), ChunkType::kMapLeaf, info.root));
}

StatusOr<std::vector<KeyDelta>> FMap::Diff(const FMap& other,
                                           DiffMetrics* metrics) const {
  return DiffKeyed(tree_, other.tree_, metrics);
}

StatusOr<TreeMergeResult> FMap::Merge3(const FMap& base, const FMap& left,
                                       const FMap& right, MergePolicy policy,
                                       DiffMetrics* metrics) {
  return MergeKeyed(base.tree_, left.tree_, right.tree_, policy, metrics);
}

}  // namespace forkbase
