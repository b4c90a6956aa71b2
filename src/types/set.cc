#include "types/set.h"

#include <algorithm>
#include <functional>

namespace forkbase {

StatusOr<FSet> FSet::Create(ChunkStore* store,
                            std::vector<std::string> members) {
  if (std::adjacent_find(members.begin(), members.end(),
                         std::greater_equal<>()) != members.end()) {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
  }
  TreeBuilder builder(store, ChunkType::kSetLeaf, TreeConfig::ForEntries());
  FB_RETURN_IF_ERROR(builder.AddEntries(
      members.size(), [&](size_t i, std::string* out) -> Slice {
        AppendSetEntry(out, members[i]);
        return members[i];
      }));
  FB_ASSIGN_OR_RETURN(TreeInfo info, builder.Finish());
  return FSet(PosTree(store, ChunkType::kSetLeaf, info.root));
}

FSet FSet::Attach(const ChunkStore* store, const Hash256& root) {
  return FSet(PosTree(store, ChunkType::kSetLeaf, root));
}

StatusOr<bool> FSet::Contains(Slice member) const {
  FB_ASSIGN_OR_RETURN(auto found, tree_.Lookup(member));
  return found.has_value();
}

StatusOr<std::vector<std::string>> FSet::Members() const {
  std::vector<std::string> out;
  FB_RETURN_IF_ERROR(tree_.Scan([&out](const EntryView& e) {
    out.push_back(e.key.ToString());
    return Status::OK();
  }));
  return out;
}

StatusOr<FSet> FSet::Insert(const std::string& member) const {
  return Apply({KeyedOp{member, std::string()}});
}

StatusOr<FSet> FSet::Erase(const std::string& member) const {
  return Apply({KeyedOp{member, std::nullopt}});
}

StatusOr<FSet> FSet::Apply(std::vector<KeyedOp> ops) const {
  FB_ASSIGN_OR_RETURN(TreeInfo info, tree_.ApplyKeyedOps(std::move(ops)));
  return FSet(PosTree(tree_.store(), ChunkType::kSetLeaf, info.root));
}

StatusOr<std::vector<KeyDelta>> FSet::Diff(const FSet& other,
                                           DiffMetrics* metrics) const {
  return DiffKeyed(tree_, other.tree_, metrics);
}

namespace {
enum class SetOp { kUnion, kIntersect, kSubtract };

StatusOr<FSet> Combine(const FSet& a, const FSet& b, SetOp op) {
  auto ma = a.Members();
  auto mb = b.Members();
  if (!ma.ok()) return ma.status();
  if (!mb.ok()) return mb.status();
  std::vector<std::string> out;
  size_t i = 0, j = 0;
  while (i < ma->size() || j < mb->size()) {
    if (j == mb->size() || (i < ma->size() && (*ma)[i] < (*mb)[j])) {
      if (op != SetOp::kIntersect) out.push_back((*ma)[i]);
      ++i;
    } else if (i == ma->size() || (*mb)[j] < (*ma)[i]) {
      if (op == SetOp::kUnion) out.push_back((*mb)[j]);
      ++j;
    } else {
      if (op != SetOp::kSubtract) out.push_back((*ma)[i]);
      ++i;
      ++j;
    }
  }
  return FSet::Create(const_cast<ChunkStore*>(a.tree().store()),
                      std::move(out));
}
}  // namespace

StatusOr<FSet> FSet::Union(const FSet& other) const {
  return Combine(*this, other, SetOp::kUnion);
}

StatusOr<FSet> FSet::Intersect(const FSet& other) const {
  return Combine(*this, other, SetOp::kIntersect);
}

StatusOr<FSet> FSet::Subtract(const FSet& other) const {
  return Combine(*this, other, SetOp::kSubtract);
}

StatusOr<TreeMergeResult> FSet::Merge3(const FSet& base, const FSet& left,
                                       const FSet& right, MergePolicy policy,
                                       DiffMetrics* metrics) {
  return MergeKeyed(base.tree_, left.tree_, right.tree_, policy, metrics);
}

}  // namespace forkbase
