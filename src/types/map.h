// FMap — an immutable ordered string->string map with O(log N) point access,
// hash-pruned diff and three-way merge.
#ifndef FORKBASE_TYPES_MAP_H_
#define FORKBASE_TYPES_MAP_H_

#include <optional>
#include <string>
#include <vector>

#include "postree/diff.h"
#include "postree/merge.h"
#include "postree/tree.h"

namespace forkbase {

class FMap {
 public:
  /// Builds from (key, value) pairs; duplicates resolve last-wins.
  static StatusOr<FMap> Create(
      ChunkStore* store,
      std::vector<std::pair<std::string, std::string>> kvs);
  static FMap Attach(const ChunkStore* store, const Hash256& root);

  const Hash256& root() const { return tree_.root(); }
  const PosTree& tree() const { return tree_; }

  StatusOr<uint64_t> Size() const { return tree_.Count(); }
  StatusOr<std::optional<std::string>> Get(Slice key) const {
    return tree_.Lookup(key);
  }
  Status ForEach(
      const std::function<Status(Slice key, Slice value)>& fn) const;
  /// Visits entries with begin <= key < end (empty end = to the last key)
  /// through PosTree::ScanRange: O(height + leaves in range) chunk reads,
  /// which with an empty end are all the leaves from begin on, even when
  /// `fn` stops early (see ScanRange).
  Status ForEachInRange(
      Slice begin, Slice end,
      const std::function<Status(Slice key, Slice value)>& fn) const;
  StatusOr<std::vector<std::pair<std::string, std::string>>> Entries() const {
    return tree_.Entries();
  }
  /// Materialized range query.
  StatusOr<std::vector<std::pair<std::string, std::string>>> Range(
      Slice begin, Slice end) const;

  /// Functional updates — return a new map sharing unchanged chunks.
  StatusOr<FMap> Set(const std::string& key, const std::string& value) const;
  StatusOr<FMap> Remove(const std::string& key) const;
  StatusOr<FMap> Apply(std::vector<KeyedOp> ops) const;

  StatusOr<std::vector<KeyDelta>> Diff(const FMap& other,
                                       DiffMetrics* metrics = nullptr) const;

  /// Three-way merge with `this` as one side.
  static StatusOr<TreeMergeResult> Merge3(
      const FMap& base, const FMap& left, const FMap& right,
      MergePolicy policy = MergePolicy::kStrict,
      DiffMetrics* metrics = nullptr);

  Status Validate() const { return tree_.Validate(); }

 private:
  explicit FMap(PosTree tree) : tree_(std::move(tree)) {}
  PosTree tree_;
};

}  // namespace forkbase

#endif  // FORKBASE_TYPES_MAP_H_
