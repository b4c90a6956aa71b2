#include "testing/serial_walk.h"

#include <optional>
#include <string>
#include <vector>

namespace forkbase {

namespace {

// `leaf_depth` is the depth of the leftmost leaf, learned on the way down
// to it.
Status Descend(const ChunkStore& store, const Hash256& id, uint32_t depth,
               std::optional<uint32_t>* leaf_depth,
               const std::function<Status(const Chunk& leaf)>& visit) {
  if (depth > 64) return Status::Corruption("tree too deep (cycle?)");
  FB_ASSIGN_OR_RETURN(Chunk node, store.Get(id));
  const ChunkType type = node.type();
  if (leaf_depth->has_value() ? depth == **leaf_depth
                              : type != ChunkType::kMeta) {
    if (!IsLeafType(type)) {
      return Status::Corruption("expected leaf chunk, got " +
                                std::string(ChunkTypeToString(type)));
    }
    *leaf_depth = depth;
    return visit(node);
  }
  if (type != ChunkType::kMeta) {
    return Status::Corruption("leaves at multiple depths");
  }
  std::vector<IndexEntry> children;
  if (!ParseIndexEntries(node.payload(), &children) || children.empty()) {
    return Status::Corruption("malformed index node");
  }
  for (const IndexEntry& child : children) {
    FB_RETURN_IF_ERROR(Descend(store, child.child, depth + 1, leaf_depth,
                               visit));
  }
  return Status::OK();
}

}  // namespace

Status SerialLeafWalk(const ChunkStore& store, const Hash256& root,
                      const std::function<Status(const Chunk& leaf)>& visit) {
  std::optional<uint32_t> leaf_depth;
  return Descend(store, root, 0, &leaf_depth, visit);
}

Status SerialScan(const ChunkStore& store, const Hash256& root,
                  const std::function<Status(const EntryView&)>& fn) {
  std::vector<EntryView> entries;
  return SerialLeafWalk(store, root, [&](const Chunk& leaf) -> Status {
    if (leaf.type() == ChunkType::kBlobLeaf) return Status::OK();
    if (!ParseLeafEntries(leaf.type(), leaf.payload(), &entries)) {
      return Status::Corruption("malformed leaf payload");
    }
    for (const EntryView& e : entries) FB_RETURN_IF_ERROR(fn(e));
    return Status::OK();
  });
}

}  // namespace forkbase
