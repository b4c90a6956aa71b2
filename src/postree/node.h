// POS-Tree node encodings (Fig. 2).
//
// A POS-Tree is stored as chunks of two kinds:
//   * leaf nodes  — a concatenation of serialized data entries;
//   * index nodes (ChunkType::kMeta) — a concatenation of index entries
//     `[child-hash 32B][varint subtree-entry-count][len-prefixed split-key]`,
//     one per child, where the split key is the largest key in the child's
//     subtree (keyed trees) or empty (positional trees) and the count enables
//     O(log N) positional access.
//
// Node payloads are exactly the byte stream fed to the pattern splitter; no
// extra headers, so the chunk boundary structure is a pure function of the
// entry stream (structural invariance, Def. 1 property 1).
#ifndef FORKBASE_POSTREE_NODE_H_
#define FORKBASE_POSTREE_NODE_H_

#include <string>
#include <vector>

#include "chunk/chunk.h"
#include "util/codec.h"
#include "util/status.h"

namespace forkbase {

/// A parsed view of one leaf entry. For kMapLeaf both key and value are set;
/// for kSetLeaf only key; for kListLeaf only value (element); kBlobLeaf
/// leaves are not entry-parsed (raw bytes).
struct EntryView {
  Slice key;
  Slice value;
  Slice raw;  ///< the full serialized entry bytes
};

/// One child reference inside an index (kMeta) node.
struct IndexEntry {
  Hash256 child;
  uint64_t count = 0;  ///< total leaf entries beneath this child
  std::string key;     ///< max key in subtree ("" for positional trees)
};

/// One index entry read in place: the child id's bytes and the split key
/// view the node payload. Point searches (PosTree::Lookup, Element, Count)
/// decode with this instead of materializing IndexEntry vectors.
struct IndexEntryView {
  Slice child;  ///< the child's 32-byte id
  uint64_t count = 0;
  Slice key;

  Hash256 ChildId() const;
};

/// Appends a map entry (len-prefixed key, len-prefixed value) to `out`.
/// Bulk builders encode every entry into one reused buffer with these.
void AppendMapEntry(std::string* out, Slice key, Slice value);
/// Appends a set entry (len-prefixed key) to `out`.
void AppendSetEntry(std::string* out, Slice key);
/// Appends a list entry (len-prefixed element) to `out`.
void AppendListEntry(std::string* out, Slice element);
/// Serializes an index entry.
std::string EncodeIndexEntry(const IndexEntry& e);

/// Reads the leaf entry at `dec`'s position (views into its input). False
/// on malformed bytes, and for blob leaves and non-leaf types.
bool NextLeafEntry(ChunkType type, Decoder* dec, EntryView* e);

/// Reads the index entry at `dec`'s position. False on malformed bytes.
bool NextIndexEntry(Decoder* dec, IndexEntryView* e);

/// Parses all entries of a non-blob leaf payload. Returns false on malformed
/// bytes. Views point into `payload`.
bool ParseLeafEntries(ChunkType type, Slice payload,
                      std::vector<EntryView>* out);

/// Parses all index entries of a kMeta payload.
bool ParseIndexEntries(Slice payload, std::vector<IndexEntry>* out);

/// Leaf entry count of a node payload (blob leaves: byte count).
StatusOr<uint64_t> LeafEntryCount(ChunkType type, Slice payload);

/// True for the four leaf chunk kinds.
bool IsLeafType(ChunkType t);

}  // namespace forkbase

#endif  // FORKBASE_POSTREE_NODE_H_
