#include "postree/node.h"

namespace forkbase {

bool IsLeafType(ChunkType t) {
  return t == ChunkType::kMapLeaf || t == ChunkType::kSetLeaf ||
         t == ChunkType::kListLeaf || t == ChunkType::kBlobLeaf;
}

void AppendMapEntry(std::string* out, Slice key, Slice value) {
  PutLengthPrefixed(out, key);
  PutLengthPrefixed(out, value);
}

void AppendSetEntry(std::string* out, Slice key) {
  PutLengthPrefixed(out, key);
}

void AppendListEntry(std::string* out, Slice element) {
  PutLengthPrefixed(out, element);
}

std::string EncodeIndexEntry(const IndexEntry& e) {
  std::string out;
  out.append(reinterpret_cast<const char*>(e.child.bytes.data()), 32);
  PutVarint64(&out, e.count);
  PutLengthPrefixed(&out, e.key);
  return out;
}

bool ParseLeafEntries(ChunkType type, Slice payload,
                      std::vector<EntryView>* out) {
  out->clear();
  Decoder dec(payload);
  while (!dec.AtEnd()) {
    size_t start = dec.position();
    EntryView e;
    switch (type) {
      case ChunkType::kMapLeaf: {
        if (!dec.GetLengthPrefixed(&e.key)) return false;
        if (!dec.GetLengthPrefixed(&e.value)) return false;
        break;
      }
      case ChunkType::kSetLeaf: {
        if (!dec.GetLengthPrefixed(&e.key)) return false;
        break;
      }
      case ChunkType::kListLeaf: {
        if (!dec.GetLengthPrefixed(&e.value)) return false;
        break;
      }
      default:
        return false;  // blob leaves and non-leaves are not entry-parsed
    }
    e.raw = payload.substr(start, dec.position() - start);
    out->push_back(e);
  }
  return true;
}

bool ParseIndexEntries(Slice payload, std::vector<IndexEntry>* out) {
  out->clear();
  Decoder dec(payload);
  while (!dec.AtEnd()) {
    IndexEntry e;
    Slice hash_bytes;
    if (!dec.GetRaw(32, &hash_bytes)) return false;
    std::memcpy(e.child.bytes.data(), hash_bytes.data(), 32);
    if (!dec.GetVarint64(&e.count)) return false;
    Slice key;
    if (!dec.GetLengthPrefixed(&key)) return false;
    e.key = key.ToString();
    out->push_back(std::move(e));
  }
  return true;
}

StatusOr<uint64_t> LeafEntryCount(ChunkType type, Slice payload) {
  if (type == ChunkType::kBlobLeaf) return static_cast<uint64_t>(payload.size());
  if (IsLeafType(type)) {
    std::vector<EntryView> entries;
    if (!ParseLeafEntries(type, payload, &entries)) {
      return Status::Corruption("malformed leaf payload");
    }
    return static_cast<uint64_t>(entries.size());
  }
  return Status::InvalidArgument("not a leaf chunk type");
}

}  // namespace forkbase
