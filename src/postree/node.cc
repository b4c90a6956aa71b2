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

Hash256 IndexEntryView::ChildId() const {
  Hash256 id;
  std::memcpy(id.bytes.data(), child.data(), 32);
  return id;
}

bool NextLeafEntry(ChunkType type, Decoder* dec, EntryView* e) {
  const size_t start = dec->position();
  e->key = Slice();
  e->value = Slice();
  switch (type) {
    case ChunkType::kMapLeaf:
      if (!dec->GetLengthPrefixed(&e->key)) return false;
      if (!dec->GetLengthPrefixed(&e->value)) return false;
      break;
    case ChunkType::kSetLeaf:
      if (!dec->GetLengthPrefixed(&e->key)) return false;
      break;
    case ChunkType::kListLeaf:
      if (!dec->GetLengthPrefixed(&e->value)) return false;
      break;
    default:
      return false;  // blob leaves and non-leaves are not entry-parsed
  }
  e->raw = dec->input().substr(start, dec->position() - start);
  return true;
}

bool NextIndexEntry(Decoder* dec, IndexEntryView* e) {
  return dec->GetRaw(32, &e->child) && dec->GetVarint64(&e->count) &&
         dec->GetLengthPrefixed(&e->key);
}

bool ParseLeafEntries(ChunkType type, Slice payload,
                      std::vector<EntryView>* out) {
  out->clear();
  Decoder dec(payload);
  EntryView e;
  while (!dec.AtEnd()) {
    if (!NextLeafEntry(type, &dec, &e)) return false;
    out->push_back(e);
  }
  return true;
}

bool ParseIndexEntries(Slice payload, std::vector<IndexEntry>* out) {
  out->clear();
  Decoder dec(payload);
  IndexEntryView e;
  while (!dec.AtEnd()) {
    if (!NextIndexEntry(&dec, &e)) return false;
    out->push_back(IndexEntry{e.ChildId(), e.count, e.key.ToString()});
  }
  return true;
}

StatusOr<uint64_t> LeafEntryCount(ChunkType type, Slice payload) {
  if (type == ChunkType::kBlobLeaf) return static_cast<uint64_t>(payload.size());
  if (IsLeafType(type)) {
    Decoder dec(payload);
    EntryView e;
    uint64_t n = 0;
    for (; !dec.AtEnd(); ++n) {
      if (!NextLeafEntry(type, &dec, &e)) {
        return Status::Corruption("malformed leaf payload");
      }
    }
    return n;
  }
  return Status::InvalidArgument("not a leaf chunk type");
}

}  // namespace forkbase
