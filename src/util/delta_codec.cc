#include "util/delta_codec.h"

#include <cstring>
#include <vector>

#include "util/codec.h"

namespace forkbase {

namespace {

// Copies shorter than this cost more to encode than inserting the bytes.
constexpr size_t kMinCopyLen = 8;
// 8-byte probes: page mutations leave long untouched runs, and a longer
// probe rejects coincidental 4-byte matches that fragment the op stream.
constexpr size_t kProbeLen = 8;
constexpr int kHashBits = 15;
constexpr size_t kHashSize = 1u << kHashBits;
constexpr uint32_t kNoPos = 0xffffffffu;

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline uint32_t HashOf(uint64_t v) {
  return static_cast<uint32_t>((v * 0x9e3779b97f4a7c15ull) >>
                               (64 - kHashBits));
}

void AppendInsert(Slice target, size_t start, size_t end, std::string* out) {
  if (end <= start) return;
  PutVarint64(out, static_cast<uint64_t>(end - start) << 1);
  out->append(target.data() + start, end - start);
}

}  // namespace

uint32_t DeltaChecksum(Slice bytes) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < bytes.size(); ++i) {
    h ^= bytes.byte(i);
    h *= 16777619u;
  }
  return h;
}

void CreateDelta(Slice base, Slice target, std::string* out) {
  PutVarint64(out, target.size());

  // Index the base by 8-byte probes, one table entry per position (last
  // writer wins). Deltas favor the most recent occurrence, which for
  // append-heavy edits is also the right one.
  std::vector<uint32_t> head;
  const bool indexable =
      base.size() >= kProbeLen && target.size() >= kMinCopyLen;
  if (indexable) {
    head.assign(kHashSize, kNoPos);
    const uint8_t* b = base.udata();
    for (size_t p = 0; p + kProbeLen <= base.size(); ++p) {
      head[HashOf(Load64(b + p))] = static_cast<uint32_t>(p);
    }
  }

  const uint8_t* b = base.udata();
  const uint8_t* t = target.udata();
  size_t insert_start = 0;
  size_t pos = 0;
  if (indexable) {
    const size_t limit = target.size() - kProbeLen + 1;
    while (pos < limit) {
      const uint32_t cand = head[HashOf(Load64(t + pos))];
      if (cand != kNoPos && Load64(b + cand) == Load64(t + pos)) {
        // Extend forward through the agreeing bytes, then backward into the
        // pending insert run — mutations rarely land on probe boundaries.
        size_t len = kProbeLen;
        while (pos + len < target.size() && cand + len < base.size() &&
               b[cand + len] == t[pos + len]) {
          ++len;
        }
        size_t back = 0;
        while (pos - back > insert_start && cand - back > 0 &&
               b[cand - back - 1] == t[pos - back - 1]) {
          ++back;
        }
        const size_t copy_pos = pos - back;
        const size_t copy_base = cand - back;
        const size_t copy_len = len + back;
        if (copy_len >= kMinCopyLen) {
          AppendInsert(target, insert_start, copy_pos, out);
          PutVarint64(out, (static_cast<uint64_t>(copy_len) << 1) | 1);
          PutVarint64(out, copy_base);
          pos = copy_pos + copy_len;
          insert_start = pos;
          continue;
        }
      }
      ++pos;
    }
  }
  AppendInsert(target, insert_start, target.size(), out);
  PutFixed32(out, DeltaChecksum(target));
}

bool ApplyDelta(Slice base, Slice delta, std::string* out, uint64_t max_len) {
  if (delta.size() < 4) return false;
  Decoder dec(delta.substr(0, delta.size() - 4));
  uint64_t target_len = 0;
  if (!dec.GetVarint64(&target_len) || target_len > max_len) return false;
  const size_t start = out->size();
  out->reserve(start + target_len);
  while (out->size() - start < target_len) {
    uint64_t tag = 0;
    if (!dec.GetVarint64(&tag)) return false;
    const uint64_t len = tag >> 1;
    if (len == 0 || out->size() - start + len > target_len) return false;
    if (tag & 1) {
      uint64_t off = 0;
      if (!dec.GetVarint64(&off)) return false;
      if (off > base.size() || len > base.size() - off) return false;
      out->append(base.data() + off, static_cast<size_t>(len));
    } else {
      Slice ins;
      if (!dec.GetRaw(static_cast<size_t>(len), &ins)) return false;
      out->append(ins.data(), ins.size());
    }
  }
  if (!dec.AtEnd()) return false;
  Decoder trailer(delta.substr(delta.size() - 4));
  uint32_t want = 0;
  if (!trailer.GetFixed32(&want)) return false;
  return DeltaChecksum(Slice(out->data() + start, out->size() - start)) ==
         want;
}

uint64_t DeltaTargetLength(Slice delta) {
  if (delta.size() < 4) return 0;
  Decoder dec(delta);
  uint64_t target_len = 0;
  if (!dec.GetVarint64(&target_len)) return 0;
  return target_len;
}

}  // namespace forkbase
