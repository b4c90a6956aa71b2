#include "util/compress.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/codec.h"

namespace forkbase {

namespace {

// Matches shorter than this cost more to encode (tag varint + distance
// varint) than the literals they replace once the literal run they split is
// accounted for.
constexpr size_t kMinMatchLen = 4;
// Hash table over 4-byte prefixes. 15 bits keeps the table at 128 KiB of
// uint32_t — small enough to stay cache-resident against 8-16 KiB chunk
// payloads — while collisions stay rare at those input sizes.
constexpr int kHashBits = 15;
constexpr size_t kHashSize = 1u << kHashBits;
constexpr uint32_t kNoPos = 0xffffffffu;

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint32_t HashOf(uint32_t v) {
  return (v * 0x9e3779b1u) >> (32 - kHashBits);
}

void AppendLiteralRun(Slice input, size_t start, size_t end,
                      std::string* out) {
  if (end <= start) return;
  PutVarint64(out, static_cast<uint64_t>(end - start) << 1);
  out->append(input.data() + start, end - start);
}

}  // namespace

void LzCompressBlock(Slice input, std::string* out) {
  PutVarint64(out, input.size());
  const uint8_t* base = input.udata();
  const size_t n = input.size();
  if (n < kMinMatchLen) {
    AppendLiteralRun(input, 0, n, out);
    return;
  }

  // Single-probe hash table: head[h] is the most recent position whose
  // 4-byte prefix hashed to h. One probe (no chains) trades a little ratio
  // for compression speed on the PutMany path.
  std::vector<uint32_t> head(kHashSize, kNoPos);
  size_t literal_start = 0;
  size_t pos = 0;
  const size_t limit = n - kMinMatchLen + 1;
  while (pos < limit) {
    const uint32_t h = HashOf(Load32(base + pos));
    const uint32_t cand = head[h];
    head[h] = static_cast<uint32_t>(pos);
    if (cand != kNoPos && Load32(base + cand) == Load32(base + pos)) {
      // Extend the match forward as far as the bytes agree.
      size_t len = kMinMatchLen;
      while (pos + len < n && base[cand + len] == base[pos + len]) ++len;
      AppendLiteralRun(input, literal_start, pos, out);
      PutVarint64(out, (static_cast<uint64_t>(len) << 1) | 1);
      PutVarint64(out, pos - cand);
      // Seed the table across the matched span (sparsely: every other
      // position keeps the cost linear while future matches still land).
      const size_t match_end = pos + len;
      for (size_t p = pos + 1; p + kMinMatchLen <= n && p < match_end;
           p += 2) {
        head[HashOf(Load32(base + p))] = static_cast<uint32_t>(p);
      }
      pos = match_end;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  AppendLiteralRun(input, literal_start, n, out);
}

bool LzDecompressBlock(Slice compressed, std::string* out, uint64_t max_len) {
  Decoder dec(compressed);
  uint64_t raw_len = 0;
  if (!dec.GetVarint64(&raw_len) || raw_len > max_len) return false;
  // The length header sizes the output up front, so the hot loop writes
  // through raw pointers with memcpy instead of per-byte push_back — the
  // difference between a decompressor that scans at memcpy speed and one
  // that gates every cold read. On failure the string is cut back to the
  // bytes actually produced (the documented partial-prefix contract).
  const size_t start = out->size();
  out->resize(start + raw_len);
  char* const dst = out->data() + start;
  size_t wpos = 0;
  auto fail = [&] {
    out->resize(start + wpos);
    return false;
  };
  while (wpos < raw_len) {
    uint64_t tag = 0;
    if (!dec.GetVarint64(&tag)) return fail();
    const uint64_t len = tag >> 1;
    if (len == 0 || wpos + len > raw_len) return fail();
    if (tag & 1) {
      uint64_t dist = 0;
      if (!dec.GetVarint64(&dist)) return fail();
      if (dist == 0 || dist > wpos) return fail();
      char* p = dst + wpos;
      if (dist >= len) {
        std::memcpy(p, p - dist, static_cast<size_t>(len));
      } else {
        // Overlapping copy (dist < len repeats a pattern): lay down one
        // period, then double the replicated region — O(log(len/dist))
        // memcpys instead of len byte stores, and every copy is between
        // disjoint ranges.
        std::memcpy(p, p - dist, static_cast<size_t>(dist));
        size_t copied = static_cast<size_t>(dist);
        while (copied < len) {
          const size_t n =
              std::min(copied, static_cast<size_t>(len) - copied);
          std::memcpy(p + copied, p, n);
          copied += n;
        }
      }
      wpos += static_cast<size_t>(len);
    } else {
      Slice lit;
      if (!dec.GetRaw(static_cast<size_t>(len), &lit)) return fail();
      std::memcpy(dst + wpos, lit.data(), lit.size());
      wpos += lit.size();
    }
  }
  if (!dec.AtEnd()) return fail();
  return true;
}

uint64_t LzDecompressedLength(Slice compressed) {
  Decoder dec(compressed);
  uint64_t raw_len = 0;
  if (!dec.GetVarint64(&raw_len)) return 0;
  return raw_len;
}

}  // namespace forkbase
