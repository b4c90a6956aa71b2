#include "util/sha256.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "util/base32.h"
#include "util/sha256_backends.h"
#include "util/worker_pool.h"

namespace forkbase {

namespace internal {

const uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

namespace {

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

inline uint32_t LoadBe32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  return v;
#else
  return __builtin_bswap32(v);
#endif
}

// One round with rotated register names: t1 folds into d and h in place, so
// eight expansions cover a full rotation of the working variables without
// the shift chain the rolled loop pays per round.
#define FB_SHA_R(a, b, c, d, e, f, g, h, K, W)                             \
  do {                                                                     \
    uint32_t t1 = (h) + (Rotr((e), 6) ^ Rotr((e), 11) ^ Rotr((e), 25)) +   \
                  (((e) & (f)) ^ (~(e) & (g))) + (K) + (W);                \
    uint32_t t2 = (Rotr((a), 2) ^ Rotr((a), 13) ^ Rotr((a), 22)) +         \
                  (((a) & (b)) ^ ((a) & (c)) ^ ((b) & (c)));               \
    (d) += t1;                                                             \
    (h) = t1 + t2;                                                         \
  } while (0)

}  // namespace

void Sha256BlocksScalar(uint32_t state[8], const uint8_t* blocks,
                        size_t nblocks) {
  uint32_t s0 = state[0], s1 = state[1], s2 = state[2], s3 = state[3];
  uint32_t s4 = state[4], s5 = state[5], s6 = state[6], s7 = state[7];
  const uint8_t* p = blocks;
  while (nblocks-- > 0) {
    uint32_t w[64];
    for (int i = 0; i < 16; i += 4) {
      w[i] = LoadBe32(p + 4 * i);
      w[i + 1] = LoadBe32(p + 4 * i + 4);
      w[i + 2] = LoadBe32(p + 4 * i + 8);
      w[i + 3] = LoadBe32(p + 4 * i + 12);
    }
    for (int i = 16; i < 64; i += 2) {
      uint32_t a0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t b0 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + a0 + w[i - 7] + b0;
      uint32_t a1 = Rotr(w[i - 14], 7) ^ Rotr(w[i - 14], 18) ^ (w[i - 14] >> 3);
      uint32_t b1 = Rotr(w[i - 1], 17) ^ Rotr(w[i - 1], 19) ^ (w[i - 1] >> 10);
      w[i + 1] = w[i - 15] + a1 + w[i - 6] + b1;
    }
    uint32_t a = s0, b = s1, c = s2, d = s3;
    uint32_t e = s4, f = s5, g = s6, h = s7;
    for (int i = 0; i < 64; i += 8) {
      FB_SHA_R(a, b, c, d, e, f, g, h, kSha256K[i], w[i]);
      FB_SHA_R(h, a, b, c, d, e, f, g, kSha256K[i + 1], w[i + 1]);
      FB_SHA_R(g, h, a, b, c, d, e, f, kSha256K[i + 2], w[i + 2]);
      FB_SHA_R(f, g, h, a, b, c, d, e, kSha256K[i + 3], w[i + 3]);
      FB_SHA_R(e, f, g, h, a, b, c, d, kSha256K[i + 4], w[i + 4]);
      FB_SHA_R(d, e, f, g, h, a, b, c, kSha256K[i + 5], w[i + 5]);
      FB_SHA_R(c, d, e, f, g, h, a, b, kSha256K[i + 6], w[i + 6]);
      FB_SHA_R(b, c, d, e, f, g, h, a, kSha256K[i + 7], w[i + 7]);
    }
    s0 += a;
    s1 += b;
    s2 += c;
    s3 += d;
    s4 += e;
    s5 += f;
    s6 += g;
    s7 += h;
    p += 64;
  }
  state[0] = s0;
  state[1] = s1;
  state[2] = s2;
  state[3] = s3;
  state[4] = s4;
  state[5] = s5;
  state[6] = s6;
  state[7] = s7;
}

#undef FB_SHA_R

}  // namespace internal

namespace {

Sha256Hasher::BlocksFn BlocksFnFor(Sha256Backend backend) {
  switch (backend) {
#if defined(FORKBASE_HAVE_SHANI)
    case Sha256Backend::kShaNi:
      if (CpuHasShaNi()) return internal::Sha256BlocksShaNi;
      break;
#endif
#if defined(FORKBASE_HAVE_ARMCE)
    case Sha256Backend::kArmCe:
      if (CpuHasArmSha2()) return internal::Sha256BlocksArmCe;
      break;
#endif
    default:
      break;
  }
  return internal::Sha256BlocksScalar;
}

}  // namespace

Sha256Hasher::Sha256Hasher() : Sha256Hasher(ActiveSha256Backend()) {}

Sha256Hasher::Sha256Hasher(Sha256Backend backend)
    : blocks_fn_(BlocksFnFor(backend)) {
  Reset();
}

void Sha256Hasher::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  bit_count_ = 0;
  buffer_len_ = 0;
  finished_ = false;
}

void Sha256Hasher::Update(Slice data) {
  if (finished_) {
    std::fprintf(stderr,
                 "Sha256Hasher: Update() after Finish() without Reset() — "
                 "the digest is already sealed\n");
    std::abort();
  }
  const uint8_t* p = data.udata();
  size_t n = data.size();
  bit_count_ += static_cast<uint64_t>(n) * 8;
  if (buffer_len_ > 0) {
    const size_t take = std::min(n, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ == sizeof(buffer_)) {
      ProcessBlocks(buffer_, 1);
      buffer_len_ = 0;
    }
  }
  const size_t whole = n / 64;
  if (whole > 0) {
    ProcessBlocks(p, whole);
    p += whole * 64;
    n -= whole * 64;
  }
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffer_len_ = n;
  }
}

Hash256 Sha256Hasher::Finish() {
  if (finished_) return digest_;
  const uint64_t bits = bit_count_;
  // Append 0x80, zero-pad to 56 mod 64, then the 64-bit big-endian length —
  // one buffered tail block, or two when the 9 trailer bytes don't fit.
  uint8_t trailer[128] = {0};
  trailer[0] = 0x80;
  const size_t pad = (buffer_len_ < 56 ? 56 : 120) - buffer_len_;
  for (int i = 0; i < 8; ++i) {
    trailer[pad + i] = static_cast<uint8_t>((bits >> (56 - 8 * i)) & 0xff);
  }
  Update(Slice(reinterpret_cast<const char*>(trailer), pad + 8));
  bit_count_ = bits;  // restore: padding is not message data

  for (int i = 0; i < 8; ++i) {
    digest_.bytes[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    digest_.bytes[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest_.bytes[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest_.bytes[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  finished_ = true;
  return digest_;
}

Hash256 Sha256(Slice data) {
  Sha256Hasher h;
  h.Update(data);
  return h.Finish();
}

namespace {
// Below this, the cross-thread handoff costs more than the hashing.
constexpr size_t kMinSpansForFanout = 8;
}  // namespace

std::vector<Hash256> Sha256Many(std::span<const Slice> spans,
                                WorkerPool* pool) {
  std::vector<Hash256> out(spans.size());
  const size_t n = spans.size();
  const size_t workers = pool ? pool->thread_count() : 0;
  if (workers == 0 || n < kMinSpansForFanout) {
    for (size_t i = 0; i < n; ++i) out[i] = Sha256(spans[i]);
    return out;
  }
  // Self-scheduling index claim: spans vary wildly in size (a tree batch
  // mixes 16KiB leaves with 100-byte index nodes), so static sharding would
  // leave workers idle behind one big shard. The caller is a worker too.
  auto round = TaskRound::Start(
      pool, n, [spans, &out](size_t i) { out[i] = Sha256(spans[i]); });
  round->Drain();
  round->Join();
  return out;
}

WorkerPool* SharedHashPool() {
  // Meyers singleton: destroyed at exit, after which WorkerPool::Submit
  // degrades to inline execution — late hashing still works, just serially.
  static WorkerPool pool([] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? std::min<size_t>(hw - 1, 8) : 0;
  }());
  return &pool;
}

std::string Hash256::ToHex() const {
  static const char* kDigits = "0123456789abcdef";
  std::string s;
  s.reserve(64);
  for (uint8_t b : bytes) {
    s.push_back(kDigits[b >> 4]);
    s.push_back(kDigits[b & 0xf]);
  }
  return s;
}

std::string Hash256::ToBase32() const {
  return Base32Encode(slice());
}

bool Hash256::FromBase32(Slice s, Hash256* out) {
  std::string decoded;
  if (!Base32Decode(s, &decoded)) return false;
  if (decoded.size() != 32) return false;
  std::memcpy(out->bytes.data(), decoded.data(), 32);
  return true;
}

}  // namespace forkbase
