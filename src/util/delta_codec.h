// Byte-level copy/insert delta codec, Fossil delta.c-shaped.
//
// A delta expresses a target byte string in terms of a base: COPY ops pull
// ranges out of the base, INSERT ops carry the bytes that have no match.
// This is the grown-up replacement for the row-level toy in
// src/baselines/delta_store.cc — it works on opaque chunk payloads, so the
// chunk store can hold a near-identical version of a page as a few dozen
// bytes against its predecessor (ROADMAP item 3; Fossil's content.c chain
// storage is the design exemplar).
//
// Delta layout:
//   [varint target_len]
//   ops until target_len bytes are produced:
//     insert: varint (n << 1)     followed by n raw bytes, n >= 1
//     copy:   varint (n << 1 | 1) then varint base_offset,
//             with base_offset + n <= base_len
//   [fixed32 FNV-1a checksum of the target bytes]
//
// The checksum is the apply-time guard Fossil carries too: applying a delta
// against the WRONG base usually still "succeeds" structurally (offsets in
// range), and the chunk layer's hash verification is optional — the trailer
// makes base mixups fail closed even with verify_on_get off.
#ifndef FORKBASE_UTIL_DELTA_CODEC_H_
#define FORKBASE_UTIL_DELTA_CODEC_H_

#include <string>

#include "util/slice.h"

namespace forkbase {

/// Appends a delta that rebuilds `target` from `base` to `*out`. Always
/// succeeds; with nothing in common the delta degenerates to one big INSERT
/// (target + a few varints), so callers compare sizes and only keep a delta
/// that actually pays for itself.
void CreateDelta(Slice base, Slice target, std::string* out);

/// Applies `delta` to `base`, appending the rebuilt target to `*out`.
/// Returns false on malformed input: truncated stream, copy range outside
/// the base, output overrun, trailing garbage, checksum mismatch (the
/// wrong-base case), or a target length above `max_len` — checked before
/// anything is reserved. `*out` may hold a partial prefix on failure.
bool ApplyDelta(Slice base, Slice delta, std::string* out, uint64_t max_len);

/// Decoded target_len header of a delta (0 on malformed input).
uint64_t DeltaTargetLength(Slice delta);

/// FNV-1a 32-bit over `bytes` — the trailer ApplyDelta verifies. Exposed
/// for tests that hand-corrupt deltas.
uint32_t DeltaChecksum(Slice bytes);

}  // namespace forkbase

#endif  // FORKBASE_UTIL_DELTA_CODEC_H_
