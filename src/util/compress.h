// In-tree LZ-style block compressor for segment record payloads.
//
// No external codec dependency: the store must build everywhere the repo
// builds. The format is a classic byte-oriented LZ77 — a varint-tagged
// stream of literal runs and (length, distance) back-references into the
// already-decompressed output — chosen for a dirt-cheap decompressor (the
// cold-scan path pays decompression on every chunk, so it must stay within
// ~20% of a raw scan; see compare_bench.py's compressed-scan floor).
//
// Compressed block layout:
//   [varint raw_len]
//   ops until raw_len bytes are produced:
//     literal run: varint (n << 1)     followed by n raw bytes, n >= 1
//     match:       varint (n << 1 | 1) then varint distance,
//                  n >= kMinMatchLen, 1 <= distance <= bytes produced so far
//
// The encoding is deterministic (same input, same output) but NOT part of
// any content address: chunk ids hash the logical bytes, never the
// compressed form, so the matcher can improve without a format break.
#ifndef FORKBASE_UTIL_COMPRESS_H_
#define FORKBASE_UTIL_COMPRESS_H_

#include <string>

#include "util/slice.h"

namespace forkbase {

/// Appends the compressed form of `input` to `*out`. Always succeeds (an
/// incompressible input becomes one big literal run, ~input + varints).
/// Callers compare sizes and keep whichever representation is smaller.
void LzCompressBlock(Slice input, std::string* out);

/// Appends the decompressed bytes to `*out`. Returns false on any malformed
/// input: truncated stream, distance past the produced prefix, output
/// overrun, trailing garbage, or a length header above `max_len` — checked
/// before anything is allocated, so a hostile header cannot demand a giant
/// buffer. `*out` may hold a partial prefix on failure; callers treat the
/// record as corrupt and discard.
bool LzDecompressBlock(Slice compressed, std::string* out, uint64_t max_len);

/// Decoded raw_len header of a compressed block (0 on malformed input).
/// Lets callers size-check before committing to a full decompression.
uint64_t LzDecompressedLength(Slice compressed);

}  // namespace forkbase

#endif  // FORKBASE_UTIL_COMPRESS_H_
