// Canonical binary encoding primitives.
//
// All persistent structures (chunks, nodes, FNodes) are serialized with these
// helpers. Encodings must be canonical (a value has exactly one encoding):
// structural invariance and content-addressing both depend on it.
#ifndef FORKBASE_UTIL_CODEC_H_
#define FORKBASE_UTIL_CODEC_H_

#include <cstdint>
#include <string>

#include "util/slice.h"
#include "util/status.h"

namespace forkbase {

/// Appends a little-endian fixed-width integer.
void PutFixed32(std::string* dst, uint32_t v);
void PutFixed64(std::string* dst, uint64_t v);

/// Appends a LEB128 varint (canonical minimal form).
void PutVarint64(std::string* dst, uint64_t v);

/// Appends varint length followed by raw bytes.
void PutLengthPrefixed(std::string* dst, Slice s);

/// Sequential decoder over a byte slice. All Get* return false on underflow
/// or malformed input, leaving the cursor unspecified.
class Decoder {
 public:
  explicit Decoder(Slice input) : in_(input), pos_(0) {}

  bool GetFixed32(uint32_t* v);
  bool GetFixed64(uint64_t* v);
  bool GetVarint64(uint64_t* v);
  /// Reads a varint length followed by that many raw bytes (view, no copy).
  bool GetLengthPrefixed(Slice* s);
  /// Reads exactly n raw bytes.
  bool GetRaw(size_t n, Slice* s);

  bool AtEnd() const { return pos_ == in_.size(); }
  size_t position() const { return pos_; }
  size_t remaining() const { return in_.size() - pos_; }
  Slice input() const { return in_; }

 private:
  Slice in_;
  size_t pos_;
};

/// Number of bytes PutVarint64 would append for v.
size_t VarintLength(uint64_t v);

}  // namespace forkbase

#endif  // FORKBASE_UTIL_CODEC_H_
