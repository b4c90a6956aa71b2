// Version bundles — portable replication of a version closure.
//
// The published ForkBase runs distributed; this repository substitutes a
// bundle format (in the spirit of `git bundle`) that carries every chunk a
// version uid transitively references, so a branch can be pushed/pulled
// between independent chunk stores without any network substrate. Content
// addressing makes transfer self-verifying: every chunk must re-hash to its
// declared id, and the requested uids must be present, before anything is
// admitted to the destination store.
//
// One writer, three readable layouts. ExportBundle writes only v3; the
// importer also reads v1 and v2, whose byte layouts are frozen:
//   v1 "FBND": [magic][32B head][varint n][length-prefixed chunk bytes × n]
//              — single head, full closure (read-only).
//   v2 "FBD2": [magic][varint n_heads][32B × n_heads][varint n_chunks]
//              [length-prefixed chunk bytes × n_chunks] — multi-head, any
//              subset of chunk records (read-only).
//   v3 "FBD3": header identical to v2, but each record is
//              [varint body_len][u8 enc][body] where enc selects the body's
//              form: 0 = raw chunk bytes, 1 = an LZ block of the chunk
//              bytes (util/compress.h), 2 = [32B base id][delta bytes]
//              (util/delta_codec.h) against a chunk that appears EARLIER in
//              the same bundle. The writer lifts LZ blocks and in-bundle
//              deltas straight out of a delta-encoding store's physical
//              records (no materialize + recompress round trip) and reads
//              every other chunk through the batched, cached Get path.
// Chunk records may be any subset of the heads' closure: the import closure
// check runs against bundle ∪ destination, which is what lets a delta ship
// only what the receiver lacks. v3 record order is deterministic for equal
// store states, but the same logical chunks can pack differently on stores
// whose physical representation differs — ids, not bundle bytes, are the
// canonical identity.
#ifndef FORKBASE_STORE_BUNDLE_H_
#define FORKBASE_STORE_BUNDLE_H_

#include <functional>
#include <string>
#include <vector>

#include "store/gc.h"

namespace forkbase {

/// Output sink for streaming bundle export: called with consecutive byte
/// ranges of the bundle, in order. Returning non-OK aborts the export with
/// that status. The Slice is only valid for the duration of the call.
using BundleSink = std::function<Status(Slice)>;

/// Accounting for a streamed export.
struct BundleStats {
  uint64_t chunks = 0;  ///< chunk records written
  uint64_t bytes = 0;   ///< total bundle bytes pushed through the sink
  /// How many records went out in each reduced form.
  /// `chunks - delta_chunks - compressed_chunks` shipped raw.
  uint64_t delta_chunks = 0;
  uint64_t compressed_chunks = 0;
};

/// The chunks a receiver holding the closures of the `have` heads needs to
/// hold the closures of the `want` heads, at a cost independent of history
/// length. Two stages:
///
///   1. FNodes: a generation-ordered paint walk from `want` against `have`
///      (NewVersions, store/commit_graph.h) finds the new versions and
///      stops where `have` covers every queued one. Only `have` heads of
///      a key some `want` version carries seed it — a uid covers its key,
///      so other keys' histories cannot hold a wanted version.
///   2. Trees: each new version's value tree (a table from its header down)
///      is descended level by level against its bases' trees, skipping
///      every subtree whose hash a base tree holds — without loading it.
///      Each base is either new itself (its tree is covered by its own
///      descent) or reachable from `have`, so the receiver holds it.
///
/// Every chunk returned has been loaded from `store`; the pruned ones were
/// not. A `want` id that is not an FNode counts as a bare tree root; `have`
/// ids absent from `store`, or not FNodes, are ignored. With no `have` the
/// result is the full closure. The receiver may already hold some returned
/// chunks through content dedup with other keys or older versions; they
/// cost bandwidth, never correctness. `graph` indexes `store`'s versions
/// (null = a throwaway index, filled by loading FNodes from `store`).
StatusOr<std::vector<Hash256>> DeltaClosure(const ChunkStore& store,
                                            const std::vector<Hash256>& want,
                                            const std::vector<Hash256>& have,
                                            CommitGraph* graph = nullptr);

/// The bundle writer: ships exactly `ids` (deduplicated) under `heads`, in
/// the v3 layout. Callers pick the ids — DeltaClosure of what the receiver
/// wants against what it has (with no `have`, the full closure), or the
/// sync push's negotiated set. A chunk ships in the store's physical form
/// only where the bundle alone rebuilds it: an LZ block, or a delta whose
/// base is also in `ids`. Every other chunk is read through
/// ForEachChunkBatch and must re-hash to its id ("is tampered; refusing to
/// export"). Self-contained records (LZ blocks, then the materialized ones)
/// precede the deltas, which follow in in-bundle chain order, so each
/// delta base comes before its dependents. Physical records are verified
/// end to end by the importer, which rebuilds and re-hashes them.
StatusOr<BundleStats> ExportBundle(const ChunkStore& store,
                                   const std::vector<Hash256>& heads,
                                   const std::vector<Hash256>& ids,
                                   const BundleSink& sink);

/// Result of importing a bundle.
struct ImportResult {
  Hash256 head;                ///< first head (the uid of a v1 bundle)
  std::vector<Hash256> heads;  ///< all heads the bundle was exported for
  uint64_t chunks = 0;         ///< chunks carried by the bundle
  uint64_t new_chunks = 0;     ///< chunks the destination did not already have
  uint64_t bytes = 0;
};

/// Validates and imports a bundle (any layout) into `dst`. Fails with
/// kCorruption if any chunk's bytes do not hash to its declared id, if a
/// head is missing from bundle ∪ dst, or if the closure is incomplete (a
/// referenced chunk absent from bundle+dst). `local` is the ForkBase that
/// owns `dst`, if any: the closure check then covers only what its
/// published heads do not (see BundleImporter::Finish).
StatusOr<ImportResult> ImportBundle(Slice bundle, ChunkStore* dst,
                                    const ForkBase* local = nullptr);

/// Streaming, incremental bundle import. Feed() accepts bundle bytes in
/// arbitrary split points as they arrive off the wire; every chunk record
/// that completes is hashed and written to `dst` immediately. Two
/// consequences the network edge depends on:
///
///   * staging memory is bounded by the largest single record plus one
///     transfer part, not by the bundle — pending_bytes() is the whole
///     footprint;
///   * chunks landed before a connection dies persist (content addressing
///     makes them self-verifying in isolation), so a retried push
///     re-negotiates and ships strictly less.
///
/// Finish() runs the head-presence and closure checks that one-shot
/// ImportBundle runs, and returns the same accounting. Errors are sticky;
/// an importer is single-use.
class BundleImporter {
 public:
  /// `local` (optional) is the ForkBase that owns `dst`.
  explicit BundleImporter(ChunkStore* dst, const ForkBase* local = nullptr)
      : dst_(dst), local_(local) {}

  /// Consumes the next range of bundle bytes. kCorruption on a malformed
  /// prefix (sticky).
  Status Feed(Slice bytes);

  /// Validates bundle completeness (no partial record, heads present in
  /// bundle ∪ dst, closure complete) and returns the accounting. The
  /// closure check is the DeltaClosure of the bundle heads against the
  /// local heads of the same keys: every chunk it returns was loaded, and
  /// every chunk it pruned sits under a published local head, whose
  /// closure is complete by invariant. Without `local` it is the full
  /// closure of the heads.
  StatusOr<ImportResult> Finish();

  /// Bytes buffered awaiting a complete parse unit — the importer's entire
  /// staging footprint.
  uint64_t pending_bytes() const { return buffer_.size(); }
  uint64_t chunks_imported() const { return result_.chunks; }

 private:
  enum class State { kMagic, kHeadCount, kHeadList, kChunkCount, kRecords };

  Status Fail(std::string message);
  /// Parses as many complete units from buffer_ as possible.
  Status Parse();
  /// Writes every staged chunk to dst in one PutMany batch (identities are
  /// computed batched there). Called at each Parse boundary, when staging
  /// fills, and before anything resolves a chunk out of dst that this very
  /// feed may have carried (delta bases).
  Status FlushStaged();

  ChunkStore* dst_;
  const ForkBase* local_;
  State state_ = State::kMagic;
  bool packed_ = false;  ///< v3: records carry an encoding tag
  std::string buffer_;
  std::vector<Chunk> staged_;  ///< decoded, not yet written records
  Status error_;
  ImportResult result_;
  uint64_t heads_expected_ = 0;
  uint64_t chunks_expected_ = 0;
  uint64_t chunks_seen_ = 0;
};

}  // namespace forkbase

#endif  // FORKBASE_STORE_BUNDLE_H_
