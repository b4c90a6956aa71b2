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
// Three wire layouts, distinguished by magic:
//   v1 "FBND": [magic][32B head][varint n][length-prefixed chunk bytes × n]
//              — single head, full closure; byte layout frozen (tooling and
//              tests poke fixed offsets).
//   v2 "FBD2": [magic][varint n_heads][32B × n_heads][varint n_chunks]
//              [length-prefixed chunk bytes × n_chunks]
//              — multi-head deltas, the sync protocol's bundle. Chunk
//              records may be any subset: the import closure check runs
//              against bundle ∪ destination, which is what makes
//              incremental push ship only missing chunks.
//   v3 "FBD3": header identical to v2, but each record is
//              [varint body_len][u8 enc][body] where enc selects the body's
//              form: 0 = raw chunk bytes, 1 = an LZ block of the chunk
//              bytes (util/compress.h), 2 = [32B base id][delta bytes]
//              (util/delta_codec.h) against a chunk that appears EARLIER in
//              the same bundle. The exporter lifts these straight out of a
//              delta-encoding store's physical records (no materialize +
//              recompress round trip on the hot push path) and orders
//              records base-before-dependent, so the importer can resolve
//              every delta against chunks it has already admitted. A delta
//              whose base is outside the shipped set is materialized and
//              shipped raw instead — v3 bundles are always self-contained
//              in their physical dependencies even when the logical closure
//              is a subset.
// v1/v2 sort chunk records by id, so equal inputs give byte-equal bundles.
// v3 sorts by (delta chain depth within the bundle, id): byte-equal for
// equal store states, but the same logical chunks can pack differently on
// stores whose physical representation differs — ids, not bundle bytes, are
// the canonical identity.
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
  /// v3 (packed) exports only: how many records went out in each reduced
  /// form. `chunks - delta_chunks - compressed_chunks` shipped raw.
  uint64_t delta_chunks = 0;
  uint64_t compressed_chunks = 0;
};

/// Serializes the closure of `uid` (value tree + full derivation history)
/// from `store` through `sink`, in the frozen v1 layout.
StatusOr<BundleStats> ExportBundle(const ChunkStore& store, const Hash256& uid,
                                   const BundleSink& sink);

/// String-building wrapper over the sink form (identical bytes).
StatusOr<std::string> ExportBundle(const ChunkStore& store,
                                   const Hash256& uid);

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

/// Delta closure export (v2): the DeltaClosure of `want` against `have`,
/// under the `want` heads. `want` uids must resolve.
StatusOr<BundleStats> ExportDeltaBundle(const ChunkStore& store,
                                        const std::vector<Hash256>& want,
                                        const std::vector<Hash256>& have,
                                        const BundleSink& sink,
                                        CommitGraph* graph = nullptr);

/// Explicit-set export (v2): ships exactly `ids` (sorted, deduplicated)
/// under the given heads. This is the sync push's post-negotiation pack:
/// the have/want rounds already decided which chunks the peer lacks.
/// Every id must resolve in `store` and re-hash to itself.
StatusOr<BundleStats> ExportBundleOfIds(const ChunkStore& store,
                                        const std::vector<Hash256>& heads,
                                        const std::vector<Hash256>& ids,
                                        const BundleSink& sink);

/// Packed explicit-set export (v3): same contract as ExportBundleOfIds, but
/// records ship in the store's physical form where that is safe — an
/// LZ-compressed record goes out as its compressed payload verbatim, and a
/// delta record whose base is also in `ids` goes out as the stored delta,
/// ordered after its base. Records the receiver could not reconstruct from
/// the bundle alone (delta against an out-of-set base) are materialized and
/// shipped raw. On a store without physical records (GetPhysicalRecord
/// returns false for everything) every chunk is materialized and the export
/// degenerates to "v3 framing, raw bodies" — a v2 pack plus one tag byte
/// per record. End-to-end integrity moves to the importer: each record is
/// rebuilt and re-hashed at the destination, so a corrupt payload fails the
/// import rather than the export.
StatusOr<BundleStats> ExportPackedBundleOfIds(const ChunkStore& store,
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
