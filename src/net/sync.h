// Instance-to-instance branch sync over the wire protocol.
//
// Git-style negotiation: compare branch heads, run have/want rounds over
// chunk ids so the sender ships only chunks the receiver is missing, move
// the closure as a bundle, then fast-forward heads. Both directions drive
// the same server verbs (net/server.h):
//   SyncPush — local heads out: Offer rounds prune the delta closure, a
//              streamed bundle upload ships it, UpdateHead publishes.
//   SyncPull — remote heads in: PullDelta streams the missing closure
//              back (the server computes the delta against our heads),
//              ImportBundle lands it, local heads fast-forward.
// Divergent branches are never clobbered: a non-fast-forward head counts
// as a conflict in the stats and is left for a real merge.
#ifndef FORKBASE_NET_SYNC_H_
#define FORKBASE_NET_SYNC_H_

#include <functional>
#include <string>
#include <vector>

#include "net/client.h"
#include "store/forkbase.h"

namespace forkbase {

struct SyncOptions {
  /// Restrict the sync to these keys (empty = every key).
  std::vector<std::string> keys;
  /// kBundlePart payload size for the upload stream.
  size_t part_bytes = 1 << 20;
};

struct SyncStats {
  uint64_t branches_considered = 0;
  uint64_t branches_updated = 0;    ///< heads moved (or created) on the peer
  uint64_t branches_skipped = 0;    ///< already identical
  uint64_t branches_conflicted = 0; ///< divergent; left untouched
  uint64_t rounds = 0;              ///< have/want Offer rounds
  uint64_t chunks_offered = 0;
  /// Chunks the negotiation decided to ship (recorded before the upload
  /// starts, so a failed attempt still reports it — the resumability proof
  /// compares this across retry attempts).
  uint64_t chunks_negotiated = 0;
  uint64_t chunks_sent = 0;         ///< push: chunks shipped in the bundle
  uint64_t bytes_sent = 0;
  uint64_t chunks_received = 0;     ///< pull: chunks carried by the bundle
  uint64_t bytes_received = 0;
  /// Chunks the receiving side actually lacked (push: the server's import
  /// counter; pull: ImportBundle's). chunks_sent == remote_new_chunks means
  /// the negotiation shipped nothing redundant.
  uint64_t remote_new_chunks = 0;
};

/// Pushes local branch heads to the peer behind `client`.
StatusOr<SyncStats> SyncPush(ForkBase* db, ForkBaseClient* client,
                             const SyncOptions& options = SyncOptions());

/// Pulls the peer's branch heads into `db`.
StatusOr<SyncStats> SyncPull(ForkBase* db, ForkBaseClient* client,
                             const SyncOptions& options = SyncOptions());

/// Out-parameter forms: `*stats` accumulates as the sync progresses, so a
/// failed attempt still reports how far it got (what the retry layer and
/// its tests need). `*stats` is reset first.
Status SyncPushInto(ForkBase* db, ForkBaseClient* client,
                    const SyncOptions& options, SyncStats* stats);
Status SyncPullInto(ForkBase* db, ForkBaseClient* client,
                    const SyncOptions& options, SyncStats* stats);

// ---------------------------------------------------------------------------
// Retrying sync — reconnect, back off, resume.
//
// Delta exactness is what makes retry safe AND cheap: every verb either
// reads, ships content-addressed chunks (idempotent Puts), or fast-forwards
// a head (idempotent once applied). A retried push re-negotiates and ships
// only what the dead attempt failed to land — the streamed importer on the
// server persists completed chunks of a torn upload.

struct RetryPolicy {
  int max_attempts = 5;
  /// Capped exponential backoff: initial × 2^(attempt-1), at most `max`.
  int64_t initial_backoff_millis = 100;
  int64_t max_backoff_millis = 5'000;
  /// Deterministic jitter source: each sleep is drawn uniformly from
  /// [backoff/2, backoff] with a generator seeded here, so retry storms
  /// decorrelate but tests replay exactly.
  uint64_t jitter_seed = 42;
  /// Per-attempt transport deadlines (see ForkBaseClient::Options).
  int64_t connect_timeout_millis = 10'000;
  int64_t io_timeout_millis = 30'000;
};

/// True for failures worth a reconnect: transport death (kIOError), a
/// deadline (kDeadlineExceeded), server shed (kUnavailable), or a torn
/// frame (kCorruption of the stream, e.g. disconnect mid-frame).
bool IsRetryableSyncError(const Status& status);

struct SyncAttempt {
  Status status;       ///< outcome of this attempt
  SyncStats stats;     ///< partial progress (valid even on failure)
  int64_t backoff_millis = 0;  ///< slept after this attempt (0 if last)
};

struct SyncRetryReport {
  bool succeeded = false;
  Status final_status;  ///< OK, or the last attempt's error
  SyncStats stats;      ///< the successful attempt's stats
  std::vector<SyncAttempt> attempts;
};

enum class SyncDirection { kPush, kPull };

/// Produces a fresh connection per attempt; tests inject fault-wrapped
/// loopback streams here, the address overload wires SocketStream::Connect.
using StreamFactory =
    std::function<StatusOr<std::unique_ptr<ByteStream>>()>;
/// Test seam for the backoff sleeps (nullptr = really sleep).
using SleepFn = std::function<void(int64_t millis)>;

/// Runs push/pull, reconnecting through `factory` and backing off per
/// `policy` on retryable failures (honoring any server retry-after hint).
/// Non-retryable errors (kMergeConflict, kNotFound, ...) stop immediately.
/// Always returns a report; report.final_status carries the overall result.
SyncRetryReport SyncWithRetry(ForkBase* db, SyncDirection direction,
                              const StreamFactory& factory,
                              const RetryPolicy& policy = RetryPolicy(),
                              const SyncOptions& options = SyncOptions(),
                              const SleepFn& sleep_fn = nullptr);

/// Address convenience: reconnects to `address` with the policy's connect
/// and I/O deadlines on every attempt.
SyncRetryReport SyncWithRetry(ForkBase* db, SyncDirection direction,
                              const std::string& address,
                              const RetryPolicy& policy = RetryPolicy(),
                              const SyncOptions& options = SyncOptions(),
                              const SleepFn& sleep_fn = nullptr);

}  // namespace forkbase

#endif  // FORKBASE_NET_SYNC_H_
