// ForkBaseServer — the multi-client front-end.
//
// One poll()-driven event-loop thread owns every socket: it accepts
// connections, feeds received bytes through a per-session FrameParser, and
// flushes queued reply bytes. Request execution happens on a WorkerPool so
// a slow read (or a large delta export) never stalls other sessions' I/O.
//
// Concurrency model per session: one request in flight. The loop stops
// decoding a session's frames while its request runs (clients are
// synchronous, so pipelined bytes just wait in the parser) and resumes when
// the worker posts the reply. Writes ride the existing store/commit-queue
// stack: reads go straight to ForkBase's const surface, commits go through
// Put/PutIf and therefore through the group-commit queue — N sessions
// committing to one branch get the queue's linear chaining, not
// last-writer-wins. Heads persist inside the store (ForkBase::Open's head
// log, store/branch_table.h): a reply for a mutating verb is sent after its
// head was logged, so the server keeps no persistence hook of its own.
//
// Sync verbs (kHeads/kOffer/kBundle*/kUpdateHead/kPullDelta) make the same
// server the replication peer: see net/sync.h for the client half.
//
// Hardening (all knobs in Options): per-session outboxes are bounded — a
// session over the cap is not read, streamed PULL_DELTA production blocks
// until its reader drains, and a peer that stops draining entirely is
// disconnected after write_stall_timeout. The poll loop drives handshake /
// idle / request deadlines, so a connection can never hold a slot without
// making progress. Token buckets rate-limit requests and ingress bytes per
// session and globally, and past the session / queued-request high-water
// marks the server sheds load with a structured kUnavailable error frame
// carrying a retry-after hint rather than accepting work it cannot finish.
// Bundle uploads import incrementally (BundleImporter), bounding staging
// memory and making a torn upload resumable.
#ifndef FORKBASE_NET_SERVER_H_
#define FORKBASE_NET_SERVER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/frame.h"
#include "store/forkbase.h"
#include "util/token_bucket.h"
#include "util/worker_pool.h"

namespace forkbase {

class ForkBaseServer {
 public:
  struct Options {
    /// Request-execution threads (per server, shared by all sessions).
    size_t worker_threads = 4;
    /// Per-frame payload cap enforced by the parser.
    uint64_t max_frame_payload = kDefaultMaxFramePayload;
    /// Cap on one streamed bundle upload (sum of kBundlePart payloads).
    uint64_t max_bundle_bytes = 1ull << 30;

    // --- backpressure ---
    /// Per-session outbox cap. Over it the loop stops reading the session
    /// (no new requests) and streamed PULL_DELTA production blocks until
    /// the reader drains; momentary overshoot is bounded by one part.
    uint64_t max_outbox_bytes = 8ull << 20;
    /// kBundlePart payload size for streamed PULL_DELTA replies.
    size_t part_bytes = 1 << 20;

    // --- deadlines (milliseconds; 0 disables the check) ---
    /// accept → completed HELLO. A pre-handshake connection holding its
    /// slot longer is disconnected (the pre-HELLO session leak fix).
    int64_t handshake_timeout_millis = 10'000;
    /// No bytes from an established, idle session for this long → close.
    int64_t idle_timeout_millis = 0;
    /// Dispatch → reply enqueued. The worker cannot be aborted, but the
    /// session is failed + disconnected so the client never hangs on it.
    int64_t request_timeout_millis = 0;
    /// Outbox non-empty and the peer accepts no byte for this long → the
    /// session is force-closed (the slow-reader disconnect).
    int64_t write_stall_timeout_millis = 30'000;

    // --- rate limits (0 = unlimited; bursts default to 2× the rate) ---
    double session_requests_per_sec = 0;
    double session_ingress_bytes_per_sec = 0;
    double global_requests_per_sec = 0;
    double global_ingress_bytes_per_sec = 0;

    // --- overload shedding (0 = unlimited) ---
    /// Accepts past this session count are shed with kUnavailable.
    size_t max_sessions = 0;
    /// Reply-bearing dispatches past this many in-flight requests are shed
    /// with kUnavailable instead of queued behind work that can't finish.
    size_t max_queued_requests = 0;
    /// Retry-after hint carried in shed error frames.
    uint64_t shed_retry_after_millis = 1'000;
  };

  struct Stats {
    uint64_t sessions_accepted = 0;
    uint64_t sessions_closed = 0;
    uint64_t frames_received = 0;
    uint64_t requests_served = 0;
    uint64_t protocol_errors = 0;
    uint64_t sessions_shed = 0;          ///< accepts rejected over max_sessions
    uint64_t requests_shed = 0;          ///< dispatches rejected over queue cap
    uint64_t requests_rate_limited = 0;  ///< requests bounced by a bucket
    uint64_t deadline_disconnects = 0;   ///< handshake/idle/request expiry
    uint64_t stall_disconnects = 0;      ///< write-stalled sessions dropped
    uint64_t peak_outbox_bytes = 0;      ///< high-water mark of any outbox
    uint64_t peak_staged_bytes = 0;      ///< high-water bundle-import staging
  };

  /// Binds `address` (see net/transport.h) and starts the loop thread.
  /// `db` must outlive the server.
  static StatusOr<std::unique_ptr<ForkBaseServer>> Start(
      ForkBase* db, const std::string& address);
  static StatusOr<std::unique_ptr<ForkBaseServer>> Start(
      ForkBase* db, const std::string& address, const Options& options);

  ~ForkBaseServer();
  ForkBaseServer(const ForkBaseServer&) = delete;
  ForkBaseServer& operator=(const ForkBaseServer&) = delete;

  /// Stops accepting, joins the loop and the workers, closes every
  /// session. Idempotent; the destructor calls it.
  void Stop();

  /// Concrete reconnectable address (resolves tcp:...:0 to the real port).
  const std::string& address() const { return address_; }

  Stats stats() const;

 private:
  struct Session;

  ForkBaseServer(ForkBase* db, const Options& options);
  Status Init(const std::string& address);

  void LoopMain();
  void Wake();
  void AcceptPending();
  /// Loop-thread deadline sweep over one session; returns the session's
  /// nearest future deadline in millis (or -1 if it has none) and flags the
  /// session failed/closed when one already expired.
  int64_t SweepDeadlines(const std::shared_ptr<Session>& session,
                         int64_t now_millis);
  /// recv()s whatever is ready and decodes frames; may mark the session
  /// busy (request dispatched) or closing (protocol error / EOF).
  void ReadInput(const std::shared_ptr<Session>& session);
  /// Decodes buffered frames until the session goes busy or runs dry.
  void ProcessFrames(const std::shared_ptr<Session>& session);
  /// Handles one frame on the loop thread; dispatches reply-bearing verbs
  /// to the worker pool.
  void HandleFrame(const std::shared_ptr<Session>& session, Frame frame);
  /// Worker-side: executes a request and posts the reply frame(s).
  void ExecuteRequest(const std::shared_ptr<Session>& session, Frame frame);
  std::string HandleRequest(const std::shared_ptr<Session>& session,
                            const Frame& frame);
  Status HandleUpdateHead(Decoder* dec, std::string* reply_payload);
  Status HandlePullDelta(const std::shared_ptr<Session>& session,
                         Decoder* dec);

  /// Appends encoded frame bytes to the session's outbox and wakes poll.
  /// No-op once the session is closing (its socket will never drain).
  void EnqueueBytes(const std::shared_ptr<Session>& session,
                    std::string bytes);
  /// Backpressured variant for streamed production (PULL_DELTA): blocks the
  /// calling worker while the outbox sits above max_outbox_bytes, until the
  /// reader drains it or the session dies (then non-OK).
  Status EnqueueBytesBounded(const std::shared_ptr<Session>& session,
                             std::string bytes);
  /// Sends a protocol error and schedules the session for close-on-flush.
  void FailSession(const std::shared_ptr<Session>& session,
                   const Status& error);
  /// FailSession without the protocol_errors bump — deadline and shed
  /// disconnects are the server's own doing, not the client's.
  void FailSessionWith(const std::shared_ptr<Session>& session,
                       const Status& error);
  /// Answers a session admitted past max_sessions with the kUnavailable
  /// shed error (carrying the retry-after hint) and closes it on flush.
  void ShedSession(const std::shared_ptr<Session>& session);
  /// Immediate teardown for sessions whose socket is not draining: drops
  /// the undeliverable outbox, wakes any blocked producer, closes next
  /// loop pass.
  void ForceClose(const std::shared_ptr<Session>& session);
  /// Flushes as much outbox as the socket accepts without blocking.
  void FlushOutbox(const std::shared_ptr<Session>& session);
  void CloseSession(int fd);

  ForkBase* const db_;
  const Options options_;
  std::string address_;
  std::string unix_path_;  ///< socket file to unlink on Stop
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};

  std::mutex mu_;  ///< guards sessions_; taken before any session mutex
  std::map<int, std::shared_ptr<Session>> sessions_;

  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> sessions_accepted_{0};
  std::atomic<uint64_t> sessions_closed_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> sessions_shed_{0};
  std::atomic<uint64_t> requests_shed_{0};
  std::atomic<uint64_t> requests_rate_limited_{0};
  std::atomic<uint64_t> deadline_disconnects_{0};
  std::atomic<uint64_t> stall_disconnects_{0};
  std::atomic<uint64_t> peak_outbox_bytes_{0};
  std::atomic<uint64_t> peak_staged_bytes_{0};
  std::atomic<uint64_t> inflight_requests_{0};

  // Loop-thread-only (accept/dispatch happen there): the cross-session
  // rate limits.
  TokenBucket global_request_bucket_;
  TokenBucket global_ingress_bucket_;

  WorkerPool pool_;
  std::thread loop_;
};

}  // namespace forkbase

#endif  // FORKBASE_NET_SERVER_H_
