#include "net/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fcntl.h>
#include <utility>
#include <vector>

#include "net/sync.h"
#include "net/wire.h"
#include "store/bundle.h"
#include "store/gc.h"

namespace forkbase {

namespace {

constexpr size_t kReadChunk = 64 * 1024;
constexpr int kUpdateHeadRetries = 16;
/// Upper bound on one poll sleep; deadline sweeps shorten it further.
constexpr int kMaxPollMillis = 500;

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(std::string("fcntl O_NONBLOCK: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

int64_t NowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Lock-free running maximum for the peak_* gauges.
void AtomicMax(std::atomic<uint64_t>* peak, uint64_t value) {
  uint64_t seen = peak->load();
  while (value > seen && !peak->compare_exchange_weak(seen, value)) {
  }
}

}  // namespace

struct ForkBaseServer::Session {
  explicit Session(int fd_in, uint64_t max_payload, int64_t now_millis)
      : fd(fd_in),
        parser(max_payload),
        connected_millis(now_millis),
        last_activity_millis(now_millis) {}

  const int fd;
  // Loop-thread-only state: the loop never decodes while a request is in
  // flight (busy), so the worker owns the bundle importer for the duration
  // of a kBundlePart/kBundleEnd and nothing else races it.
  FrameParser parser;
  bool hello_done = false;
  /// Admitted past max_sessions: its first frame (the client's HELLO) is
  /// answered with the shed error, then the session closes.
  bool shed = false;
  std::unique_ptr<BundleImporter> importer;  ///< live during an upload
  /// GC quarantine for this connection's pushes: registered at the first
  /// OFFER or BUNDLE_BEGIN and held until disconnect, it records every
  /// chunk the connection lands (and every already-present chunk an OFFER
  /// told the client not to resend), so an in-place sweep never erases
  /// chunks a not-yet-published head will need. Holding it to disconnect
  /// is deliberately conservative: sweeps skip more, never less.
  std::unique_ptr<ChunkStore::PutPin> upload_pin;
  uint64_t bundle_bytes = 0;  ///< total part payload fed to the importer
  const int64_t connected_millis;   ///< for the handshake deadline
  int64_t last_activity_millis;     ///< last byte read (idle deadline)
  TokenBucket request_bucket;       ///< loop-thread-only rate limit state
  TokenBucket ingress_bucket;
  int64_t read_paused_until_millis = 0;  ///< ingress throttle gate

  std::atomic<bool> busy{false};     ///< one request in flight
  std::atomic<bool> closing{false};  ///< close once the outbox drains
  /// Dispatch time of the in-flight request, 0 when none (request
  /// deadline); written by the loop, cleared by the worker.
  std::atomic<int64_t> request_start_millis{0};
  /// Start of the current no-progress write window, 0 when the outbox is
  /// empty or moving (write-stall deadline).
  std::atomic<int64_t> write_stall_since_millis{0};

  std::mutex mu;       ///< guards outbox (loop flushes, workers append)
  std::string outbox;  ///< encoded frames awaiting the socket
  /// Signaled when the outbox drains below the cap or the session dies —
  /// unblocks workers parked in EnqueueBytesBounded.
  std::condition_variable outbox_cv;
};

namespace {

/// Bucket for a configured rate (0 = unlimited); burst = 2× the rate so a
/// client can catch up after a quiet second without the limit flapping.
TokenBucket BucketFor(double rate_per_sec) {
  if (rate_per_sec <= 0) return TokenBucket();
  return TokenBucket(rate_per_sec, std::max(1.0, rate_per_sec * 2));
}

}  // namespace

ForkBaseServer::ForkBaseServer(ForkBase* db, const Options& options)
    : db_(db),
      options_(options),
      global_request_bucket_(BucketFor(options.global_requests_per_sec)),
      global_ingress_bucket_(BucketFor(options.global_ingress_bytes_per_sec)),
      pool_(options.worker_threads) {}

StatusOr<std::unique_ptr<ForkBaseServer>> ForkBaseServer::Start(
    ForkBase* db, const std::string& address) {
  return Start(db, address, Options{});
}

StatusOr<std::unique_ptr<ForkBaseServer>> ForkBaseServer::Start(
    ForkBase* db, const std::string& address, const Options& options) {
  std::unique_ptr<ForkBaseServer> server(new ForkBaseServer(db, options));
  FB_RETURN_IF_ERROR(server->Init(address));
  return server;
}

Status ForkBaseServer::Init(const std::string& address) {
  FB_ASSIGN_OR_RETURN(Endpoint ep, ParseAddress(address));
  FB_ASSIGN_OR_RETURN(listen_fd_, ListenOn(address, &address_));
  if (ep.kind == Endpoint::Kind::kUnix) unix_path_ = ep.path;
  FB_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));
  if (::pipe(wake_fds_) != 0) {
    return Status::IOError(std::string("pipe: ") + std::strerror(errno));
  }
  FB_RETURN_IF_ERROR(SetNonBlocking(wake_fds_[0]));
  FB_RETURN_IF_ERROR(SetNonBlocking(wake_fds_[1]));
  loop_ = std::thread([this] { LoopMain(); });
  return Status::OK();
}

ForkBaseServer::~ForkBaseServer() { Stop(); }

void ForkBaseServer::Stop() {
  if (stop_.exchange(true)) return;
  // Wake workers parked in EnqueueBytesBounded before joining anything —
  // a blocked producer would deadlock both the pool shutdown and any
  // session it was streaming to.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [fd, session] : sessions_) {
      (void)fd;
      session->outbox_cv.notify_all();
    }
  }
  Wake();
  if (loop_.joinable()) loop_.join();
  // Runs any request still queued; replies land in outboxes that are never
  // flushed, which is fine — the sockets are about to close.
  pool_.Shutdown();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [fd, session] : sessions_) {
      (void)session;
      ::close(fd);
    }
    sessions_.clear();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

ForkBaseServer::Stats ForkBaseServer::stats() const {
  Stats s;
  s.sessions_accepted = sessions_accepted_.load();
  s.sessions_closed = sessions_closed_.load();
  s.frames_received = frames_received_.load();
  s.requests_served = requests_served_.load();
  s.protocol_errors = protocol_errors_.load();
  s.sessions_shed = sessions_shed_.load();
  s.requests_shed = requests_shed_.load();
  s.requests_rate_limited = requests_rate_limited_.load();
  s.deadline_disconnects = deadline_disconnects_.load();
  s.stall_disconnects = stall_disconnects_.load();
  s.peak_outbox_bytes = peak_outbox_bytes_.load();
  s.peak_staged_bytes = peak_staged_bytes_.load();
  return s;
}

void ForkBaseServer::Wake() {
  const char byte = 'w';
  ssize_t rc = ::write(wake_fds_[1], &byte, 1);
  (void)rc;  // a full pipe already guarantees a pending wakeup
}

int64_t ForkBaseServer::SweepDeadlines(
    const std::shared_ptr<Session>& session, int64_t now) {
  // Returns the nearest *future* deadline; an expired one acts right here
  // (fail / force-close) and returns -1 since the session is on its way
  // out. All timers are loop-thread state or atomics.
  int64_t nearest = -1;
  auto consider = [&](int64_t at) {
    if (nearest < 0 || at < nearest) nearest = at;
  };

  if (!session->hello_done && options_.handshake_timeout_millis > 0) {
    const int64_t at =
        session->connected_millis + options_.handshake_timeout_millis;
    if (now >= at) {
      deadline_disconnects_.fetch_add(1);
      if (session->shed) {
        ShedSession(session);
      } else {
        FailSessionWith(session, Status::DeadlineExceeded(
                                     "no HELLO within the handshake deadline"));
      }
      return -1;
    }
    consider(at);
  }
  // Idle means truly quiescent: handshake done, no request running, and
  // nothing owed to the peer (a slow pull reader is stalled, not idle —
  // the write-stall deadline owns that case).
  if (session->hello_done && !session->busy.load() &&
      session->write_stall_since_millis.load() == 0 &&
      options_.idle_timeout_millis > 0) {
    const int64_t at =
        session->last_activity_millis + options_.idle_timeout_millis;
    if (now >= at) {
      deadline_disconnects_.fetch_add(1);
      FailSessionWith(session, Status::DeadlineExceeded(
                                   "session idle past the deadline"));
      return -1;
    }
    consider(at);
  }
  if (options_.request_timeout_millis > 0) {
    const int64_t started = session->request_start_millis.load();
    if (started > 0) {
      const int64_t at = started + options_.request_timeout_millis;
      if (now >= at) {
        // The worker cannot be aborted; disconnect so the client stops
        // waiting on a reply that may never come. The eventual reply is
        // dropped by the closing check in EnqueueBytes.
        deadline_disconnects_.fetch_add(1);
        FailSessionWith(session, Status::DeadlineExceeded(
                                     "request exceeded the server deadline"));
        return -1;
      }
      consider(at);
    }
  }
  if (options_.write_stall_timeout_millis > 0) {
    const int64_t stalled_since = session->write_stall_since_millis.load();
    if (stalled_since > 0) {
      const int64_t at = stalled_since + options_.write_stall_timeout_millis;
      if (now >= at) {
        // The peer is not draining; nothing queued can be delivered.
        stall_disconnects_.fetch_add(1);
        ForceClose(session);
        return -1;
      }
      consider(at);
    }
  }
  if (session->read_paused_until_millis > now) {
    consider(session->read_paused_until_millis);
  }
  return nearest;
}

void ForkBaseServer::LoopMain() {
  while (!stop_.load()) {
    std::vector<pollfd> fds;
    std::vector<std::shared_ptr<Session>> polled;
    std::vector<int> to_close;
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_fds_[0], POLLIN, 0});
    int poll_millis = kMaxPollMillis;
    const int64_t now = NowMillis();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [fd, session] : sessions_) {
        // A worker finishing its request may have left decoded-but-
        // unprocessed bytes in the parser; drain them before sleeping.
        if (!session->busy.load() && !session->closing.load() &&
            session->parser.buffered() > 0) {
          ProcessFrames(session);
        }
        if (!session->closing.load()) {
          const int64_t deadline_at = SweepDeadlines(session, now);
          if (deadline_at >= 0) {
            poll_millis = std::min(
                poll_millis,
                static_cast<int>(std::max<int64_t>(deadline_at - now, 0)));
          }
        }
        size_t outbox_size;
        {
          std::lock_guard<std::mutex> session_lock(session->mu);
          outbox_size = session->outbox.size();
        }
        short events = 0;
        // Backpressure: a session whose outbox is over the cap is not read
        // (no new work) until its reader drains what is already owed.
        // Ingress throttling pauses reads the same way.
        if (!session->busy.load() && !session->closing.load() &&
            outbox_size <= options_.max_outbox_bytes &&
            session->read_paused_until_millis <= now) {
          events |= POLLIN;
        }
        if (outbox_size > 0) events |= POLLOUT;
        if (session->closing.load() && outbox_size == 0) {
          to_close.push_back(fd);
          continue;
        }
        if (events == 0) continue;  // busy: the wake pipe re-polls us
        fds.push_back({fd, events, 0});
        polled.push_back(session);
      }
    }
    for (int fd : to_close) CloseSession(fd);
    if (::poll(fds.data(), fds.size(), poll_millis) < 0) {
      if (errno == EINTR) continue;
      break;  // poll itself failing is unrecoverable
    }
    if (stop_.load()) break;
    if (fds[1].revents & POLLIN) {
      char drain[256];
      while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {
      }
    }
    if (fds[0].revents & POLLIN) AcceptPending();
    for (size_t i = 0; i < polled.size(); ++i) {
      const short revents = fds[i + 2].revents;
      if (revents & POLLOUT) FlushOutbox(polled[i]);
      if (revents & POLLIN) ReadInput(polled[i]);
      if (revents & (POLLERR | POLLNVAL)) {
        polled[i]->closing.store(true);
        polled[i]->outbox_cv.notify_all();
      }
    }
  }
}

void ForkBaseServer::AcceptPending() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept failure: try next poll round
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    auto session = std::make_shared<Session>(fd, options_.max_frame_payload,
                                             NowMillis());
    session->request_bucket = BucketFor(options_.session_requests_per_sec);
    session->ingress_bucket =
        BucketFor(options_.session_ingress_bytes_per_sec);
    size_t session_count;
    {
      std::lock_guard<std::mutex> lock(mu_);
      session_count = sessions_.size();
      sessions_.emplace(fd, session);
    }
    sessions_accepted_.fetch_add(1);
    if (options_.max_sessions > 0 && session_count >= options_.max_sessions) {
      // Graceful shed: the client's HELLO round trip reads a structured
      // "come back later" instead of a refused or hung connection. The
      // reply waits for the HELLO (see HandleFrame): closing before it
      // arrives could fail the client's HELLO write, and the client would
      // never read the queued reply.
      sessions_shed_.fetch_add(1);
      session->shed = true;
    }
  }
}

void ForkBaseServer::ShedSession(const std::shared_ptr<Session>& session) {
  EnqueueBytes(session,
               EncodeFrame(Verb::kError,
                           EncodeError(Status::Unavailable(
                                           "server at session capacity"),
                                       options_.shed_retry_after_millis)));
  session->closing.store(true);
  session->outbox_cv.notify_all();
}

void ForkBaseServer::ReadInput(const std::shared_ptr<Session>& session) {
  char buf[kReadChunk];
  uint64_t read_bytes = 0;
  // Bounded drain per wake-up: a session with a deep socket buffer cannot
  // monopolize the loop, and ingress pacing gets to re-gate POLLIN between
  // rounds instead of watching one call slurp the whole upload.
  constexpr uint64_t kMaxReadPerWake = 2 * kReadChunk;
  for (;;) {
    ssize_t n = ::recv(session->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      session->parser.Feed(Slice(buf, static_cast<size_t>(n)));
      read_bytes += static_cast<uint64_t>(n);
      if (read_bytes >= kMaxReadPerWake) break;
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      session->closing.store(true);
      session->outbox_cv.notify_all();
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    session->closing.store(true);
    session->outbox_cv.notify_all();
    break;
  }
  if (read_bytes > 0) {
    const int64_t now = NowMillis();
    session->last_activity_millis = now;
    // Ingress throttling charges after the fact (the bytes are already
    // here); a resulting deficit pauses reads until the buckets recover.
    session->ingress_bucket.Charge(double(read_bytes), now);
    global_ingress_bucket_.Charge(double(read_bytes), now);
    // Pause until the buckets can afford a whole read chunk — resuming on a
    // single token would thrash, and pacing must bite before the next drain,
    // not after the upload has already landed.
    const int64_t wait =
        std::max(session->ingress_bucket.MillisUntil(double(kReadChunk), now),
                 global_ingress_bucket_.MillisUntil(double(kReadChunk), now));
    if (wait > 0) session->read_paused_until_millis = now + wait;
  }
  ProcessFrames(session);
}

void ForkBaseServer::ProcessFrames(const std::shared_ptr<Session>& session) {
  while (!session->busy.load() && !session->closing.load()) {
    auto next = session->parser.Next();
    if (!next.ok()) {
      FailSession(session, next.status());
      return;
    }
    if (!next->has_value()) return;
    frames_received_.fetch_add(1);
    HandleFrame(session, std::move(**next));
  }
}

void ForkBaseServer::HandleFrame(const std::shared_ptr<Session>& session,
                                 Frame frame) {
  if (session->shed) {
    ShedSession(session);
    return;
  }
  if (!session->hello_done) {
    if (frame.verb != Verb::kHello) {
      FailSession(session,
                  Status::Corruption("expected HELLO as the first frame"));
      return;
    }
    Decoder dec{Slice(frame.payload)};
    uint32_t magic = 0;
    uint64_t version = 0;
    if (!dec.GetFixed32(&magic) || magic != kProtocolMagic ||
        !dec.GetVarint64(&version) || !dec.AtEnd()) {
      FailSession(session, Status::Corruption("malformed HELLO"));
      return;
    }
    if (version != kProtocolVersion) {
      FailSession(session, Status::InvalidArgument(
                               "protocol version " + std::to_string(version) +
                               " unsupported; server speaks " +
                               std::to_string(kProtocolVersion)));
      return;
    }
    session->hello_done = true;
    std::string payload;
    PutVarint64(&payload, kProtocolVersion);
    requests_served_.fetch_add(1);
    EnqueueBytes(session, EncodeFrame(Verb::kOk, Slice(payload)));
    return;
  }
  switch (frame.verb) {
    case Verb::kHello:
      FailSession(session, Status::Corruption("duplicate HELLO"));
      return;
    case Verb::kOk:
    case Verb::kError:
      FailSession(session,
                  Status::Corruption("reply verb sent by the client"));
      return;
    case Verb::kBundleBegin:
      // Inline (no reply): arms a fresh streaming importer. Chunks land in
      // the store as their records complete, so staging memory stays
      // bounded and a torn upload keeps what it shipped.
      if (!session->upload_pin) {
        session->upload_pin =
            std::make_unique<ChunkStore::PutPin>(*db_->store());
      }
      session->importer = std::make_unique<BundleImporter>(db_->store(), db_);
      session->bundle_bytes = 0;
      return;
    case Verb::kBundlePart:
      if (!session->importer) {
        FailSession(session,
                    Status::Corruption("BUNDLE_PART outside an upload"));
        return;
      }
      if (session->bundle_bytes + frame.payload.size() >
          options_.max_bundle_bytes) {
        FailSession(session,
                    Status::InvalidArgument(
                        "bundle upload exceeds the " +
                        std::to_string(options_.max_bundle_bytes) +
                        "-byte cap"));
        return;
      }
      break;  // hashing + store writes belong on a worker, not the loop
    default:
      break;
  }
  const int64_t now = NowMillis();
  // kBundlePart is data transfer inside an accepted upload: the ingress
  // byte buckets govern it, and shedding one would tear the upload. The
  // request-level gates apply to everything else headed for a worker.
  if (frame.verb != Verb::kBundlePart) {
    // Probe both buckets before taking from either so a global rejection
    // does not eat a session token.
    const int64_t wait =
        std::max(session->request_bucket.MillisUntil(1, now),
                 global_request_bucket_.MillisUntil(1, now));
    if (wait > 0) {
      requests_rate_limited_.fetch_add(1);
      EnqueueBytes(session,
                   EncodeFrame(Verb::kError,
                               EncodeError(Status::Unavailable(
                                               "request rate limit exceeded"),
                                           static_cast<uint64_t>(wait))));
      return;  // session survives; the client backs off and retries
    }
    session->request_bucket.TryTake(1, now);
    global_request_bucket_.TryTake(1, now);
    // Overload shed: past the high-water mark the honest answer is "not
    // now" — queueing would just grow latency until every client times
    // out.
    if (options_.max_queued_requests > 0 &&
        inflight_requests_.load() >= options_.max_queued_requests) {
      requests_shed_.fetch_add(1);
      EnqueueBytes(
          session,
          EncodeFrame(Verb::kError,
                      EncodeError(Status::Unavailable(
                                      "server overloaded; retry later"),
                                  options_.shed_retry_after_millis)));
      return;
    }
  }
  // Park the session (its later frames stay in the parser) and run against
  // the store on a worker. BUNDLE_PART rides the same path so its hashing
  // never blocks the loop; it simply posts no reply.
  session->busy.store(true);
  session->request_start_millis.store(now);
  inflight_requests_.fetch_add(1);
  pool_.Submit([this, session, frame = std::move(frame)]() mutable {
    ExecuteRequest(session, std::move(frame));
  });
}

void ForkBaseServer::ExecuteRequest(const std::shared_ptr<Session>& session,
                                    Frame frame) {
  if (frame.verb == Verb::kBundlePart) {
    // Streamed upload piece: hash + store writes happen here so the loop
    // thread stays responsive. No reply; an import error fails the session
    // (the client discovers it at its next read).
    session->bundle_bytes += frame.payload.size();
    Status fed;
    {
      // Under the write lease, a put's pin record and its store write are
      // atomic with respect to a sweep's check-and-erase sections — the
      // upload pin alone guards across frames, the lease within one.
      auto lease = db_->AcquireWriteLease();
      fed = session->importer->Feed(Slice(frame.payload));
    }
    AtomicMax(&peak_staged_bytes_, session->importer->pending_bytes());
    if (!fed.ok()) {
      session->importer.reset();
      FailSession(session, fed);
    }
  } else if (frame.verb == Verb::kPullDelta) {
    Decoder dec{Slice(frame.payload)};
    Status status = HandlePullDelta(session, &dec);
    if (!status.ok()) {
      EnqueueBytes(session, EncodeFrame(Verb::kError, EncodeError(status)));
    } else {
      requests_served_.fetch_add(1);
    }
  } else {
    EnqueueBytes(session, HandleRequest(session, frame));
  }
  inflight_requests_.fetch_sub(1);
  session->request_start_millis.store(0);
  session->busy.store(false);
  Wake();
}

std::string ForkBaseServer::HandleRequest(
    const std::shared_ptr<Session>& session, const Frame& frame) {
  Decoder dec{Slice(frame.payload)};
  std::string payload;
  Status status = Status::OK();

  // Shared field parsers for the write verbs.
  Slice key, branch, author, message, value;
  auto parse_put_fields = [&]() {
    return dec.GetLengthPrefixed(&key) && dec.GetLengthPrefixed(&branch) &&
           dec.GetLengthPrefixed(&author) && dec.GetLengthPrefixed(&message) &&
           dec.GetLengthPrefixed(&value);
  };

  switch (frame.verb) {
    case Verb::kGet: {
      if (!dec.GetLengthPrefixed(&key) || !dec.GetLengthPrefixed(&branch) ||
          !dec.AtEnd()) {
        status = Status::Corruption("malformed GET");
        break;
      }
      auto uid = db_->Head(key.ToString(), branch.ToString());
      if (!uid.ok()) {
        status = uid.status();
        break;
      }
      auto got = db_->GetVersion(*uid);
      if (!got.ok()) {
        status = got.status();
        break;
      }
      AppendHash(&payload, *uid);
      PutLengthPrefixed(&payload, Slice(got->ToString()));
      break;
    }
    case Verb::kPut:
    case Verb::kPutBlob: {
      if (!parse_put_fields() || !dec.AtEnd()) {
        status = Status::Corruption("malformed PUT");
        break;
      }
      PutMeta meta{author.ToString(), message.ToString()};
      auto uid = frame.verb == Verb::kPut
                     ? db_->Put(key.ToString(), Value::String(value.ToString()),
                                branch.ToString(), meta)
                     : db_->PutBlob(key.ToString(), value, branch.ToString(),
                                    meta);
      if (!uid.ok()) {
        status = uid.status();
        break;
      }
      AppendHash(&payload, *uid);
      break;
    }
    case Verb::kCommit: {
      Slice flag;
      Hash256 expected;
      bool has_expected = false;
      if (!parse_put_fields() || !dec.GetRaw(1, &flag)) {
        status = Status::Corruption("malformed COMMIT");
        break;
      }
      has_expected = flag[0] != 0;
      if ((has_expected && !GetHash(&dec, &expected)) || !dec.AtEnd()) {
        status = Status::Corruption("malformed COMMIT");
        break;
      }
      PutMeta meta{author.ToString(), message.ToString()};
      auto uid =
          has_expected
              ? db_->PutIf(key.ToString(), Value::String(value.ToString()),
                           expected, branch.ToString(), meta)
              : db_->Put(key.ToString(), Value::String(value.ToString()),
                         branch.ToString(), meta);
      if (!uid.ok()) {
        status = uid.status();
        break;
      }
      AppendHash(&payload, *uid);
      break;
    }
    case Verb::kBranch: {
      Slice new_branch, from;
      if (!dec.GetLengthPrefixed(&key) ||
          !dec.GetLengthPrefixed(&new_branch) ||
          !dec.GetLengthPrefixed(&from) || !dec.AtEnd()) {
        status = Status::Corruption("malformed BRANCH");
        break;
      }
      status = db_->Branch(key.ToString(), new_branch.ToString(),
                           from.ToString());
      break;
    }
    case Verb::kDiff: {
      Slice branch_a, branch_b;
      if (!dec.GetLengthPrefixed(&key) || !dec.GetLengthPrefixed(&branch_a) ||
          !dec.GetLengthPrefixed(&branch_b) || !dec.AtEnd()) {
        status = Status::Corruption("malformed DIFF");
        break;
      }
      auto diff = db_->Diff(key.ToString(), branch_a.ToString(),
                            branch_b.ToString());
      if (!diff.ok()) {
        status = diff.status();
        break;
      }
      PutLengthPrefixed(&payload, Slice(FormatObjectDiff(*diff)));
      break;
    }
    case Verb::kStat: {
      if (!dec.AtEnd()) {
        status = Status::Corruption("malformed STAT");
        break;
      }
      auto kvs = db_->Stat().ToKeyValues();
      // The network edge reports itself alongside the store: the same STAT
      // a client uses for store health carries the hardening counters.
      const Stats net = stats();
      const std::pair<const char*, uint64_t> net_kvs[] = {
          {"net_sessions_accepted", net.sessions_accepted},
          {"net_sessions_closed", net.sessions_closed},
          {"net_frames_received", net.frames_received},
          {"net_requests_served", net.requests_served},
          {"net_protocol_errors", net.protocol_errors},
          {"net_sessions_shed", net.sessions_shed},
          {"net_requests_shed", net.requests_shed},
          {"net_requests_rate_limited", net.requests_rate_limited},
          {"net_deadline_disconnects", net.deadline_disconnects},
          {"net_stall_disconnects", net.stall_disconnects},
          {"net_peak_outbox_bytes", net.peak_outbox_bytes},
          {"net_peak_staged_bytes", net.peak_staged_bytes},
      };
      for (const auto& [k, v] : net_kvs) {
        kvs.emplace_back(k, std::to_string(v));
      }
      PutVarint64(&payload, kvs.size());
      for (const auto& [k, v] : kvs) {
        PutLengthPrefixed(&payload, Slice(k));
        PutLengthPrefixed(&payload, Slice(v));
      }
      break;
    }
    case Verb::kGc: {
      if (!dec.AtEnd()) {
        status = Status::Corruption("malformed GC");
        break;
      }
      // Runs on this worker while other sessions keep committing and
      // pushing: SweepInPlace is safe against racing writers (put pins,
      // upload quarantine, per-batch head re-checks — see store/gc.h).
      auto stats_or = SweepInPlace(db_);
      if (!stats_or.ok()) {
        status = stats_or.status();
        break;
      }
      const GcStats& gc = *stats_or;
      for (uint64_t v : {gc.roots, gc.live_chunks, gc.live_bytes,
                         gc.total_chunks, gc.total_bytes, gc.swept_chunks,
                         gc.swept_bytes, gc.pinned_skipped}) {
        PutVarint64(&payload, v);
      }
      break;
    }
    case Verb::kHeads: {
      if (!dec.AtEnd()) {
        status = Status::Corruption("malformed HEADS");
        break;
      }
      std::string entries;
      uint64_t count = 0;
      for (const auto& k : db_->ListKeys()) {
        auto heads = db_->Latest(k);
        if (!heads.ok()) continue;  // key deleted between List and Latest
        for (const auto& [b, uid] : *heads) {
          PutLengthPrefixed(&entries, Slice(k));
          PutLengthPrefixed(&entries, Slice(b));
          AppendHash(&entries, uid);
          ++count;
        }
      }
      PutVarint64(&payload, count);
      payload.append(entries);
      break;
    }
    case Verb::kOffer: {
      std::vector<Hash256> offered;
      if (!GetHashList(&dec, &offered) || !dec.AtEnd()) {
        status = Status::Corruption("malformed OFFER");
        break;
      }
      // Answering "already have it" is a promise the chunk stays put until
      // the pushed head is published: quarantine the skipped ids in the
      // session pin (and any active sweep's). The lease makes the
      // Contains + PinIds pair atomic against a sweep's erase batches.
      if (!session->upload_pin) {
        session->upload_pin =
            std::make_unique<ChunkStore::PutPin>(*db_->store());
      }
      auto lease = db_->AcquireWriteLease();
      std::vector<Hash256> wanted;
      std::vector<Hash256> present;
      for (const auto& id : offered) {
        if (db_->store()->Contains(id)) {
          present.push_back(id);
        } else {
          wanted.push_back(id);
        }
      }
      db_->store()->PinIds(present);
      AppendHashList(&payload, wanted);
      break;
    }
    case Verb::kBundleEnd: {
      if (!dec.AtEnd() || !session->importer) {
        status = Status::Corruption("BUNDLE_END outside an upload");
        break;
      }
      // Finish may still flush buffered records into the store; same
      // lease rule as BUNDLE_PART.
      auto result = [&] {
        auto lease = db_->AcquireWriteLease();
        return session->importer->Finish();
      }();
      session->importer.reset();
      session->bundle_bytes = 0;
      if (!result.ok()) {
        status = result.status();
        break;
      }
      PutVarint64(&payload, result->chunks);
      PutVarint64(&payload, result->new_chunks);
      PutVarint64(&payload, result->bytes);
      break;
    }
    case Verb::kUpdateHead: {
      status = HandleUpdateHead(&dec, &payload);
      break;
    }
    default:
      status = Status::Unimplemented("verb not handled");
      break;
  }

  if (!status.ok()) {
    return EncodeFrame(Verb::kError, EncodeError(status));
  }
  requests_served_.fetch_add(1);
  return EncodeFrame(Verb::kOk, Slice(payload));
}

Status ForkBaseServer::HandleUpdateHead(Decoder* dec,
                                        std::string* reply_payload) {
  Slice key_raw, branch_raw;
  Hash256 uid;
  if (!dec->GetLengthPrefixed(&key_raw) ||
      !dec->GetLengthPrefixed(&branch_raw) || !GetHash(dec, &uid) ||
      !dec->AtEnd()) {
    return Status::Corruption("malformed UPDATE_HEAD");
  }
  const std::string key = key_raw.ToString();
  const std::string branch = branch_raw.ToString();
  auto meta = db_->Meta(uid);
  if (!meta.ok()) {
    return Status::NotFound(
        "version not present on the server; push its bundle first");
  }
  if (meta->key != key) {
    return Status::InvalidArgument("version belongs to key " + meta->key);
  }
  // The FNode alone proves nothing: an upload that failed its closure check
  // at BUNDLE_END has still landed the chunks it streamed. The head goes
  // live only if what this key's heads do not cover is all present.
  std::vector<Hash256> have;
  if (auto heads = db_->Latest(key); heads.ok()) {
    for (const auto& [head_branch, head_uid] : *heads) have.push_back(head_uid);
  }
  auto closure =
      DeltaClosure(*db_->store(), {uid}, have, db_->commit_graph());
  if (!closure.ok()) {
    return Status::Corruption("closure incomplete: " +
                              closure.status().message());
  }
  for (int attempt = 0; attempt < kUpdateHeadRetries; ++attempt) {
    auto head = db_->Head(key, branch);
    if (!head.ok()) {
      Status created = db_->BranchFromVersion(key, branch, uid);
      if (created.ok()) {
        reply_payload->push_back(1);
        return Status::OK();
      }
      if (created.code() == StatusCode::kAlreadyExists) continue;  // raced
      return created;
    }
    if (*head == uid) {
      reply_payload->push_back(0);  // already there — idempotent push
      return Status::OK();
    }
    auto fast_forward =
        HistoryContains(*db_->store(), db_->commit_graph(), uid, *head);
    if (!fast_forward.ok()) return fast_forward.status();
    if (!*fast_forward) {
      return Status::MergeConflict(
          "remote branch has commits the pushed head does not include; "
          "pull and merge first");
    }
    auto advanced = db_->AdvanceHead(key, branch, *head, uid);
    if (advanced.ok()) {
      reply_payload->push_back(1);
      return Status::OK();
    }
    if (advanced.status().code() != StatusCode::kAlreadyExists) {
      return advanced.status();
    }
    // The head moved while we checked ancestry — re-read and retry.
  }
  return Status::MergeConflict(
      "update-head kept racing concurrent commits; retry");
}

Status ForkBaseServer::HandlePullDelta(
    const std::shared_ptr<Session>& session, Decoder* dec) {
  std::vector<Hash256> want, have;
  if (!GetHashList(dec, &want) || !GetHashList(dec, &have) || !dec->AtEnd()) {
    return Status::Corruption("malformed PULL_DELTA");
  }
  if (want.empty()) {
    return Status::InvalidArgument("PULL_DELTA with no want heads");
  }
  // Stream the delta: frames go to the outbox as the export produces them,
  // so the loop thread writes while the walk is still running and the
  // server never holds a whole bundle for a pull. The bounded enqueue is
  // the backpressure: production pauses (this worker blocks) instead of
  // buffering ahead of a reader that is not keeping up.
  const size_t part_bytes = options_.part_bytes;
  FB_RETURN_IF_ERROR(EnqueueBytesBounded(
      session, EncodeFrame(Verb::kBundleBegin, Slice())));
  std::string buffer;
  auto sink = [&](Slice bytes) -> Status {
    buffer.append(bytes.data(), bytes.size());
    while (buffer.size() >= part_bytes) {
      FB_RETURN_IF_ERROR(EnqueueBytesBounded(
          session, EncodeFrame(Verb::kBundlePart,
                               Slice(buffer.data(), part_bytes))));
      buffer.erase(0, part_bytes);
    }
    return Status::OK();
  };
  FB_ASSIGN_OR_RETURN(
      auto ids, DeltaClosure(*db_->store(), want, have, db_->commit_graph()));
  auto stats = ExportBundle(*db_->store(), want, ids, sink);
  if (!stats.ok()) return stats.status();  // client aborts on the kError
  if (!buffer.empty()) {
    FB_RETURN_IF_ERROR(EnqueueBytesBounded(
        session, EncodeFrame(Verb::kBundlePart, Slice(buffer))));
  }
  std::string end;
  PutVarint64(&end, stats->chunks);
  PutVarint64(&end, stats->bytes);
  FB_RETURN_IF_ERROR(
      EnqueueBytesBounded(session, EncodeFrame(Verb::kBundleEnd, Slice(end))));
  return Status::OK();
}

void ForkBaseServer::EnqueueBytes(const std::shared_ptr<Session>& session,
                                  std::string bytes) {
  {
    std::lock_guard<std::mutex> lock(session->mu);
    // A closing session's socket will never drain; appending would only
    // keep a force-closed outbox alive (and could resurrect one a stall
    // disconnect just cleared).
    if (session->closing.load()) return;
    const bool was_empty = session->outbox.empty();
    session->outbox.append(bytes);
    AtomicMax(&peak_outbox_bytes_, session->outbox.size());
    if (was_empty) {
      // The write-stall clock starts when there is something to deliver.
      session->write_stall_since_millis.store(NowMillis());
    }
  }
  Wake();
}

Status ForkBaseServer::EnqueueBytesBounded(
    const std::shared_ptr<Session>& session, std::string bytes) {
  std::unique_lock<std::mutex> lock(session->mu);
  // `<` not `+ bytes ≤`: a frame larger than the cap must still pass once
  // the outbox is empty, so the true bound is cap + one part.
  session->outbox_cv.wait(lock, [&] {
    return stop_.load() || session->closing.load() ||
           session->outbox.size() < options_.max_outbox_bytes;
  });
  if (stop_.load() || session->closing.load()) {
    return Status::Unavailable("session closed while streaming");
  }
  const bool was_empty = session->outbox.empty();
  session->outbox.append(bytes);
  AtomicMax(&peak_outbox_bytes_, session->outbox.size());
  if (was_empty) session->write_stall_since_millis.store(NowMillis());
  lock.unlock();
  Wake();
  return Status::OK();
}

void ForkBaseServer::FailSession(const std::shared_ptr<Session>& session,
                                 const Status& error) {
  protocol_errors_.fetch_add(1);
  FailSessionWith(session, error);
}

void ForkBaseServer::FailSessionWith(const std::shared_ptr<Session>& session,
                                     const Status& error) {
  EnqueueBytes(session, EncodeFrame(Verb::kError, EncodeError(error)));
  session->closing.store(true);
  session->outbox_cv.notify_all();
}

void ForkBaseServer::ForceClose(const std::shared_ptr<Session>& session) {
  {
    std::lock_guard<std::mutex> lock(session->mu);
    session->closing.store(true);
    session->outbox.clear();
    session->write_stall_since_millis.store(0);
  }
  session->outbox_cv.notify_all();
}

void ForkBaseServer::FlushOutbox(const std::shared_ptr<Session>& session) {
  bool freed_capacity = false;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    while (!session->outbox.empty()) {
      ssize_t n = ::send(session->fd, session->outbox.data(),
                         session->outbox.size(), MSG_NOSIGNAL);
      if (n > 0) {
        session->outbox.erase(0, static_cast<size_t>(n));
        freed_capacity = true;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      // Peer vanished: drop what we cannot deliver and close.
      session->outbox.clear();
      session->closing.store(true);
      freed_capacity = true;  // wake any producer so it sees `closing`
      break;
    }
    // Progress (or empty) resets the stall clock; an outbox the peer is
    // still refusing keeps its original stall start.
    if (session->outbox.empty()) {
      session->write_stall_since_millis.store(0);
    } else if (freed_capacity) {
      session->write_stall_since_millis.store(NowMillis());
    }
  }
  if (freed_capacity) session->outbox_cv.notify_all();
}

void ForkBaseServer::CloseSession(int fd) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(fd);
    if (it == sessions_.end()) return;
    session = it->second;
    sessions_.erase(it);
  }
  ::close(fd);
  sessions_closed_.fetch_add(1);
}

}  // namespace forkbase
