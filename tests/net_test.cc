// Wire-protocol and server front-end tests: frame codec robustness against
// torn/oversized/garbage input, and a loopback ForkBaseServer multiplexing
// concurrent client sessions onto one instance — bit-exact reads, same-branch
// commits linearized through the group-commit queue, and the hardening edge:
// transport deadlines, handshake/idle/request expiry, rate limits with
// retry-after, overload shedding, and bounded-outbox backpressure against a
// reader that stops draining.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "chunk/mem_chunk_store.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/transport.h"
#include "net/wire.h"
#include "store/bundle.h"
#include "store/forkbase.h"
#include "util/random.h"

namespace forkbase {
namespace {

std::string TestAddress(const std::string& name) {
  return "unix:" + ::testing::TempDir() + name + ".sock";
}

// -- Frame codec --------------------------------------------------------------

TEST(FrameTest, TornFramesReassembleByteByByte) {
  std::string wire = EncodeFrame(Verb::kGet, Slice("alpha"));
  wire += EncodeFrame(Verb::kStat, Slice());
  wire += EncodeFrame(Verb::kPut, Slice(std::string(1000, 'x')));

  FrameParser parser;
  std::vector<Frame> frames;
  for (char c : wire) {
    parser.Feed(Slice(&c, 1));
    for (;;) {
      auto next = parser.Next();
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (!next->has_value()) break;
      frames.push_back(std::move(**next));
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].verb, Verb::kGet);
  EXPECT_EQ(frames[0].payload, "alpha");
  EXPECT_EQ(frames[1].verb, Verb::kStat);
  EXPECT_TRUE(frames[1].payload.empty());
  EXPECT_EQ(frames[2].verb, Verb::kPut);
  EXPECT_EQ(frames[2].payload, std::string(1000, 'x'));
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(WireTest, ErrorFrameRetryAfterRoundTrips) {
  std::string payload =
      EncodeError(Status::Unavailable("shedding load"), /*retry_after=*/750);
  uint64_t retry_after = 0;
  Status decoded = DecodeError(Slice(payload), &retry_after);
  EXPECT_EQ(decoded.code(), StatusCode::kUnavailable);
  EXPECT_EQ(retry_after, 750u);
}

// Regression for the varint canonicality fix: an error frame whose
// retry-after trailer is an OVERLONG varint ("\xee\x00" pads 110 to two
// bytes) must not decode to a backoff hint. Before the decoder enforced
// minimal form this parsed as 110 — a hostile peer could steer client
// backoff with bytes PutVarint64 can never emit; now the malformed trailer
// is ignored and the hint stays 0 (the status itself still decodes).
TEST(WireTest, OverlongRetryAfterTrailerIsIgnored) {
  std::string payload = EncodeError(Status::Unavailable("shedding load"));
  payload += std::string("\xee\x00", 2);  // overlong encoding of 110
  uint64_t retry_after = 99;
  Status decoded = DecodeError(Slice(payload), &retry_after);
  EXPECT_EQ(decoded.code(), StatusCode::kUnavailable);
  EXPECT_EQ(retry_after, 0u) << "overlong trailer decoded to a hint";
}

TEST(FrameTest, OversizedDeclarationRejectedBeforeAllocation) {
  // Header declares a payload far over the cap; the parser must reject it
  // from the length alone rather than waiting for (or allocating) 1 GB.
  std::string wire;
  PutFixed32(&wire, (1u << 30) + 1);  // length = 1 + 1 GiB payload
  wire.push_back(static_cast<char>(Verb::kGet));

  FrameParser parser(/*max_payload=*/1 << 20);
  parser.Feed(Slice(wire));
  auto next = parser.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
  // Sticky: the stream is garbage from here on.
  parser.Feed(Slice(EncodeFrame(Verb::kStat, Slice())));
  EXPECT_FALSE(parser.Next().ok());
}

TEST(FrameTest, ZeroLengthAndUnknownVerbAreCorruption) {
  {
    std::string wire;
    PutFixed32(&wire, 0);  // length covers the verb byte; zero is garbage
    FrameParser parser;
    parser.Feed(Slice(wire));
    auto next = parser.Next();
    ASSERT_FALSE(next.ok());
    EXPECT_EQ(next.status().code(), StatusCode::kCorruption);
  }
  {
    std::string wire;
    PutFixed32(&wire, 1);
    wire.push_back(static_cast<char>(0xEE));  // not a Verb
    FrameParser parser;
    parser.Feed(Slice(wire));
    auto next = parser.Next();
    ASSERT_FALSE(next.ok());
    EXPECT_EQ(next.status().code(), StatusCode::kCorruption);
  }
}

TEST(FrameTest, GarbageBytesFailFast) {
  FrameParser parser;
  parser.Feed(Slice("\xff\xff\xff\xff not a frame at all"));
  EXPECT_FALSE(parser.Next().ok());
}

TEST(TransportTest, ParseAddressFamilies) {
  auto unix_ep = ParseAddress("unix:/tmp/x.sock");
  ASSERT_TRUE(unix_ep.ok());
  EXPECT_EQ(unix_ep->kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(unix_ep->path, "/tmp/x.sock");

  auto tcp_ep = ParseAddress("tcp:localhost:7878");
  ASSERT_TRUE(tcp_ep.ok());
  EXPECT_EQ(tcp_ep->kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp_ep->host, "localhost");
  EXPECT_EQ(tcp_ep->port, 7878);

  EXPECT_TRUE(IsNetworkAddress("tcp:h:1"));
  EXPECT_TRUE(IsNetworkAddress("unix:/p"));
  EXPECT_FALSE(IsNetworkAddress("bundle.bin"));
  EXPECT_FALSE(ParseAddress("tcp:no-port").ok());
  EXPECT_FALSE(ParseAddress("tcp:h:notanumber").ok());
  EXPECT_FALSE(ParseAddress("ftp:whatever").ok());
}

// -- Loopback server ----------------------------------------------------------

TEST(ServerTest, RoundTripAndErrors) {
  ForkBase db(std::make_shared<MemChunkStore>());
  auto server = ForkBaseServer::Start(&db, TestAddress("rt"));
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto client = ForkBaseClient::Connect((*server)->address());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto uid = client->Put("greeting", "hello", "master", "alice", "v1");
  ASSERT_TRUE(uid.ok()) << uid.status().ToString();
  auto got = client->Get("greeting", "master");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "hello");
  EXPECT_EQ(got->uid, *uid);
  // The server and the embedded instance are the same database.
  auto local = db.Get("greeting");
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->ToString(), "hello");

  // Errors travel back as their Status.
  auto missing = client->Get("no-such-key", "master");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // Conditional commit: a stale expected head is kAlreadyExists.
  Hash256 stale{};
  auto conflicted =
      client->Commit("greeting", "clobber", "master", "bob", "v2", &stale);
  EXPECT_EQ(conflicted.status().code(), StatusCode::kAlreadyExists);

  auto kvs = client->Stat();
  ASSERT_TRUE(kvs.ok());
  bool saw_keys = false;
  for (const auto& [k, v] : *kvs) {
    if (k == "keys") {
      saw_keys = true;
      EXPECT_EQ(v, "1");
    }
  }
  EXPECT_TRUE(saw_keys);
  (*server)->Stop();
}

TEST(ServerTest, HostileNamesPutOverTheWireSurviveReopen) {
  // The server persists nothing itself: a PUT's head is in the store's head
  // log before the reply, whatever bytes its key and branch hold.
  const std::string dir = ::testing::TempDir() + "/fb_net_hostile_names";
  std::filesystem::remove_all(dir);
  const std::string key = std::string("k\t\n\0ey", 6);
  const std::string branch = std::string("b\n\0\t", 4);
  Hash256 uid;
  {
    auto db = ForkBase::Open(dir);
    ASSERT_TRUE(db.ok());
    auto server = ForkBaseServer::Start(db->get(), TestAddress("hostile"));
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = ForkBaseClient::Connect((*server)->address());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto put = client->Put(key, "value", branch, "alice", "hostile names");
    ASSERT_TRUE(put.ok()) << put.status().ToString();
    uid = *put;
    (*server)->Stop();
  }
  auto db = ForkBase::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto head = (*db)->Head(key, branch);
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_EQ(*head, uid);
  EXPECT_EQ((*db)->Get(key, branch)->ToString(), "value");
  db->reset();
  std::filesystem::remove_all(dir);
}

TEST(ServerTest, EightConcurrentSessionsBitExact) {
  ForkBase db(std::make_shared<MemChunkStore>());
  auto server = ForkBaseServer::Start(&db, TestAddress("conc"));
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  constexpr int kThreads = 8;
  constexpr int kCommits = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      auto client = ForkBaseClient::Connect((*server)->address());
      if (!client.ok()) {
        ++failures;
        return;
      }
      const std::string key = "k" + std::to_string(t);
      std::string last;
      for (int c = 0; c < kCommits; ++c) {
        last = "v" + std::to_string(t) + "-" + std::to_string(c) +
               std::string(2048, static_cast<char>('a' + t));
        auto uid = client->Put(key, last, "master", "t", "c");
        if (!uid.ok()) {
          ++failures;
          return;
        }
        auto got = client->Get(key, "master");
        if (!got.ok() || got->value != last || got->uid != *uid) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  for (int t = 0; t < kThreads; ++t) {
    auto history = db.History("k" + std::to_string(t));
    ASSERT_TRUE(history.ok());
    EXPECT_EQ(history->size(), static_cast<size_t>(kCommits));
  }
  auto stats = (*server)->stats();
  EXPECT_EQ(stats.sessions_accepted, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.protocol_errors, 0u);
  (*server)->Stop();
}

TEST(ServerTest, SameBranchCommitsLinearizedNotLost) {
  ForkBase db(std::make_shared<MemChunkStore>());
  auto server = ForkBaseServer::Start(&db, TestAddress("linear"));
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  constexpr int kThreads = 8;
  constexpr int kCommits = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      auto client = ForkBaseClient::Connect((*server)->address());
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int c = 0; c < kCommits; ++c) {
        const std::string tag =
            "t" + std::to_string(t) + "-c" + std::to_string(c);
        auto uid = client->Put("shared", tag, "master", "t", tag);
        if (!uid.ok()) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Every commit chained onto one first-parent history: none lost, none
  // forked away, and each session's own commits appear in its issue order.
  auto history = db.History("shared");
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->size(), static_cast<size_t>(kThreads * kCommits));
  std::reverse(history->begin(), history->end());  // oldest first
  std::vector<int> next_commit(kThreads, 0);
  for (const auto& info : *history) {
    ASSERT_EQ(info.message[0], 't');
    const size_t dash = info.message.find("-c");
    ASSERT_NE(dash, std::string::npos);
    const int t = std::stoi(info.message.substr(1, dash - 1));
    const int c = std::stoi(info.message.substr(dash + 2));
    EXPECT_EQ(c, next_commit[t]) << "reordered commits from session " << t;
    next_commit[t] = c + 1;
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(next_commit[t], kCommits);
  (*server)->Stop();
}

TEST(ServerTest, GarbageSessionDoesNotDisturbOthers) {
  ForkBase db(std::make_shared<MemChunkStore>());
  auto server = ForkBaseServer::Start(&db, TestAddress("garbage"));
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto good = ForkBaseClient::Connect((*server)->address());
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(good->Put("k", "v", "master", "a", "m").ok());

  {
    // A session that speaks garbage gets an error frame and the boot.
    auto raw = SocketStream::Connect((*server)->address());
    ASSERT_TRUE(raw.ok());
    ASSERT_TRUE((*raw)->WriteAll(Slice("\xff\xff\xff\xffgarbage")).ok());
    auto reply = ReadFrame(raw->get());
    if (reply.ok()) {
      EXPECT_EQ(reply->verb, Verb::kError);
      // And then EOF: the server hangs up.
      char byte;
      auto eof = (*raw)->ReadSome(&byte, 1);
      EXPECT_TRUE(eof.ok() && *eof == 0);
    }  // an IOError here just means the server closed first — also fine
  }
  {
    // A frame-shaped session that skips the HELLO is rejected too.
    auto raw = SocketStream::Connect((*server)->address());
    ASSERT_TRUE(raw.ok());
    ASSERT_TRUE(WriteFrame(raw->get(), Verb::kStat, Slice()).ok());
    auto reply = ReadFrame(raw->get());
    if (reply.ok()) EXPECT_EQ(reply->verb, Verb::kError);
  }

  // The well-behaved session is unaffected.
  auto got = good->Get("k", "master");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v");
  EXPECT_GE((*server)->stats().protocol_errors, 1u);
  (*server)->Stop();
}

// -- Transport deadlines ------------------------------------------------------

TEST(TransportTest, ReadDeadlineFiresOnSilentPeer) {
  std::string bound;
  auto listen_fd = ListenOn(TestAddress("read-dl"), &bound);
  ASSERT_TRUE(listen_fd.ok()) << listen_fd.status().ToString();
  auto stream = SocketStream::Connect(bound);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  (*stream)->SetIoTimeout(80);
  char byte;
  auto n = (*stream)->ReadSome(&byte, 1);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), StatusCode::kDeadlineExceeded);
  ::close(*listen_fd);
}

TEST(TransportTest, WriteDeadlineFiresOnStalledReader) {
  std::string bound;
  auto listen_fd = ListenOn(TestAddress("write-dl"), &bound);
  ASSERT_TRUE(listen_fd.ok());
  auto stream = SocketStream::Connect(bound);
  ASSERT_TRUE(stream.ok());
  (*stream)->SetIoTimeout(80);
  // Nobody ever accepts or reads: the socket buffers fill, then the
  // deadline converts the stall into an error instead of a hung writer.
  const std::string block(1 << 20, 'x');
  Status status = Status::OK();
  for (int i = 0; i < 64 && status.ok(); ++i) {
    status = (*stream)->WriteAll(Slice(block));
  }
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  ::close(*listen_fd);
}

// -- Server deadlines ---------------------------------------------------------

TEST(ServerTest, HandshakeDeadlineDropsSilentConnections) {
  ForkBase db(std::make_shared<MemChunkStore>());
  ForkBaseServer::Options options;
  options.handshake_timeout_millis = 100;
  auto server = ForkBaseServer::Start(&db, TestAddress("hs-dl"), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Connect and never speak. The server must not let the connection hold a
  // pre-HELLO slot forever: it answers with a deadline error and hangs up.
  auto raw = SocketStream::Connect((*server)->address());
  ASSERT_TRUE(raw.ok());
  (*raw)->SetIoTimeout(2'000);
  auto reply = ReadFrame(raw->get());
  if (reply.ok()) {
    ASSERT_EQ(reply->verb, Verb::kError);
    EXPECT_EQ(DecodeError(Slice(reply->payload)).code(),
              StatusCode::kDeadlineExceeded);
    char byte;
    auto eof = (*raw)->ReadSome(&byte, 1);
    EXPECT_TRUE(eof.ok() && *eof == 0);
  }  // an IOError just means the close beat the error frame — also fine

  // A client that does handshake promptly is unaffected.
  auto client = ForkBaseClient::Connect((*server)->address());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto stats = (*server)->stats();
  EXPECT_GE(stats.deadline_disconnects, 1u);
  EXPECT_GE(stats.sessions_closed, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u)
      << "a server-imposed deadline is not the client's protocol error";
  (*server)->Stop();
}

TEST(ServerTest, IdleDeadlineClosesQuietSessions) {
  ForkBase db(std::make_shared<MemChunkStore>());
  ForkBaseServer::Options options;
  options.idle_timeout_millis = 100;
  auto server = ForkBaseServer::Start(&db, TestAddress("idle-dl"), options);
  ASSERT_TRUE(server.ok());

  auto client = ForkBaseClient::Connect((*server)->address());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Put("k", "v", "master", "a", "m").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_FALSE(client->Stat().ok()) << "the idle session should be gone";
  EXPECT_GE((*server)->stats().deadline_disconnects, 1u);
  (*server)->Stop();
}

// MemChunkStore whose reads stall long enough to trip a request deadline.
class SlowGetStore : public MemChunkStore {
 public:
  StatusOr<Chunk> Get(const Hash256& id) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    return MemChunkStore::Get(id);
  }
};

TEST(ServerTest, RequestDeadlineDisconnectsTheWaitingClient) {
  auto store = std::make_shared<SlowGetStore>();
  ForkBase db(store);
  ASSERT_TRUE(db.Put("k", Value::String("v"), "master", {"a", "m"}).ok());

  ForkBaseServer::Options options;
  options.request_timeout_millis = 100;
  auto server = ForkBaseServer::Start(&db, TestAddress("req-dl"), options);
  ASSERT_TRUE(server.ok());

  auto client = ForkBaseClient::Connect((*server)->address());
  ASSERT_TRUE(client.ok());
  // The GET parks a worker in the slow store; the poll loop's deadline
  // sweep fails the session long before the store wakes up.
  auto got = client->Get("k", "master");
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().code() == StatusCode::kDeadlineExceeded ||
              got.status().code() == StatusCode::kIOError)
      << got.status().ToString();
  EXPECT_GE((*server)->stats().deadline_disconnects, 1u);

  // The server survives the abandoned worker and keeps serving.
  auto probe = ForkBaseClient::Connect((*server)->address());
  ASSERT_TRUE(probe.ok());
  EXPECT_TRUE(probe->Heads().ok());
  (*server)->Stop();
}

// -- Rate limiting and shedding ----------------------------------------------

TEST(ServerTest, SessionRateLimitRejectsWithRetryAfterThenRecovers) {
  ForkBase db(std::make_shared<MemChunkStore>());
  ForkBaseServer::Options options;
  options.session_requests_per_sec = 2;  // burst 4
  auto server = ForkBaseServer::Start(&db, TestAddress("rps"), options);
  ASSERT_TRUE(server.ok());

  auto client = ForkBaseClient::Connect((*server)->address());
  ASSERT_TRUE(client.ok());
  int accepted = 0;
  Status limited = Status::OK();
  for (int i = 0; i < 12 && limited.ok(); ++i) {
    auto uid = client->Put("k", "v" + std::to_string(i), "master", "a", "m");
    if (uid.ok()) {
      ++accepted;
    } else {
      limited = uid.status();
    }
  }
  ASSERT_FALSE(limited.ok()) << "the bucket never ran dry";
  EXPECT_EQ(limited.code(), StatusCode::kUnavailable);
  EXPECT_GE(accepted, 1);
  const uint64_t hint = client->last_retry_after_millis();
  EXPECT_GT(hint, 0u) << "a rate-limit rejection must carry retry-after";

  // The session survived the rejection; honoring the hint succeeds.
  std::this_thread::sleep_for(std::chrono::milliseconds(hint + 200));
  EXPECT_TRUE(client->Put("k", "again", "master", "a", "m").ok());
  EXPECT_GE((*server)->stats().requests_rate_limited, 1u);
  (*server)->Stop();
}

TEST(ServerTest, SessionCapShedsNewConnectionsGracefully) {
  ForkBase db(std::make_shared<MemChunkStore>());
  ForkBaseServer::Options options;
  options.max_sessions = 1;
  options.shed_retry_after_millis = 250;
  auto server = ForkBaseServer::Start(&db, TestAddress("cap"), options);
  ASSERT_TRUE(server.ok());

  auto first = ForkBaseClient::Connect((*server)->address());
  ASSERT_TRUE(first.ok());
  // Past the cap: the handshake round trip reads a structured shed error,
  // not a refused or silently hung connection.
  auto second = ForkBaseClient::Connect((*server)->address());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ((*server)->stats().sessions_shed, 1u);

  // The admitted session is unharmed.
  EXPECT_TRUE(first->Put("k", "v", "master", "a", "m").ok());
  (*server)->Stop();
}

TEST(ServerTest, SessionCapShedReplyAnswersEveryHello) {
  // The shed reply answers the HELLO instead of racing it: were the session
  // closed before its HELLO arrived, the client's write could fail and the
  // connect would report an I/O error instead of the structured shed.
  ForkBase db(std::make_shared<MemChunkStore>());
  ForkBaseServer::Options options;
  options.max_sessions = 1;
  options.shed_retry_after_millis = 250;
  auto server = ForkBaseServer::Start(&db, TestAddress("cap-loop"), options);
  ASSERT_TRUE(server.ok());
  auto first = ForkBaseClient::Connect((*server)->address());
  ASSERT_TRUE(first.ok());
  constexpr int kAttempts = 200;
  for (int i = 0; i < kAttempts; ++i) {
    auto extra = ForkBaseClient::Connect((*server)->address());
    ASSERT_FALSE(extra.ok()) << "attempt " << i;
    ASSERT_EQ(extra.status().code(), StatusCode::kUnavailable)
        << "attempt " << i << ": " << extra.status().ToString();
  }
  EXPECT_EQ((*server)->stats().sessions_shed, uint64_t{kAttempts});
  EXPECT_TRUE(first->Put("k", "v", "master", "a", "m").ok());
  (*server)->Stop();
}

TEST(ServerTest, IngressLimitedUploadCompletes) {
  ForkBase db(std::make_shared<MemChunkStore>());
  ForkBaseServer::Options options;
  options.session_ingress_bytes_per_sec = 128 * 1024;  // burst 256 KiB
  auto server = ForkBaseServer::Start(&db, TestAddress("ingress"), options);
  ASSERT_TRUE(server.ok());

  auto client = ForkBaseClient::Connect((*server)->address());
  ASSERT_TRUE(client.ok());
  Rng rng(99);
  std::string blob(384u << 10, '\0');
  for (auto& c : blob) c = static_cast<char>(rng.Uniform(256));

  // 384 KiB against a 256 KiB burst: the read pause must throttle the tail
  // at the configured rate — slower, but never failed or disconnected.
  const auto start = std::chrono::steady_clock::now();
  auto uid = client->PutBlob("big", Slice(blob), "master", "a", "m");
  ASSERT_TRUE(uid.ok()) << uid.status().ToString();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 400) << "the deficit should have been paced out";
  EXPECT_EQ(*db.GetBlob("big")->ReadAll(), blob);
  (*server)->Stop();
}

TEST(ServerTest, HostileBundleUploadFailsItsSessionNotTheServer) {
  // One v3 record whose LZ header claims 2^62 output bytes: the importer
  // must refuse the claim before sizing a buffer for it.
  std::string body;
  PutVarint64(&body, uint64_t{1} << 62);
  PutVarint64(&body, 1u << 1);
  body.push_back('x');
  std::string bundle;
  PutFixed32(&bundle, 0x46424433);  // "FBD3"
  PutVarint64(&bundle, 1);
  const Hash256 head = Sha256(Slice("head"));
  bundle.append(reinterpret_cast<const char*>(head.bytes.data()), 32);
  PutVarint64(&bundle, 1);
  PutVarint64(&bundle, body.size());
  bundle.push_back(1);  // LZ block
  bundle.append(body);

  ForkBase db(std::make_shared<MemChunkStore>());
  auto server = ForkBaseServer::Start(&db, TestAddress("hostile_bundle"));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  {
    auto client = ForkBaseClient::Connect((*server)->address());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->BeginBundle().ok());
    ASSERT_TRUE(client->SendBundlePart(Slice(bundle)).ok());
    auto ended = client->EndBundle();
    ASSERT_FALSE(ended.ok());
  }
  EXPECT_GE((*server)->stats().protocol_errors, 1u);

  // The server lives on and serves the next request.
  auto client = ForkBaseClient::Connect((*server)->address());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto uid = client->Put("after", "still serving", "master", "a", "m");
  ASSERT_TRUE(uid.ok()) << uid.status().ToString();
  auto got = client->Get("after", "master");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "still serving");
  (*server)->Stop();
}

// -- Backpressure acceptance --------------------------------------------------

TEST(ServerTest, SlowPullReaderIsBoundedAndDisconnectedWhileOthersServe) {
  ForkBase db(std::make_shared<MemChunkStore>());
  // ~4 MiB of incompressible blob: pulling its closure must flow through
  // the bounded outbox rather than pile up server-side.
  Rng rng(1234);
  std::string blob(4u << 20, '\0');
  for (auto& c : blob) c = static_cast<char>(rng.Uniform(256));
  ASSERT_TRUE(db.PutBlob("blob", Slice(blob)).ok());
  auto head = db.Head("blob");
  ASSERT_TRUE(head.ok());

  constexpr uint64_t kOutboxCap = 256u << 10;
  constexpr size_t kPartBytes = 64u << 10;
  ForkBaseServer::Options options;
  options.max_outbox_bytes = kOutboxCap;
  options.part_bytes = kPartBytes;
  options.write_stall_timeout_millis = 300;
  auto server = ForkBaseServer::Start(&db, TestAddress("stall"), options);
  ASSERT_TRUE(server.ok());

  // The stalled reader: handshake, request the whole closure, read nothing.
  auto stalled = SocketStream::Connect((*server)->address());
  ASSERT_TRUE(stalled.ok());
  {
    std::string payload;
    PutFixed32(&payload, kProtocolMagic);
    PutVarint64(&payload, kProtocolVersion);
    ASSERT_TRUE(WriteFrame(stalled->get(), Verb::kHello, Slice(payload)).ok());
    auto reply = ReadFrame(stalled->get());
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->verb, Verb::kOk);
  }
  {
    std::string payload;
    AppendHashList(&payload, {*head});
    AppendHashList(&payload, {});
    ASSERT_TRUE(
        WriteFrame(stalled->get(), Verb::kPullDelta, Slice(payload)).ok());
  }

  // Eight healthy sessions pull the same closure bit-exact meanwhile.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&]() {
      auto client = ForkBaseClient::Connect((*server)->address());
      if (!client.ok()) {
        ++failures;
        return;
      }
      auto delta = client->PullDelta({*head}, {});
      if (!delta.ok()) {
        ++failures;
        return;
      }
      // Importing re-verifies every chunk hash: bit-exact or it fails.
      MemChunkStore scratch;
      auto imported = ImportBundle(Slice(delta->bundle), &scratch);
      if (!imported.ok() || imported->head != *head) ++failures;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // The stalled session gets force-closed by the write-stall deadline...
  for (int i = 0; i < 100 && (*server)->stats().stall_disconnects == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  auto stats = (*server)->stats();
  EXPECT_EQ(stats.stall_disconnects, 1u);
  // ...and per-session buffering stayed bounded throughout: at most the cap
  // plus one in-flight part (and its frame header) of overshoot — not the
  // 4 MiB closure.
  EXPECT_LE(stats.peak_outbox_bytes, kOutboxCap + kPartBytes + 64);
  (*server)->Stop();
}

TEST(ServerTest, StopIsIdempotentAndUnlinksSocket) {
  ForkBase db(std::make_shared<MemChunkStore>());
  const std::string address = TestAddress("stop");
  auto server = ForkBaseServer::Start(&db, address);
  ASSERT_TRUE(server.ok());
  (*server)->Stop();
  (*server)->Stop();
  // The socket file is gone, so a fresh server can bind the same address.
  auto again = ForkBaseServer::Start(&db, address);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  (*again)->Stop();
}

}  // namespace
}  // namespace forkbase
