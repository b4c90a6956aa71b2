// Instance-to-instance sync tests: two ForkBase instances converging through
// SyncPush/SyncPull over a loopback server — the acceptance scenario (100
// versions across 3 branches, delta-exact second sync) plus convergence
// under a seeded FaultSchedule injected into the client transport.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "chunk/mem_chunk_store.h"
#include "net/client.h"
#include "net/server.h"
#include "net/sync.h"
#include "net/transport.h"
#include "store/bundle.h"
#include "store/commit_graph.h"
#include "store/forkbase.h"
#include "testing/fault_schedule.h"
#include "util/datagen.h"
#include "util/random.h"

namespace forkbase {
namespace {

std::string TestAddress(const std::string& name) {
  return "unix:" + ::testing::TempDir() + name + ".sock";
}

// Records every chunk id read, to pin how much a walk loads.
class CountingStore : public MemChunkStore {
 public:
  StatusOr<Chunk> Get(const Hash256& id) const override {
    Record({&id, 1});
    return MemChunkStore::Get(id);
  }
  std::vector<StatusOr<Chunk>> GetMany(
      std::span<const Hash256> ids) const override {
    Record(ids);
    return MemChunkStore::GetMany(ids);
  }
  std::vector<Hash256> TakeLoaded() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(loaded_, {});
  }

 private:
  void Record(std::span<const Hash256> ids) const {
    std::lock_guard<std::mutex> lock(mu_);
    loaded_.insert(loaded_.end(), ids.begin(), ids.end());
  }
  mutable std::mutex mu_;
  mutable std::vector<Hash256> loaded_;
};

// Commits `n` string versions on (key, branch).
void CommitVersions(ForkBase* db, const std::string& key,
                    const std::string& branch, const std::string& tag,
                    int n) {
  for (int i = 0; i < n; ++i) {
    auto uid = db->Put(key,
                       Value::String(tag + "-" + std::to_string(i) +
                                     std::string(512, 'p')),
                       branch, {"sync-test", tag + std::to_string(i)});
    ASSERT_TRUE(uid.ok()) << uid.status().ToString();
  }
}

// Asserts every branch head of `key` is bit-exact between the instances:
// same uid (content-addressed, so same bytes), same value, same history.
void ExpectConverged(ForkBase* a, ForkBase* b, const std::string& key) {
  auto a_heads = a->Latest(key);
  auto b_heads = b->Latest(key);
  ASSERT_TRUE(a_heads.ok() && b_heads.ok());
  ASSERT_EQ(a_heads->size(), b_heads->size());
  for (size_t i = 0; i < a_heads->size(); ++i) {
    EXPECT_EQ((*a_heads)[i].first, (*b_heads)[i].first);
    EXPECT_EQ((*a_heads)[i].second, (*b_heads)[i].second);
    const std::string& branch = (*a_heads)[i].first;
    auto a_value = a->Get(key, branch);
    auto b_value = b->Get(key, branch);
    ASSERT_TRUE(a_value.ok() && b_value.ok());
    EXPECT_EQ(a_value->ToString(), b_value->ToString());
    auto a_history = a->History(key, branch);
    auto b_history = b->History(key, branch);
    ASSERT_TRUE(a_history.ok() && b_history.ok());
    ASSERT_EQ(a_history->size(), b_history->size());
    for (size_t j = 0; j < a_history->size(); ++j) {
      EXPECT_EQ((*a_history)[j].uid, (*b_history)[j].uid);
    }
    EXPECT_TRUE(b->Verify((*b_heads)[i].second).ok());
  }
}

TEST(SyncTest, TwoInstanceAcceptance) {
  // Instance A: 100 versions across 3 branches of one key.
  ForkBase a(std::make_shared<MemChunkStore>());
  CommitVersions(&a, "doc", "master", "m", 40);
  ASSERT_TRUE(a.Branch("doc", "dev", "master").ok());
  CommitVersions(&a, "doc", "dev", "d", 30);
  ASSERT_TRUE(a.Branch("doc", "exp", "dev").ok());
  CommitVersions(&a, "doc", "exp", "e", 30);

  // Instance B: empty, served.
  ForkBase b(std::make_shared<MemChunkStore>());
  auto server = ForkBaseServer::Start(&b, TestAddress("accept"));
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Push everything into the empty peer.
  auto client = ForkBaseClient::Connect((*server)->address());
  ASSERT_TRUE(client.ok());
  auto first = SyncPush(&a, &*client);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->branches_considered, 3u);
  EXPECT_EQ(first->branches_updated, 3u);
  EXPECT_EQ(first->branches_conflicted, 0u);
  EXPECT_GE(first->chunks_sent, 100u);  // one FNode per version at least
  EXPECT_EQ(first->chunks_sent, first->remote_new_chunks)
      << "an empty peer lacks everything offered";
  ExpectConverged(&a, &b, "doc");

  // A keeps committing; the second push ships ONLY the new chunks.
  CommitVersions(&a, "doc", "master", "m2", 5);
  auto second = SyncPush(&a, &*client);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->branches_updated, 1u);
  EXPECT_EQ(second->branches_skipped, 2u);
  EXPECT_GT(second->chunks_sent, 0u);
  EXPECT_LT(second->chunks_sent, first->chunks_sent / 4);
  EXPECT_EQ(second->chunks_sent, second->remote_new_chunks)
      << "negotiation shipped something the peer already had";
  ExpectConverged(&a, &b, "doc");

  // An idempotent third push moves nothing.
  auto third = SyncPush(&a, &*client);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->branches_updated, 0u);
  EXPECT_EQ(third->branches_skipped, 3u);
  EXPECT_EQ(third->chunks_sent, 0u);

  // Instance C pulls the same state down from B's server, then pulls a
  // later delta after B advances (via another push from A).
  ForkBase c(std::make_shared<MemChunkStore>());
  auto c_client = ForkBaseClient::Connect((*server)->address());
  ASSERT_TRUE(c_client.ok());
  auto pull = SyncPull(&c, &*c_client);
  ASSERT_TRUE(pull.ok()) << pull.status().ToString();
  EXPECT_EQ(pull->branches_updated, 3u);
  EXPECT_GE(pull->chunks_received, 100u);
  ExpectConverged(&b, &c, "doc");

  CommitVersions(&a, "doc", "dev", "d2", 4);
  ASSERT_TRUE(SyncPush(&a, &*client).ok());
  auto delta_pull = SyncPull(&c, &*c_client);
  ASSERT_TRUE(delta_pull.ok()) << delta_pull.status().ToString();
  EXPECT_EQ(delta_pull->branches_updated, 1u);
  EXPECT_GT(delta_pull->chunks_received, 0u);
  EXPECT_LT(delta_pull->chunks_received, pull->chunks_received / 4);
  EXPECT_EQ(delta_pull->chunks_received, delta_pull->remote_new_chunks)
      << "the server's delta carried chunks this instance already had";
  ExpectConverged(&a, &c, "doc");
  (*server)->Stop();
}

TEST(SyncTest, DivergedBranchConflictsWithoutClobbering) {
  ForkBase a(std::make_shared<MemChunkStore>());
  ForkBase b(std::make_shared<MemChunkStore>());
  CommitVersions(&a, "doc", "master", "base", 3);

  auto server = ForkBaseServer::Start(&b, TestAddress("diverge"));
  ASSERT_TRUE(server.ok());
  auto client = ForkBaseClient::Connect((*server)->address());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(SyncPush(&a, &*client).ok());

  // Both sides commit independently: no longer a fast-forward.
  CommitVersions(&a, "doc", "master", "a-side", 2);
  CommitVersions(&b, "doc", "master", "b-side", 2);
  auto b_head = b.Head("doc");
  ASSERT_TRUE(b_head.ok());

  auto push = SyncPush(&a, &*client);
  ASSERT_TRUE(push.ok()) << push.status().ToString();
  EXPECT_EQ(push->branches_conflicted, 1u);
  EXPECT_EQ(push->branches_updated, 0u);
  // B's head is untouched; A's chunks still landed for a future merge.
  EXPECT_EQ(*b.Head("doc"), *b_head);

  auto pull = SyncPull(&a, &*client);
  ASSERT_TRUE(pull.ok());
  EXPECT_EQ(pull->branches_conflicted, 1u);
  ASSERT_TRUE(a.Head("doc").ok());
  (*server)->Stop();
}

// ByteStream decorator driving a FaultSchedule: writes consult kPut, reads
// consult kGet. kTransient fails the call; kShortRead hangs up the socket
// (the peer sees a torn frame / early EOF mid-conversation); kStall models a
// deadline firing on a peer that stopped moving bytes; kDisconnectMidFrame
// lets half a frame escape before the connection drops (the peer sees a torn
// frame, this side an I/O error); kSlowDrip trickles one byte per read.
class FaultyStream : public ByteStream {
 public:
  FaultyStream(std::unique_ptr<ByteStream> inner, FaultSchedule* faults)
      : inner_(std::move(inner)), faults_(faults) {}

  Status WriteAll(Slice bytes) override {
    if (auto fault = faults_->Draw(FaultSchedule::Op::kPut)) {
      switch (fault->kind) {
        case FaultSchedule::Kind::kStall:
          inner_->Close();
          return Status::DeadlineExceeded("injected write stall");
        case FaultSchedule::Kind::kDisconnectMidFrame:
          (void)inner_->WriteAll(Slice(bytes.data(), bytes.size() / 2));
          inner_->Close();
          return Status::IOError("injected disconnect mid-frame");
        default:
          inner_->Close();
          return Status::IOError("injected transport write fault");
      }
    }
    return inner_->WriteAll(bytes);
  }

  StatusOr<size_t> ReadSome(char* buf, size_t cap) override {
    if (auto fault = faults_->Draw(FaultSchedule::Op::kGet)) {
      switch (fault->kind) {
        case FaultSchedule::Kind::kShortRead:
          inner_->Close();
          return static_cast<size_t>(0);  // premature EOF
        case FaultSchedule::Kind::kStall:
          inner_->Close();
          return Status::DeadlineExceeded("injected read stall");
        case FaultSchedule::Kind::kSlowDrip:
          return inner_->ReadSome(buf, std::min<size_t>(cap, 1));
        default:
          inner_->Close();
          return Status::IOError("injected transport read fault");
      }
    }
    return inner_->ReadSome(buf, cap);
  }

  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<ByteStream> inner_;
  FaultSchedule* const faults_;
};

TEST(SyncTest, PushAndPullConvergeUnderTransportFaults) {
  ForkBase a(std::make_shared<MemChunkStore>());
  CommitVersions(&a, "doc", "master", "m", 20);
  ASSERT_TRUE(a.Branch("doc", "dev", "master").ok());
  CommitVersions(&a, "doc", "dev", "d", 10);

  ForkBase b(std::make_shared<MemChunkStore>());
  auto server = ForkBaseServer::Start(&b, TestAddress("faulty"));
  ASSERT_TRUE(server.ok());

  // Seeded probabilistic faults on both directions of the client's stream:
  // every run draws the same fault sequence.
  FaultSchedule faults;
  faults.SetProbability(FaultSchedule::Op::kPut, 0.04,
                        {FaultSchedule::Kind::kTransient}, /*seed=*/7);
  faults.SetProbability(FaultSchedule::Op::kGet, 0.04,
                        {FaultSchedule::Kind::kTransient,
                         FaultSchedule::Kind::kShortRead},
                        /*seed=*/9);

  // Each attempt reconnects (a failed stream is dead) and retries the sync
  // from negotiation: the protocol is idempotent, so partial uploads from
  // torn attempts never corrupt the peer, only get completed.
  auto sync_with_retries = [&](ForkBase* db, bool push) -> SyncStats {
    for (int attempt = 0; attempt < 200; ++attempt) {
      auto raw = SocketStream::Connect((*server)->address());
      if (!raw.ok()) continue;
      auto client = ForkBaseClient::Attach(
          std::make_unique<FaultyStream>(std::move(*raw), &faults));
      if (!client.ok()) continue;  // handshake hit a fault
      auto stats = push ? SyncPush(db, &*client) : SyncPull(db, &*client);
      if (stats.ok()) return *stats;
    }
    ADD_FAILURE() << "sync never survived the fault schedule";
    return SyncStats{};
  };

  SyncStats push_stats = sync_with_retries(&a, /*push=*/true);
  EXPECT_EQ(push_stats.branches_conflicted, 0u);
  ExpectConverged(&a, &b, "doc");

  // Pull direction into a third instance through the same faulty pipe.
  ForkBase c(std::make_shared<MemChunkStore>());
  SyncStats pull_stats = sync_with_retries(&c, /*push=*/false);
  EXPECT_EQ(pull_stats.branches_conflicted, 0u);
  ExpectConverged(&a, &c, "doc");

  EXPECT_GT(faults.injected_count(), 0u)
      << "the schedule never fired; the test proved nothing";
  // The server outlived every torn session.
  auto probe = ForkBaseClient::Connect((*server)->address());
  ASSERT_TRUE(probe.ok());
  EXPECT_TRUE(probe->Heads().ok());
  (*server)->Stop();
}

// -- SyncWithRetry ------------------------------------------------------------

TEST(SyncTest, SyncWithRetryResumesATornPush) {
  ForkBase a(std::make_shared<MemChunkStore>());
  CommitVersions(&a, "doc", "master", "m", 25);
  ASSERT_TRUE(a.Branch("doc", "dev", "master").ok());
  CommitVersions(&a, "doc", "dev", "d", 10);

  ForkBase b(std::make_shared<MemChunkStore>());
  auto server = ForkBaseServer::Start(&b, TestAddress("retry"));
  ASSERT_TRUE(server.ok());

  // One scripted fault: the connection drops mid-frame several writes into
  // the first attempt — HELLO, HEADS, OFFER, BUNDLE_BEGIN take the first
  // four, so write #9 lands inside the bundle-part stream.
  FaultSchedule faults;
  faults.InjectOnce(FaultSchedule::Op::kPut,
                    {FaultSchedule::Kind::kDisconnectMidFrame}, /*skip=*/8);

  StreamFactory factory = [&]() -> StatusOr<std::unique_ptr<ByteStream>> {
    FB_ASSIGN_OR_RETURN(auto raw, SocketStream::Connect((*server)->address()));
    return StatusOr<std::unique_ptr<ByteStream>>(
        std::make_unique<FaultyStream>(std::move(raw), &faults));
  };
  RetryPolicy policy;
  policy.initial_backoff_millis = 1;
  policy.max_backoff_millis = 4;
  SyncOptions sync_options;
  sync_options.part_bytes = 2048;  // many small parts: the cut lands mid-upload
  std::vector<int64_t> sleeps;
  auto report =
      SyncWithRetry(&a, SyncDirection::kPush, factory, policy, sync_options,
                    [&](int64_t millis) { sleeps.push_back(millis); });

  ASSERT_TRUE(report.succeeded) << report.final_status.ToString();
  ASSERT_GE(report.attempts.size(), 2u);
  EXPECT_TRUE(IsRetryableSyncError(report.attempts.front().status));
  EXPECT_EQ(sleeps.size(), report.attempts.size() - 1);
  EXPECT_GT(faults.injected_count(), 0u)
      << "the schedule never fired; the test proved nothing";
  ExpectConverged(&a, &b, "doc");

  // The resumability proof: the torn attempt landed its completed chunks on
  // the server (the streaming importer persists them), so the retry's
  // negotiation shipped strictly fewer.
  const SyncStats& first = report.attempts.front().stats;
  EXPECT_GT(first.chunks_negotiated, 0u);
  EXPECT_GT(report.stats.chunks_negotiated, 0u);
  EXPECT_LT(report.stats.chunks_negotiated, first.chunks_negotiated);
  (*server)->Stop();
}

TEST(SyncTest, SyncWithRetryStopsOnNonRetryableErrors) {
  ForkBase a(std::make_shared<MemChunkStore>());
  int factory_calls = 0;
  StreamFactory factory = [&]() -> StatusOr<std::unique_ptr<ByteStream>> {
    ++factory_calls;
    return Status::InvalidArgument("no such transport");
  };
  auto report = SyncWithRetry(&a, SyncDirection::kPull, factory, RetryPolicy(),
                              SyncOptions(), [](int64_t) {});
  EXPECT_FALSE(report.succeeded);
  EXPECT_EQ(factory_calls, 1);
  EXPECT_EQ(report.attempts.size(), 1u);
  EXPECT_EQ(report.final_status.code(), StatusCode::kInvalidArgument);
}

TEST(SyncTest, SyncWithRetryBackoffIsCappedJitteredAndDeterministic) {
  ForkBase a(std::make_shared<MemChunkStore>());
  StreamFactory refused = []() -> StatusOr<std::unique_ptr<ByteStream>> {
    return Status::IOError("connection refused");
  };
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_millis = 8;
  policy.max_backoff_millis = 20;
  policy.jitter_seed = 77;

  auto run = [&]() {
    std::vector<int64_t> sleeps;
    auto report =
        SyncWithRetry(&a, SyncDirection::kPush, refused, policy, SyncOptions(),
                      [&](int64_t millis) { sleeps.push_back(millis); });
    EXPECT_FALSE(report.succeeded);
    EXPECT_EQ(report.attempts.size(), 5u);
    EXPECT_EQ(report.final_status.code(), StatusCode::kIOError);
    // Every non-final attempt records the backoff it then slept.
    for (size_t i = 0; i + 1 < report.attempts.size(); ++i) {
      EXPECT_EQ(report.attempts[i].backoff_millis, sleeps[i]);
    }
    EXPECT_EQ(report.attempts.back().backoff_millis, 0);
    return sleeps;
  };

  const std::vector<int64_t> first = run();
  ASSERT_EQ(first.size(), 4u);
  // Exponential envelope 8, 16, 20, 20 (capped), each jittered down into
  // [envelope/2, envelope] — never past the cap.
  const int64_t envelope[] = {8, 16, 20, 20};
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_GE(first[i], envelope[i] / 2);
    EXPECT_LE(first[i], envelope[i]);
  }
  // The jitter is seeded: a rerun replays the exact same sleeps.
  EXPECT_EQ(run(), first);
}

// ------------------------------------------------ history-bounded walks --

TEST(SyncTest, HistoryContainsStopsAtTheTargetsGeneration) {
  // A long shared history, then master and dev diverge by a few commits.
  auto store = std::make_shared<CountingStore>();
  ForkBase db(store);
  CommitVersions(&db, "doc", "master", "shared", 200);
  auto fork_point = db.Head("doc");
  ASSERT_TRUE(fork_point.ok());
  ASSERT_TRUE(db.Branch("doc", "dev").ok());
  CommitVersions(&db, "doc", "master", "m", 3);
  CommitVersions(&db, "doc", "dev", "d", 3);
  auto head = db.Head("doc", "master");
  auto target = db.Head("doc", "dev");
  ASSERT_TRUE(head.ok() && target.ok());
  auto target_node = db.commit_graph()->Lookup(*store, *target);
  ASSERT_TRUE(target_node.ok());

  store->TakeLoaded();
  auto contains = HistoryContains(*store, db.commit_graph(), *head, *target);
  ASSERT_TRUE(contains.ok()) << contains.status().ToString();
  EXPECT_FALSE(*contains);
  for (const auto& id : store->TakeLoaded()) {
    auto chunk = store->Get(id);
    if (!chunk.ok() || chunk->type() != ChunkType::kFNode) continue;
    auto node = db.commit_graph()->Lookup(*store, id);
    ASSERT_TRUE(node.ok());
    EXPECT_GE(node->generation, target_node->generation)
        << "loaded an FNode below the target's generation";
  }

  auto shared = HistoryContains(*store, db.commit_graph(), *head, *fork_point);
  ASSERT_TRUE(shared.ok());
  EXPECT_TRUE(*shared);
}

TEST(SyncTest, DeltaClosureCostIsIndependentOfHistoryLength) {
  // The measured commit edits one cell of the same 2,000-row table after
  // 50 or 500 earlier commits; those flip another cell between two values,
  // so the table before the measured commit is identical in both runs.
  auto measure = [](int prior_commits) {
    auto store = std::make_shared<CountingStore>();
    ForkBase db(store);
    CsvGenOptions opts;
    opts.num_rows = 2000;
    EXPECT_TRUE(db.PutTableFromCsv("ds", GenerateCsv(opts)).ok());
    for (int i = 0; i < prior_commits; ++i) {
      EXPECT_TRUE(
          db.UpdateTableCell("ds", "r00000100", 1, i % 2 ? "odd" : "even")
              .ok());
    }
    auto have = db.Head("ds");
    EXPECT_TRUE(db.UpdateTableCell("ds", "r00001500", 2, "edited").ok());
    auto want = db.Head("ds");
    store->TakeLoaded();
    auto ids = DeltaClosure(*store, {*want}, {*have}, db.commit_graph());
    EXPECT_TRUE(ids.ok()) << ids.status().ToString();
    const size_t loads = store->TakeLoaded().size();
    auto bundle = ExportBundle(*store, {*want}, *ids,
                               [](Slice) { return Status::OK(); });
    EXPECT_TRUE(bundle.ok());
    EXPECT_EQ(bundle->chunks, ids->size());
    return std::make_pair(loads, bundle->chunks);
  };
  const auto short_history = measure(50);
  const auto long_history = measure(500);
  EXPECT_EQ(short_history.first, long_history.first) << "chunks loaded";
  EXPECT_EQ(short_history.second, long_history.second) << "bundle chunks";
  // The FNode, the table header and one root-to-leaf path of rows; the
  // loads add both versions' FNodes and the base's matching path.
  EXPECT_LE(short_history.second, 8u);
  EXPECT_LE(short_history.first, 32u);
}

TEST(SyncTest, UpdateHeadRefusesAVersionWhoseClosureIsIncomplete) {
  auto a_store = std::make_shared<MemChunkStore>();
  ForkBase a(a_store);
  std::vector<std::pair<std::string, std::string>> kvs;
  for (int i = 0; i < 2000; ++i) {
    kvs.emplace_back("k" + std::to_string(10000 + i), std::to_string(i));
  }
  ASSERT_TRUE(a.PutMap("map", kvs).ok());
  ForkBase b(std::make_shared<MemChunkStore>());
  auto server = ForkBaseServer::Start(&b, TestAddress("update_head_closure"));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = ForkBaseClient::Connect((*server)->address());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(SyncPush(&a, &*client).ok());
  const Hash256 v1 = *a.Head("map");
  ASSERT_EQ(*b.Head("map"), v1);

  // Upload v2's delta with one changed-path leaf dropped: the import fails
  // its closure check, but the chunks it streamed (v2's FNode too) landed.
  ASSERT_TRUE(a.UpdateMap("map", {KeyedOp{"k10500", "edited"}}).ok());
  const Hash256 v2 = *a.Head("map");
  auto delta = DeltaClosure(*a_store, {v2}, {v1}, a.commit_graph());
  ASSERT_TRUE(delta.ok());
  auto leaf = std::find_if(delta->begin(), delta->end(), [&](const Hash256& id) {
    return a_store->Get(id)->type() == ChunkType::kMapLeaf;
  });
  ASSERT_NE(leaf, delta->end());
  const Hash256 dropped = *leaf;
  delta->erase(leaf);
  auto upload = [&](const std::vector<Hash256>& ids) {
    std::string bundle;
    EXPECT_TRUE(ExportBundle(*a_store, {v2}, ids, [&](Slice bytes) {
                  bundle.append(bytes.data(), bytes.size());
                  return Status::OK();
                }).ok());
    EXPECT_TRUE(client->BeginBundle().ok());
    EXPECT_TRUE(client->SendBundlePart(bundle).ok());
    return client->EndBundle();
  };
  auto incomplete = upload(*delta);
  ASSERT_FALSE(incomplete.ok());
  EXPECT_NE(incomplete.status().message().find("closure incomplete"),
            std::string::npos);
  ASSERT_TRUE(b.Meta(v2).ok()) << "the FNode landed before the check failed";

  auto update = client->UpdateHead("map", ForkBase::kDefaultBranch, v2);
  ASSERT_FALSE(update.ok());
  EXPECT_NE(update.status().message().find("closure incomplete"),
            std::string::npos)
      << update.status().ToString();
  EXPECT_EQ(*b.Head("map"), v1);

  // Once the missing leaf arrives, the same UPDATE_HEAD publishes v2.
  ASSERT_TRUE(upload({dropped}).ok());
  update = client->UpdateHead("map", ForkBase::kDefaultBranch, v2);
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  EXPECT_TRUE(*update);
  EXPECT_EQ(*b.Head("map"), v2);
  EXPECT_TRUE(b.Verify(v2).ok());
  (*server)->Stop();
}

TEST(SyncTest, DeltaPullsLeaveTheReplicaClosedAndVerifiable) {
  // Several keys and branches, edits and merges between pulls: after every
  // pull the replica holds the full closure of each pulled head.
  auto a_store = std::make_shared<MemChunkStore>();
  ForkBase a(a_store);
  CsvGenOptions opts;
  opts.num_rows = 1500;
  const CsvDocument doc = GenerateCsv(opts);
  ASSERT_TRUE(a.PutTableFromCsv("table", doc).ok());
  std::vector<std::pair<std::string, std::string>> kvs;
  for (int i = 0; i < 2000; ++i) {
    kvs.emplace_back("k" + std::to_string(10000 + i), std::to_string(i));
  }
  ASSERT_TRUE(a.PutMap("map", kvs).ok());
  CommitVersions(&a, "note", "master", "n", 3);
  for (const char* key : {"table", "map", "note"}) {
    ASSERT_TRUE(a.Branch(key, "dev").ok());
  }

  auto server = ForkBaseServer::Start(&a, TestAddress("closure"));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = ForkBaseClient::Connect((*server)->address());
  ASSERT_TRUE(client.ok());
  auto c_store = std::make_shared<MemChunkStore>();
  ForkBase c(c_store);

  Rng rng(17);
  for (int round = 0; round < 4; ++round) {
    if (round > 0) {
      for (int i = 0; i < 6; ++i) {
        const std::string branch = i % 2 ? "dev" : "master";
        const auto& row = doc.rows[rng.Uniform(doc.rows.size())];
        ASSERT_TRUE(a.UpdateTableCell("table", row[0], 1 + rng.Uniform(3),
                                      rng.NextString(10), branch)
                        .ok());
        ASSERT_TRUE(
            a.UpdateMap("map",
                        {KeyedOp{kvs[rng.Uniform(kvs.size())].first,
                                 rng.NextString(8)}},
                        branch)
                .ok());
      }
      CommitVersions(&a, "note", "dev", "r" + std::to_string(round), 1);
      ASSERT_TRUE(
          a.Merge("table", "master", "dev", MergePolicy::kPreferLeft).ok());
      ASSERT_TRUE(a.Merge("map", "dev", "master", MergePolicy::kPreferLeft)
                      .ok());
    }
    auto pulled = SyncPull(&c, &*client);
    ASSERT_TRUE(pulled.ok()) << pulled.status().ToString();
    EXPECT_EQ(pulled->branches_conflicted, 0u);
    // A new leaf can equal one the replica holds only under a sibling
    // branch; such a chunk is re-sent and dropped at import.
    EXPECT_LE(pulled->chunks_received - pulled->remote_new_chunks,
              pulled->chunks_received / 20);
    for (const char* key : {"table", "map", "note"}) {
      auto heads = c.Latest(key);
      ASSERT_TRUE(heads.ok());
      ASSERT_EQ(heads->size(), 2u);
      for (const auto& [branch, head] : *heads) {
        EXPECT_EQ(*a.Head(key, branch), head);
        auto closure = MarkLive(*a_store, {head});
        ASSERT_TRUE(closure.ok());
        for (const auto& id : *closure) {
          ASSERT_TRUE(c_store->Contains(id))
              << key << "@" << branch << " lacks " << id.ToBase32()
              << " after round " << round;
        }
        EXPECT_TRUE(c.Verify(head).ok());
      }
    }
  }
  (*server)->Stop();
}

}  // namespace
}  // namespace forkbase
