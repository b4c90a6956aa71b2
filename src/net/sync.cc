#include "net/sync.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <thread>
#include <unordered_set>
#include <utility>

#include "store/bundle.h"
#include "util/random.h"

namespace forkbase {

namespace {

constexpr int kHeadRaceRetries = 16;
// Chunk ids per push Offer round.
constexpr size_t kOfferBatch = 512;

struct Target {
  std::string key;
  std::string branch;
  Hash256 uid;  ///< the head being published (local for push, remote for pull)
};

bool KeySelected(const SyncOptions& options, const std::string& key) {
  if (options.keys.empty()) return true;
  return std::find(options.keys.begin(), options.keys.end(), key) !=
         options.keys.end();
}

/// Local branch heads of `keys` — the receiver's "have" frontier for them.
std::vector<Hash256> LocalHeads(ForkBase* db,
                                const std::vector<std::string>& keys) {
  std::unordered_set<Hash256, Hash256Hasher> seen;
  std::vector<Hash256> heads;
  for (const auto& key : keys) {
    auto latest = db->Latest(key);
    if (!latest.ok()) continue;
    for (const auto& [branch, uid] : *latest) {
      (void)branch;
      if (seen.insert(uid).second) heads.push_back(uid);
    }
  }
  return heads;
}

/// Fast-forwards the local (key, branch) head to `uid`, creating the
/// branch if absent. Returns true=updated, false=already there;
/// kMergeConflict when the local branch diverged.
StatusOr<bool> FastForwardLocal(ForkBase* db, const Target& target) {
  for (int attempt = 0; attempt < kHeadRaceRetries; ++attempt) {
    auto head = db->Head(target.key, target.branch);
    if (!head.ok()) {
      Status created =
          db->BranchFromVersion(target.key, target.branch, target.uid);
      if (created.ok()) return true;
      if (created.code() == StatusCode::kAlreadyExists) continue;  // raced
      return created;
    }
    if (*head == target.uid) return false;
    FB_ASSIGN_OR_RETURN(bool fast_forward,
                        HistoryContains(*db->store(), db->commit_graph(),
                                        target.uid, *head));
    if (!fast_forward) {
      return Status::MergeConflict("local branch " + target.key + "@" +
                                   target.branch + " diverged");
    }
    auto advanced =
        db->AdvanceHead(target.key, target.branch, *head, target.uid);
    if (advanced.ok()) return true;
    if (advanced.status().code() != StatusCode::kAlreadyExists) {
      return advanced.status();
    }
  }
  return Status::MergeConflict("head kept racing concurrent commits");
}

}  // namespace

StatusOr<SyncStats> SyncPush(ForkBase* db, ForkBaseClient* client,
                             const SyncOptions& options) {
  SyncStats stats;
  FB_RETURN_IF_ERROR(SyncPushInto(db, client, options, &stats));
  return stats;
}

StatusOr<SyncStats> SyncPull(ForkBase* db, ForkBaseClient* client,
                             const SyncOptions& options) {
  SyncStats stats;
  FB_RETURN_IF_ERROR(SyncPullInto(db, client, options, &stats));
  return stats;
}

Status SyncPushInto(ForkBase* db, ForkBaseClient* client,
                    const SyncOptions& options, SyncStats* stats_out) {
  *stats_out = SyncStats{};
  SyncStats& stats = *stats_out;
  FB_ASSIGN_OR_RETURN(auto remote_heads, client->Heads());
  std::map<std::pair<std::string, std::string>, Hash256> remote;
  for (const auto& h : remote_heads) {
    remote[{h.key, h.branch}] = h.uid;
  }

  // Negotiate per-branch: local heads the peer does not already have.
  std::vector<Target> targets;
  std::vector<Hash256> want;
  for (const auto& key : db->ListKeys()) {
    if (!KeySelected(options, key)) continue;
    auto latest = db->Latest(key);
    if (!latest.ok()) continue;
    for (const auto& [branch, uid] : *latest) {
      ++stats.branches_considered;
      auto it = remote.find({key, branch});
      if (it != remote.end() && it->second == uid) {
        ++stats.branches_skipped;
        continue;
      }
      targets.push_back({key, branch, uid});
      want.push_back(uid);
    }
  }
  if (targets.empty()) return Status::OK();

  // The peer's frontier, as far as this store knows it: remote heads we
  // also hold bound the delta closure below.
  std::vector<Hash256> have;
  for (const auto& h : remote_heads) {
    if (db->store()->Contains(h.uid)) have.push_back(h.uid);
  }
  FB_ASSIGN_OR_RETURN(
      auto candidates,
      DeltaClosure(*db->store(), want, have, db->commit_graph()));
  std::sort(candidates.begin(), candidates.end());

  // Have/want rounds: the head comparison bounds the closure, the Offer
  // rounds make it exact — chunks shared through content addressing
  // (dedup across unrelated branches) drop out here.
  std::vector<Hash256> to_send;
  for (size_t i = 0; i < candidates.size(); i += kOfferBatch) {
    const size_t n = std::min(kOfferBatch, candidates.size() - i);
    std::vector<Hash256> batch(candidates.begin() + i,
                               candidates.begin() + i + n);
    ++stats.rounds;
    stats.chunks_offered += batch.size();
    FB_ASSIGN_OR_RETURN(auto wanted, client->Offer(batch));
    to_send.insert(to_send.end(), wanted.begin(), wanted.end());
  }
  // Recorded before the upload: a dead connection mid-bundle still reports
  // what this attempt had to ship, which is how a retry proves it resumed
  // (its negotiation comes out strictly smaller).
  stats.chunks_negotiated = to_send.size();

  if (!to_send.empty()) {
    FB_RETURN_IF_ERROR(client->BeginBundle());
    std::string buffer;
    auto sink = [&](Slice bytes) -> Status {
      buffer.append(bytes.data(), bytes.size());
      while (buffer.size() >= options.part_bytes) {
        FB_RETURN_IF_ERROR(client->SendBundlePart(
            Slice(buffer.data(), options.part_bytes)));
        buffer.erase(0, options.part_bytes);
      }
      return Status::OK();
    };
    FB_ASSIGN_OR_RETURN(auto bundle_stats,
                        ExportBundle(*db->store(), want, to_send, sink));
    if (!buffer.empty()) {
      FB_RETURN_IF_ERROR(client->SendBundlePart(Slice(buffer)));
    }
    FB_ASSIGN_OR_RETURN(auto counts, client->EndBundle());
    stats.chunks_sent = bundle_stats.chunks;
    stats.bytes_sent = bundle_stats.bytes;
    stats.remote_new_chunks = counts.new_chunks;
  }

  // Publish. A divergent remote branch is a conflict, not an error — the
  // rest of the push still lands.
  for (const auto& target : targets) {
    auto updated = client->UpdateHead(target.key, target.branch, target.uid);
    if (updated.ok()) {
      *updated ? ++stats.branches_updated : ++stats.branches_skipped;
      continue;
    }
    if (updated.status().code() == StatusCode::kMergeConflict) {
      ++stats.branches_conflicted;
      continue;
    }
    return updated.status();
  }
  return Status::OK();
}

Status SyncPullInto(ForkBase* db, ForkBaseClient* client,
                    const SyncOptions& options, SyncStats* stats_out) {
  *stats_out = SyncStats{};
  SyncStats& stats = *stats_out;
  FB_ASSIGN_OR_RETURN(auto remote_heads, client->Heads());

  std::vector<Target> targets;
  std::vector<Hash256> want;
  std::vector<std::string> want_keys;
  for (const auto& h : remote_heads) {
    if (!KeySelected(options, h.key)) continue;
    ++stats.branches_considered;
    auto local = db->Head(h.key, h.branch);
    if (local.ok() && *local == h.uid) {
      ++stats.branches_skipped;
      continue;
    }
    targets.push_back({h.key, h.branch, h.uid});
    if (!db->store()->Contains(h.uid)) {
      want.push_back(h.uid);
      if (std::find(want_keys.begin(), want_keys.end(), h.key) ==
          want_keys.end()) {
        want_keys.push_back(h.key);
      }
    }
  }
  if (targets.empty()) return Status::OK();

  // Quarantine the pull against a concurrent local sweep: chunks imported
  // below are unreachable until FastForwardLocal publishes the heads, so
  // the pin must span import→publish (the sweep's erase loop skips ids in
  // any live pin). The write lease additionally makes each import write
  // atomic against a sweep's erase batches; it is scoped to the import so
  // the publish calls below can take their own leases.
  ChunkStore::PutPin pull_pin(*db->store());
  if (!want.empty()) {
    // The server computes the delta against our heads of the same keys
    // (other keys' histories cannot contain a wanted version).
    FB_ASSIGN_OR_RETURN(auto delta,
                        client->PullDelta(want, LocalHeads(db, want_keys)));
    stats.chunks_received = delta.chunks;
    stats.bytes_received = delta.bytes;
    auto lease = db->AcquireWriteLease();
    FB_ASSIGN_OR_RETURN(auto imported,
                        ImportBundle(Slice(delta.bundle), db->store(), db));
    stats.remote_new_chunks = imported.new_chunks;
  }

  for (const auto& target : targets) {
    auto updated = FastForwardLocal(db, target);
    if (updated.ok()) {
      *updated ? ++stats.branches_updated : ++stats.branches_skipped;
      continue;
    }
    if (updated.status().code() == StatusCode::kMergeConflict) {
      ++stats.branches_conflicted;
      continue;
    }
    return updated.status();
  }
  return Status::OK();
}

bool IsRetryableSyncError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kIOError:           // transport died
    case StatusCode::kDeadlineExceeded:  // peer stalled past a deadline
    case StatusCode::kUnavailable:       // server shed the request
    case StatusCode::kCorruption:        // torn frame / stream cut mid-read
      return true;
    default:
      return false;
  }
}

SyncRetryReport SyncWithRetry(ForkBase* db, SyncDirection direction,
                              const StreamFactory& factory,
                              const RetryPolicy& policy,
                              const SyncOptions& options,
                              const SleepFn& sleep_fn) {
  SyncRetryReport report;
  Rng jitter(policy.jitter_seed);
  const int max_attempts = std::max(1, policy.max_attempts);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    SyncAttempt record;
    uint64_t retry_after_millis = 0;

    auto stream = factory();
    if (stream.ok()) {
      auto client = ForkBaseClient::Attach(std::move(*stream));
      if (client.ok()) {
        record.status = direction == SyncDirection::kPush
                            ? SyncPushInto(db, &*client, options, &record.stats)
                            : SyncPullInto(db, &*client, options, &record.stats);
        retry_after_millis = client->last_retry_after_millis();
      } else {
        record.status = client.status();
      }
    } else {
      record.status = stream.status();
    }

    if (record.status.ok()) {
      report.succeeded = true;
      report.final_status = Status::OK();
      report.stats = record.stats;
      report.attempts.push_back(std::move(record));
      return report;
    }

    report.final_status = record.status;
    const bool give_up = attempt == max_attempts ||
                         !IsRetryableSyncError(record.status);
    if (give_up) {
      report.attempts.push_back(std::move(record));
      return report;
    }

    // Capped exponential backoff with uniform jitter in [backoff/2, backoff];
    // a server retry-after hint is a floor, never shortened by jitter.
    int64_t backoff = policy.initial_backoff_millis;
    for (int i = 1; i < attempt && backoff < policy.max_backoff_millis; ++i) {
      backoff *= 2;
    }
    backoff = std::min(backoff, policy.max_backoff_millis);
    if (backoff > 0) {
      backoff -= static_cast<int64_t>(
          jitter.Uniform(static_cast<uint64_t>(backoff / 2 + 1)));
    }
    backoff = std::max(backoff, static_cast<int64_t>(retry_after_millis));
    record.backoff_millis = backoff;
    report.attempts.push_back(std::move(record));
    if (backoff > 0) {
      if (sleep_fn) {
        sleep_fn(backoff);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }
    }
  }
  return report;  // unreachable; the loop always returns
}

SyncRetryReport SyncWithRetry(ForkBase* db, SyncDirection direction,
                              const std::string& address,
                              const RetryPolicy& policy,
                              const SyncOptions& options,
                              const SleepFn& sleep_fn) {
  StreamFactory factory = [&address, &policy]()
      -> StatusOr<std::unique_ptr<ByteStream>> {
    FB_ASSIGN_OR_RETURN(
        auto stream,
        SocketStream::Connect(address, policy.connect_timeout_millis));
    stream->SetIoTimeout(policy.io_timeout_millis);
    return StatusOr<std::unique_ptr<ByteStream>>(std::move(stream));
  };
  return SyncWithRetry(db, direction, factory, policy, options, sleep_fn);
}

}  // namespace forkbase
