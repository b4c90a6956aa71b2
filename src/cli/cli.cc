#include "cli/cli.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <map>
#include <optional>
#include <thread>

#include "chunk/file_chunk_store.h"
#include "chunk/tiered_chunk_store.h"
#include "net/client.h"
#include "net/server.h"
#include "net/sync.h"
#include "net/transport.h"
#include "store/forkbase.h"
#include "store/bundle.h"
#include "store/gc.h"
#include "util/file_io.h"

namespace forkbase {

namespace {

struct CliContext {
  std::string db_dir = ".forkbase";
  std::string branch = ForkBase::kDefaultBranch;
  std::string author = "cli";
  std::string message;
  ForkBase::Config config;             // storage-stack knobs
  ForkBaseServer::Options server;      // serve knobs (server defaults)
  bool gc_in_place = false;            // gc: sweep the store where it lives
  bool verify_deep = false;            // verify: audit physical records too
  /// Client knobs: sync attempts (1 = no retry) and transport deadlines.
  RetryPolicy retry{.max_attempts = 3};

  std::vector<std::string> positional;
};

StatusOr<uint64_t> ParseCount(const std::string& flag,
                              const std::string& value, uint64_t max) {
  uint64_t n = 0;
  for (char c : value) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(flag + " expects a number, got " + value);
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (n > (max - digit) / 10) {
      return Status::InvalidArgument(flag + " value " + value +
                                     " exceeds the maximum of " +
                                     std::to_string(max));
    }
    n = n * 10 + digit;
  }
  if (value.empty()) {
    return Status::InvalidArgument(flag + " expects a number");
  }
  return n;
}

// Parses --flag value pairs; everything else is positional.
Status ParseArgs(const std::vector<std::string>& args, CliContext* ctx) {
  bool saw_tier_policy = false;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&](std::string* dst) -> Status {
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument("missing value for " + a);
      }
      *dst = args[++i];
      return Status::OK();
    };
    // The flag's value as a count in [min, max]; `hint` explains the floor.
    auto count = [&](uint64_t max, uint64_t min = 0,
                     const std::string& hint = "") -> StatusOr<uint64_t> {
      std::string v;
      FB_RETURN_IF_ERROR(next(&v));
      FB_ASSIGN_OR_RETURN(uint64_t n, ParseCount(a, v, max));
      if (n < min) {
        return Status::InvalidArgument(a + " must be >= " +
                                       std::to_string(min) + hint);
      }
      return n;
    };
    if (a == "--db") {
      FB_RETURN_IF_ERROR(next(&ctx->db_dir));
    } else if (a == "--branch" || a == "-b") {
      FB_RETURN_IF_ERROR(next(&ctx->branch));
    } else if (a == "--author") {
      FB_RETURN_IF_ERROR(next(&ctx->author));
    } else if (a == "--message" || a == "-m") {
      FB_RETURN_IF_ERROR(next(&ctx->message));
    } else if (a == "--prefetch-threads") {
      FB_ASSIGN_OR_RETURN(ctx->config.prefetch_threads, count(256));
    } else if (a == "--prefetch-depth") {
      FB_ASSIGN_OR_RETURN(uint64_t depth, count(64, 1));
      SetScanPrefetchDepth(depth);
    } else if (a == "--cache-mb") {
      FB_ASSIGN_OR_RETURN(uint64_t mb, count(1u << 20));
      ctx->config.cache_bytes = mb << 20;
    } else if (a == "--tier-cold") {
      FB_RETURN_IF_ERROR(next(&ctx->config.tier.cold_dir));
    } else if (a == "--tier-policy") {
      saw_tier_policy = true;
      std::string v;
      FB_RETURN_IF_ERROR(next(&v));
      if (v == "write-through") {
        ctx->config.tier.write_back = false;
      } else if (v == "write-back") {
        ctx->config.tier.write_back = true;
      } else {
        return Status::InvalidArgument(
            "--tier-policy expects write-through or write-back, got " + v);
      }
    } else if (a == "--tier-hot-budget-mb") {
      FB_ASSIGN_OR_RETURN(
          uint64_t mb,
          count(1u << 20, 1, " (omit the flag for an unbounded hot tier)"));
      ctx->config.tier.hot_bytes_budget = mb << 20;
    } else if (a == "--fsync") {
      ctx->config.fsync = true;
    } else if (a == "--maintenance-threads") {
      FB_ASSIGN_OR_RETURN(ctx->config.maintenance_threads, count(256));
    } else if (a == "--segment-kb") {
      FB_ASSIGN_OR_RETURN(
          uint64_t kb, count(1u << 20, 1, " (omit the flag for the default)"));
      ctx->config.segment_bytes = kb << 10;
    } else if (a == "--compress") {
      ctx->config.compression = true;
    } else if (a == "--delta-depth") {
      FB_ASSIGN_OR_RETURN(ctx->config.delta_chain_depth, count(128));
    } else if (a == "--delta-window") {
      FB_ASSIGN_OR_RETURN(
          ctx->config.delta_window,
          count(1u << 10, 1,
                " (use --delta-depth 0 to disable delta encoding)"));
    } else if (a == "--deep") {
      ctx->verify_deep = true;
    } else if (a == "--in-place") {
      ctx->gc_in_place = true;
    } else if (a == "--max-outbox-kb") {
      FB_ASSIGN_OR_RETURN(uint64_t kb, count(1u << 20, 1));
      ctx->server.max_outbox_bytes = kb << 10;
    } else if (a == "--handshake-timeout-ms" || a == "--idle-timeout-ms" ||
               a == "--request-timeout-ms" || a == "--stall-timeout-ms") {
      ForkBaseServer::Options& o = ctx->server;
      int64_t* dst = a == "--handshake-timeout-ms" ? &o.handshake_timeout_millis
                     : a == "--idle-timeout-ms"    ? &o.idle_timeout_millis
                     : a == "--request-timeout-ms"
                         ? &o.request_timeout_millis
                         : &o.write_stall_timeout_millis;
      FB_ASSIGN_OR_RETURN(*dst, count(86'400'000));
    } else if (a == "--session-rps") {
      FB_ASSIGN_OR_RETURN(ctx->server.session_requests_per_sec,
                          count(1u << 20));
    } else if (a == "--global-rps") {
      FB_ASSIGN_OR_RETURN(ctx->server.global_requests_per_sec,
                          count(1u << 20));
    } else if (a == "--max-sessions") {
      FB_ASSIGN_OR_RETURN(ctx->server.max_sessions, count(1u << 20));
    } else if (a == "--max-queued-requests") {
      FB_ASSIGN_OR_RETURN(ctx->server.max_queued_requests, count(1u << 20));
    } else if (a == "--retries") {
      FB_ASSIGN_OR_RETURN(ctx->retry.max_attempts, count(100, 1));
    } else if (a == "--connect-timeout-ms") {
      FB_ASSIGN_OR_RETURN(ctx->retry.connect_timeout_millis,
                          count(86'400'000));
    } else if (a == "--io-timeout-ms") {
      FB_ASSIGN_OR_RETURN(ctx->retry.io_timeout_millis, count(86'400'000));
    } else if (a.rfind("--", 0) == 0) {
      return Status::InvalidArgument("unknown flag " + a);
    } else {
      ctx->positional.push_back(a);
    }
  }
  if (saw_tier_policy && ctx->config.tier.cold_dir.empty()) {
    return Status::InvalidArgument(
        "--tier-policy requires --tier-cold DIR (no cold tier configured)");
  }
  if (ctx->config.tier.hot_bytes_budget > 0 &&
      ctx->config.tier.cold_dir.empty()) {
    return Status::InvalidArgument(
        "--tier-hot-budget-mb requires --tier-cold DIR (an unbounded "
        "single-tier store has nowhere to evict to)");
  }
  return Status::OK();
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot write " + path);
  out << content;
  out.flush();
  if (!out) return Status::IOError("write failed for " + path);
  return Status::OK();
}

std::atomic<bool> g_shutdown_requested{false};

void OnShutdownSignal(int) { g_shutdown_requested.store(true); }

void PrintSyncStats(const SyncStats& stats, bool push, std::ostream& out) {
  out << (push ? "pushed " : "pulled ") << stats.branches_updated
      << " branch(es) (" << stats.branches_skipped << " up-to-date, "
      << stats.branches_conflicted << " conflicted)\n";
  if (push) {
    out << "sent " << stats.chunks_sent << " chunks / " << stats.bytes_sent
        << " bytes in " << stats.rounds << " round(s); peer stored "
        << stats.remote_new_chunks << " new\n";
  } else {
    out << "received " << stats.chunks_received << " chunks / "
        << stats.bytes_received << " bytes; stored "
        << stats.remote_new_chunks << " new\n";
  }
}

ForkBaseClient::Options ClientOptionsFrom(const CliContext& ctx) {
  ForkBaseClient::Options options;
  options.connect_timeout_millis = ctx.retry.connect_timeout_millis;
  options.io_timeout_millis = ctx.retry.io_timeout_millis;
  return options;
}

Status RunRetryingSync(CliContext& ctx, ForkBase& db, SyncDirection direction,
                       std::ostream& out) {
  const auto& pos = ctx.positional;
  SyncOptions sync_options;
  if (pos.size() == 3) sync_options.keys.push_back(pos[2]);
  SyncRetryReport report = SyncWithRetry(&db, direction, pos[1],
                                         ctx.retry, sync_options);
  if (report.attempts.size() > 1) {
    out << (report.succeeded ? "succeeded after " : "gave up after ")
        << report.attempts.size() << " attempts\n";
  }
  if (!report.succeeded) return report.final_status;
  PrintSyncStats(report.stats, direction == SyncDirection::kPush, out);
  return Status::OK();
}

void PrintServerStats(const ForkBaseServer::Stats& s, std::ostream& out) {
  out << "sessions: " << s.sessions_accepted << " accepted, "
      << s.sessions_closed << " closed, " << s.sessions_shed << " shed\n"
      << "requests: " << s.requests_served << " served, " << s.requests_shed
      << " shed, " << s.requests_rate_limited << " rate-limited\n"
      << "disconnects: " << s.protocol_errors << " protocol, "
      << s.deadline_disconnects << " deadline, " << s.stall_disconnects
      << " write-stall\n"
      << "peak bytes: " << s.peak_outbox_bytes << " outbox, "
      << s.peak_staged_bytes << " bundle staging\n";
}

/// The verbs that talk only to a server. They open no local store, so they
/// run beside the process that holds --db; nullopt for every other verb.
std::optional<Status> RunClientCommand(const std::string& cmd,
                                       const CliContext& ctx,
                                       std::ostream& out) {
  const auto& pos = ctx.positional;
  if (cmd == "rput") {
    // rput ADDRESS KEY VALUE — commit a string on a remote server.
    if (pos.size() != 4) {
      return Status::InvalidArgument("rput ADDRESS KEY VALUE");
    }
    FB_ASSIGN_OR_RETURN(auto client,
                        ForkBaseClient::Connect(pos[1], ClientOptionsFrom(ctx)));
    FB_ASSIGN_OR_RETURN(Hash256 uid,
                        client.Put(pos[2], pos[3], ctx.branch, ctx.author,
                                   ctx.message));
    out << uid.ToBase32() << "\n";
    return Status::OK();
  }
  if (cmd == "rget") {
    // rget ADDRESS KEY — read a remote branch head value.
    if (pos.size() != 3) return Status::InvalidArgument("rget ADDRESS KEY");
    FB_ASSIGN_OR_RETURN(auto client,
                        ForkBaseClient::Connect(pos[1], ClientOptionsFrom(ctx)));
    FB_ASSIGN_OR_RETURN(auto result, client.Get(pos[2], ctx.branch));
    out << result.value << "\n";
    return Status::OK();
  }
  if (cmd == "rstat") {
    // rstat ADDRESS — remote instance statistics.
    if (pos.size() != 2) return Status::InvalidArgument("rstat ADDRESS");
    FB_ASSIGN_OR_RETURN(auto client,
                        ForkBaseClient::Connect(pos[1], ClientOptionsFrom(ctx)));
    FB_ASSIGN_OR_RETURN(auto kvs, client.Stat());
    for (const auto& [k, v] : kvs) out << k << ": " << v << "\n";
    return Status::OK();
  }
  if (cmd == "rgc") {
    // rgc ADDRESS — in-place GC sweep on a remote server, concurrent with
    // its other sessions' traffic.
    if (pos.size() != 2) return Status::InvalidArgument("rgc ADDRESS");
    FB_ASSIGN_OR_RETURN(auto client,
                        ForkBaseClient::Connect(pos[1], ClientOptionsFrom(ctx)));
    FB_ASSIGN_OR_RETURN(auto stats, client.Gc());
    out << "live:    " << stats.live_chunks << " chunks, "
        << stats.live_bytes << " bytes\n"
        << "swept:   " << stats.swept_chunks << " chunks, "
        << stats.swept_bytes << " bytes reclaimed in place\n"
        << "spared:  " << stats.pinned_skipped
        << " chunks re-put by racing commits\n";
    return Status::OK();
  }
  if (cmd == "net-hold") {
    // net-hold ADDRESS MILLIS — chaos helper: open a connection and never
    // speak, for at most MILLIS. A hardened server ends the hold early by
    // enforcing its handshake deadline; reports what the server did.
    if (pos.size() != 3) {
      return Status::InvalidArgument("net-hold ADDRESS MILLIS");
    }
    FB_ASSIGN_OR_RETURN(uint64_t hold_millis,
                        ParseCount("MILLIS", pos[2], 3'600'000));
    FB_ASSIGN_OR_RETURN(
        auto stream,
        SocketStream::Connect(pos[1], ctx.retry.connect_timeout_millis));
    stream->SetIoTimeout(static_cast<int64_t>(hold_millis));
    uint64_t received = 0;
    for (;;) {
      char buf[256];
      auto n = stream->ReadSome(buf, sizeof buf);
      if (!n.ok()) {
        if (n.status().code() == StatusCode::kDeadlineExceeded) {
          out << "held " << pos[1] << " for " << hold_millis
              << " ms; connection still open\n";
          return Status::OK();
        }
        return n.status();
      }
      if (*n == 0) {
        out << "server closed the held connection (after " << received
            << " byte(s), e.g. a deadline error frame)\n";
        return Status::OK();
      }
      received += *n;
    }
  }
  return std::nullopt;
}

Status RunCommand(const std::string& cmd, CliContext& ctx, ForkBase& db,
                  std::ostream& out) {
  const auto& pos = ctx.positional;
  PutMeta meta{ctx.author, ctx.message};

  if (cmd == "put") {
    // put KEY VALUE            (string primitive)
    if (pos.size() != 3) return Status::InvalidArgument("put KEY VALUE");
    FB_ASSIGN_OR_RETURN(Hash256 uid,
                        db.Put(pos[1], Value::String(pos[2]), ctx.branch,
                               meta));
    out << uid.ToBase32() << "\n";
    return Status::OK();
  }
  if (cmd == "put-blob") {
    // put-blob KEY FILE
    if (pos.size() != 3) return Status::InvalidArgument("put-blob KEY FILE");
    FB_ASSIGN_OR_RETURN(std::string bytes, ReadWholeFile(pos[2]));
    FB_ASSIGN_OR_RETURN(Hash256 uid, db.PutBlob(pos[1], bytes, ctx.branch,
                                                meta));
    out << uid.ToBase32() << "\n";
    return Status::OK();
  }
  if (cmd == "put-csv") {
    // put-csv KEY FILE   (load a CSV dataset as a table; key column = 0)
    if (pos.size() != 3) return Status::InvalidArgument("put-csv KEY FILE");
    FB_ASSIGN_OR_RETURN(std::string text, ReadWholeFile(pos[2]));
    FB_ASSIGN_OR_RETURN(CsvDocument doc, ParseCsv(text));
    FB_ASSIGN_OR_RETURN(Hash256 uid, db.PutTableFromCsv(pos[1], doc, 0,
                                                        ctx.branch, meta));
    out << uid.ToBase32() << "\n";
    return Status::OK();
  }
  if (cmd == "get") {
    if (pos.size() != 2) return Status::InvalidArgument("get KEY");
    FB_ASSIGN_OR_RETURN(Value v, db.Get(pos[1], ctx.branch));
    out << v.ToString() << "\n";
    return Status::OK();
  }
  if (cmd == "head") {
    if (pos.size() != 2) return Status::InvalidArgument("head KEY");
    FB_ASSIGN_OR_RETURN(Hash256 uid, db.Head(pos[1], ctx.branch));
    out << uid.ToBase32() << "\n";
    return Status::OK();
  }
  if (cmd == "latest") {
    if (pos.size() != 2) return Status::InvalidArgument("latest KEY");
    FB_ASSIGN_OR_RETURN(auto heads, db.Latest(pos[1]));
    for (const auto& [branch, uid] : heads) {
      out << branch << "\t" << uid.ToBase32() << "\n";
    }
    return Status::OK();
  }
  if (cmd == "meta") {
    if (pos.size() != 2) return Status::InvalidArgument("meta UID");
    Hash256 uid;
    if (!Hash256::FromBase32(pos[1], &uid)) {
      return Status::InvalidArgument("malformed uid");
    }
    FB_ASSIGN_OR_RETURN(VersionInfo info, db.Meta(uid));
    out << "key:     " << info.key << "\n"
        << "type:    " << ValueTypeToString(info.type) << "\n"
        << "author:  " << info.author << "\n"
        << "message: " << info.message << "\n"
        << "time:    " << info.logical_time << "\n";
    for (const auto& b : info.bases) out << "base:    " << b.ToBase32() << "\n";
    return Status::OK();
  }
  if (cmd == "history") {
    if (pos.size() != 2) return Status::InvalidArgument("history KEY");
    FB_ASSIGN_OR_RETURN(auto history, db.History(pos[1], ctx.branch));
    for (const auto& info : history) {
      out << info.uid.ToBase32() << "\t" << info.author << "\t"
          << info.message << "\n";
    }
    return Status::OK();
  }
  if (cmd == "branch") {
    // branch KEY NEW [FROM]
    if (pos.size() != 3 && pos.size() != 4) {
      return Status::InvalidArgument("branch KEY NEW [FROM]");
    }
    const std::string from = pos.size() == 4 ? pos[3] : ctx.branch;
    return db.Branch(pos[1], pos[2], from);
  }
  if (cmd == "rename") {
    if (pos.size() != 4) return Status::InvalidArgument("rename KEY FROM TO");
    return db.RenameBranch(pos[1], pos[2], pos[3]);
  }
  if (cmd == "delete-branch") {
    if (pos.size() != 3) return Status::InvalidArgument("delete-branch KEY BRANCH");
    return db.DeleteBranch(pos[1], pos[2]);
  }
  if (cmd == "branches") {
    if (pos.size() != 2) return Status::InvalidArgument("branches KEY");
    FB_ASSIGN_OR_RETURN(auto branches, db.ListBranches(pos[1]));
    for (const auto& b : branches) out << b << "\n";
    return Status::OK();
  }
  if (cmd == "keys") {
    for (const auto& k : db.ListKeys()) out << k << "\n";
    return Status::OK();
  }
  if (cmd == "merge") {
    // merge KEY DST SRC
    if (pos.size() != 4) return Status::InvalidArgument("merge KEY DST SRC");
    FB_ASSIGN_OR_RETURN(Hash256 uid, db.Merge(pos[1], pos[2], pos[3],
                                              MergePolicy::kStrict, meta));
    out << uid.ToBase32() << "\n";
    return Status::OK();
  }
  if (cmd == "diff") {
    // diff KEY BRANCH_A BRANCH_B
    if (pos.size() != 4) {
      return Status::InvalidArgument("diff KEY BRANCH_A BRANCH_B");
    }
    FB_ASSIGN_OR_RETURN(ObjectDiff diff, db.Diff(pos[1], pos[2], pos[3]));
    out << FormatObjectDiff(diff);
    return Status::OK();
  }
  if (cmd == "export") {
    // export KEY FILE   (tables -> CSV, blobs -> raw)
    if (pos.size() != 3) return Status::InvalidArgument("export KEY FILE");
    FB_ASSIGN_OR_RETURN(Value v, db.Get(pos[1], ctx.branch));
    if (v.type() == ValueType::kTable) {
      FB_ASSIGN_OR_RETURN(FTable table, db.GetTable(pos[1], ctx.branch));
      FB_ASSIGN_OR_RETURN(CsvDocument doc, table.ToCsv());
      return WriteFile(pos[2], WriteCsv(doc));
    }
    if (v.type() == ValueType::kBlob) {
      FB_ASSIGN_OR_RETURN(FBlob blob, db.GetBlob(pos[1], ctx.branch));
      FB_ASSIGN_OR_RETURN(std::string bytes, blob.ReadAll());
      return WriteFile(pos[2], bytes);
    }
    return WriteFile(pos[2], v.ToString());
  }
  if (cmd == "verify") {
    if (pos.size() == 2) {
      Hash256 uid;
      if (!Hash256::FromBase32(pos[1], &uid)) {
        // Treat as key: verify the branch head.
        FB_ASSIGN_OR_RETURN(uid, db.Head(pos[1], ctx.branch));
      }
      FB_RETURN_IF_ERROR(db.Verify(uid));
      out << "OK " << uid.ToBase32() << "\n";
    } else if (pos.size() != 1 || !ctx.verify_deep) {
      return Status::InvalidArgument("verify UID|KEY, or verify --deep");
    }
    if (!ctx.verify_deep) return Status::OK();
    // Deep audit: materialize every record in the store — resolving delta
    // chains and decompressing along the way — and check the bytes re-hash
    // to their id. This is the check that catches a stored-form bug
    // (mis-applied delta, bad compression round trip) that logical-layer
    // verification over one closure would only hit by luck.
    ChunkStore* store = db.store();
    std::vector<Hash256> ids;
    uint64_t delta_records = 0;
    uint64_t compressed_records = 0;
    store->ForEachId([&](const Hash256& id, uint64_t) {
      ids.push_back(id);
      ChunkStore::PhysicalRecord rec;
      if (store->GetPhysicalRecord(id, &rec)) {
        if (rec.encoding == ChunkStore::Encoding::kDelta) ++delta_records;
        if (rec.encoding == ChunkStore::Encoding::kCompressed) {
          ++compressed_records;
        }
      }
    });
    uint64_t bad = 0;
    FB_RETURN_IF_ERROR(ForEachChunkBatch(
        *store, ids,
        [&](size_t index, StatusOr<Chunk>& chunk_or) -> Status {
          if (!chunk_or.ok() || chunk_or->hash() != ids[index]) {
            ++bad;
            out << "BAD " << ids[index].ToBase32() << " "
                << (chunk_or.ok() ? "hash mismatch"
                                  : chunk_or.status().ToString())
                << "\n";
          }
          return Status::OK();
        },
        BatchHashing::kPrecompute));
    out << "deep: " << ids.size() << " records, " << delta_records
        << " delta, " << compressed_records << " compressed, " << bad
        << " bad\n";
    if (bad > 0) {
      return Status::Corruption(std::to_string(bad) +
                                " record(s) failed the deep audit");
    }
    return Status::OK();
  }
  if (cmd == "serve") {
    // serve ADDRESS — run the multi-client server until SIGINT/SIGTERM.
    if (pos.size() != 2) return Status::InvalidArgument("serve ADDRESS");
    FB_ASSIGN_OR_RETURN(auto server,
                        ForkBaseServer::Start(&db, pos[1], ctx.server));
    g_shutdown_requested.store(false);
    std::signal(SIGINT, OnShutdownSignal);
    std::signal(SIGTERM, OnShutdownSignal);
    out << "serving on " << server->address() << "\n";
    out.flush();
    while (!g_shutdown_requested.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    server->Stop();
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    out << "shut down\n";
    PrintServerStats(server->stats(), out);
    return Status::OK();
  }
  if (cmd == "push" && pos.size() >= 2 && IsNetworkAddress(pos[1])) {
    // push ADDRESS [KEY] — sync local branch heads to a running server,
    // reconnecting and resuming on transport faults / shed load.
    if (pos.size() > 3) return Status::InvalidArgument("push ADDRESS [KEY]");
    return RunRetryingSync(ctx, db, SyncDirection::kPush, out);
  }
  if (cmd == "pull" && pos.size() >= 2 && IsNetworkAddress(pos[1])) {
    // pull ADDRESS [KEY] — sync a running server's branch heads into here.
    if (pos.size() > 3) return Status::InvalidArgument("pull ADDRESS [KEY]");
    return RunRetryingSync(ctx, db, SyncDirection::kPull, out);
  }
  if (cmd == "push") {
    // push KEY FILE — export the branch head's closure as a bundle file.
    if (pos.size() != 3) {
      return Status::InvalidArgument("push KEY FILE | push ADDRESS [KEY]");
    }
    FB_ASSIGN_OR_RETURN(Hash256 head, db.Head(pos[1], ctx.branch));
    FB_ASSIGN_OR_RETURN(auto ids, DeltaClosure(*db.store(), {head}, {},
                                               db.commit_graph()));
    std::string bundle;
    FB_RETURN_IF_ERROR(ExportBundle(*db.store(), {head}, ids, [&](Slice b) {
                         bundle.append(b.data(), b.size());
                         return Status::OK();
                       }).status());
    FB_RETURN_IF_ERROR(WriteFile(pos[2], bundle));
    out << "pushed " << pos[1] << "@" << ctx.branch << " ("
        << bundle.size() << " bytes) to " << pos[2] << "\n";
    return Status::OK();
  }
  if (cmd == "pull") {
    // pull FILE — import a bundle; the head becomes the branch head of the
    // key recorded in its FNode.
    if (pos.size() != 2) {
      return Status::InvalidArgument("pull FILE | pull ADDRESS [KEY]");
    }
    FB_ASSIGN_OR_RETURN(std::string bundle, ReadWholeFile(pos[1]));
    FB_ASSIGN_OR_RETURN(ImportResult result,
                        ImportBundle(bundle, db.store(), &db));
    FB_ASSIGN_OR_RETURN(VersionInfo info, db.Meta(result.head));
    FB_RETURN_IF_ERROR(db.branches().SetHead(info.key, ctx.branch,
                                             result.head));
    out << "pulled " << info.key << "@" << ctx.branch << " = "
        << result.head.ToBase32() << " (" << result.new_chunks << " new of "
        << result.chunks << " chunks)\n";
    return Status::OK();
  }
  if (cmd == "verify-all") {
    // Tamper-evidence sweep over every branch head.
    size_t checked = 0, failed = 0;
    for (const auto& key : db.ListKeys()) {
      FB_ASSIGN_OR_RETURN(auto heads, db.Latest(key));
      for (const auto& [branch, uid] : heads) {
        ++checked;
        Status verify = db.Verify(uid);
        if (!verify.ok()) {
          ++failed;
          out << "FAIL " << key << "@" << branch << ": "
              << verify.ToString() << "\n";
        }
      }
    }
    out << checked - failed << "/" << checked << " heads verified\n";
    if (failed > 0) return Status::Corruption("verification failures");
    return Status::OK();
  }
  if (cmd == "gc" && ctx.gc_in_place) {
    // gc --in-place — erase the garbage out of the store where it lives.
    if (pos.size() != 1) return Status::InvalidArgument("gc --in-place");
    FB_ASSIGN_OR_RETURN(GcStats stats, SweepInPlace(&db));
    out << "live:    " << stats.live_chunks << " chunks, "
        << stats.live_bytes << " bytes\n"
        << "swept:   " << stats.swept_chunks << " chunks, "
        << stats.swept_bytes << " bytes reclaimed in place\n"
        << "spared:  " << stats.pinned_skipped
        << " chunks re-put by racing commits\n";
    return Status::OK();
  }
  if (cmd == "gc") {
    // gc DEST_DIR — copy-collect live chunks into a fresh database dir.
    if (pos.size() != 2) {
      return Status::InvalidArgument("gc DEST_DIR | gc --in-place");
    }
    // Locked as ForkBase::Open locks a store directory, so a gc into one
    // that a serve or another CLI holds fails instead of interleaving its
    // segment appends and head-log snapshot with theirs.
    FB_ASSIGN_OR_RETURN(DirLock dest_lock, DirLock::Acquire(pos[1]));
    FB_ASSIGN_OR_RETURN(auto dst_store, FileChunkStore::Open(pos[1]));
    FB_ASSIGN_OR_RETURN(GcStats stats, CopyLive(db, dst_store.get()));
    FB_RETURN_IF_ERROR(dst_store->Flush());
    FB_RETURN_IF_ERROR(db.branches().WriteSnapshot(pos[1]));
    out << "live:    " << stats.live_chunks << " chunks, "
        << stats.live_bytes << " bytes\n"
        << "garbage: " << stats.garbage_chunks() << " chunks, "
        << stats.garbage_bytes() << " bytes reclaimed\n"
        << "compacted database written to " << pos[1] << "\n";
    return Status::OK();
  }
  if (cmd == "stat" && pos.size() == 2) {
    // stat KEY — per-object statistics (the demo's Stat verb).
    FB_ASSIGN_OR_RETURN(auto stat, db.StatObject(pos[1], ctx.branch));
    out << "type:         " << ValueTypeToString(stat.type) << "\n"
        << "entries:      " << stat.entries << "\n"
        << "tree height:  " << stat.shape.height << "\n"
        << "tree nodes:   " << stat.shape.total_nodes << " ("
        << stat.shape.leaf_nodes << " leaves, " << stat.shape.index_nodes
        << " index)\n"
        << "tree bytes:   " << stat.shape.total_bytes << "\n";
    return Status::OK();
  }
  if (cmd == "stat") {
    // Instance statistics: the same ToKeyValues surface the server's STAT
    // verb serves, so local and remote stat render identically.
    for (const auto& [k, v] : db.Stat().ToKeyValues()) {
      out << k << ": " << v << "\n";
    }
    return Status::OK();
  }
  return Status::InvalidArgument("unknown command " + cmd + "; see help");
}

}  // namespace

std::string CliUsage() {
  return
      "forkbase_cli [--db DIR] [--branch B] [--author A] [-m MSG]\n"
      "             [--prefetch-threads N] [--prefetch-depth N]\n"
      "             [--cache-mb N] [--fsync]\n"
      "             [--maintenance-threads N] [--segment-kb N]\n"
      "             [--tier-cold DIR] [--tier-policy write-through|write-back]\n"
      "             [--tier-hot-budget-mb N]\n"
      "             [--compress] [--delta-depth N] [--delta-window N]\n"
      "serve flags: [--max-outbox-kb N] [--handshake-timeout-ms N]\n"
      "             [--idle-timeout-ms N] [--request-timeout-ms N]\n"
      "             [--stall-timeout-ms N] [--session-rps N] [--global-rps N]\n"
      "             [--max-sessions N] [--max-queued-requests N]\n"
      "client flags: [--retries N] [--connect-timeout-ms N] [--io-timeout-ms N]\n"
      "             CMD ...\n"
      "  put KEY VALUE          commit a string value\n"
      "  put-blob KEY FILE      commit a file as a blob\n"
      "  put-csv KEY FILE       load a CSV dataset as a table\n"
      "  get KEY                print head value\n"
      "  head KEY               print head uid (Base32)\n"
      "  latest KEY             print every branch head\n"
      "  meta UID               print version metadata\n"
      "  history KEY            print first-parent history\n"
      "  branch KEY NEW [FROM]  create a branch\n"
      "  rename KEY FROM TO     rename a branch\n"
      "  delete-branch KEY B    delete a branch\n"
      "  branches KEY           list branches of a key\n"
      "  keys                   list all keys\n"
      "  merge KEY DST SRC      three-way merge SRC into DST\n"
      "  diff KEY A B           differential query between branches\n"
      "  export KEY FILE        export table as CSV / blob as bytes\n"
      "  push KEY FILE          export the branch head as a bundle\n"
      "  pull FILE              import a bundle and set the branch head\n"
      "  verify UID|KEY         tamper-evidence check\n"
      "  verify [UID|KEY] --deep  also re-materialize every stored record\n"
      "  verify-all             verify every branch head\n"
      "  gc DEST_DIR            copy-collect live chunks into DEST_DIR\n"
      "  gc --in-place          erase garbage chunks out of --db in place\n"
      "  stat [KEY]             storage statistics / per-object statistics\n"
      "network (ADDRESS is unix:PATH or tcp:HOST:PORT):\n"
      "  serve ADDRESS          serve this database to clients until SIGINT\n"
      "  push ADDRESS [KEY]     sync local branch heads to a server\n"
      "  pull ADDRESS [KEY]     sync a server's branch heads into --db\n"
      "  rput ADDRESS KEY VAL   commit a string on a remote server\n"
      "  rget ADDRESS KEY       read a value from a remote server\n"
      "  rstat ADDRESS          remote instance statistics\n"
      "  rgc ADDRESS            in-place GC sweep on a remote server\n"
      "  net-hold ADDRESS MS    chaos: hold a silent connection open\n";
}

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  CliContext ctx;
  Status parse = ParseArgs(args, &ctx);
  if (!parse.ok()) {
    err << parse.ToString() << "\n" << CliUsage();
    return 2;
  }
  if (ctx.positional.empty() || ctx.positional[0] == "help") {
    out << CliUsage();
    return 0;
  }
  std::optional<Status> status = RunClientCommand(ctx.positional[0], ctx, out);
  if (!status) {
    auto db_or = ForkBase::Open(ctx.db_dir, ctx.config);
    if (!db_or.ok()) {
      err << db_or.status().ToString() << "\n";
      return 1;
    }
    status = RunCommand(ctx.positional[0], ctx, **db_or, out);
  }
  if (!status->ok()) {
    err << status->ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace forkbase
