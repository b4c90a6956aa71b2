// serve_mixed: the shipped `forkbase_cli serve` on a unix socket, driven by
// two open-loop connections (skewed Get / small-value Commit), a replica
// connection that SyncPulls into an in-process ForkBase every kSyncEvery
// commits, then a closed-loop phase on the same two connections that
// measures capacity. Runnable through run.py but not in BENCHMARK.json: its
// timings move too much between runs on a 4-vCPU VM to hold a bound.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.h"
#include "net/client.h"
#include "net/server.h"
#include "net/sync.h"
#include "util/cpu_features.h"

extern char** environ;

namespace fbbench {

using forkbase::ForkBase;
using forkbase::ForkBaseClient;
using forkbase::Hash256;
using forkbase::Status;
using forkbase::StatusOr;
using forkbase::Value;

namespace {

constexpr double kMB = 1024.0 * 1024.0;
/// Offered load per open-loop connection, evenly spaced. Both connections
/// together offer a fraction of what the closed loop measures on a 4-vCPU
/// host, so that a request rarely waits behind the previous one on its own
/// connection (see perfbench/README.md).
constexpr double kRatePerConnection = 100;
constexpr int64_t kSpinNs = 200000;
constexpr int64_t kWindowNs = 250000000;
constexpr double kCommitShare = 0.1;
constexpr double kZipfTheta = 0.99;
constexpr double kOpenLoopShare = 0.7;

std::string KeyName(size_t k) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "key%06zu", k);
  return buf;
}

/// A child process (forkbase_cli) with stdout/stderr sent to a log file.
class Child {
 public:
  Child() = default;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child() { Stop(); }

  Status Start(const std::vector<std::string>& args, const std::string& log) {
    std::vector<char*> argv;
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const int rc = posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      return Status::IOError("cannot start " + args[0]);
    }
    return Status::OK();
  }

  /// Waits for the child to exit on its own; returns its exit code.
  int Wait() {
    int status = 0;
    if (pid_ <= 0) return -1;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  /// SIGTERM, then SIGKILL after 10 s; always reaps.
  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 1000; ++i) {
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

StatusOr<ForkBaseClient> ConnectWithin(const std::string& address,
                                       double seconds) {
  ForkBaseClient::Options opts;
  opts.connect_timeout_millis = 1000;
  opts.io_timeout_millis = 60000;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (true) {
    auto client = ForkBaseClient::Connect(address, opts);
    if (client.ok() || NowNs() > deadline) return client;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// Per-key history as the generators saw it acknowledged.
struct KeyModel {
  std::vector<Hash256> uids;
  std::vector<double> history_bytes;  ///< key+value bytes up to each uid
  std::string value;                   ///< value of uids.back()

  void Commit(const Hash256& uid, const std::string& key, std::string v) {
    const double before = history_bytes.empty() ? 0 : history_bytes.back();
    history_bytes.push_back(before + key.size() + v.size());
    uids.push_back(uid);
    value = std::move(v);
  }
  /// Position of `uid` in this key's history, or -1.
  int64_t Find(const Hash256& uid) const {
    for (size_t i = uids.size(); i-- > 0;) {
      if (uids[i] == uid) return static_cast<int64_t>(i);
    }
    return -1;
  }
};

/// Zipf(theta) over n ranks.
class Zipf {
 public:
  Zipf(size_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
  }
  size_t Sample(Rng* rng) const {
    const double u = rng->NextDouble() * cdf_.back();
    return std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  }

 private:
  std::vector<double> cdf_;
};

struct Observation {  // a replica head seen after a pull
  size_t key;
  Hash256 uid;
};

struct Pull {
  size_t ack_pos_at_start = 0;
  std::vector<Observation> seen;
};

}  // namespace

Report RunServeMixed(const Options& options) {
  Report r;
  const size_t kKeys = options.small ? 1000 : 10000;
  const uint64_t kWarmupCommits = options.small ? 40 : 200;
  const uint64_t kSyncEvery = 10;
  const int kSetups = 3;
  const double rate = options.small ? 100 : kRatePerConnection;
  ForkBase::Config config;  // the replica, in this process
  // Synchronous reads, as in archive_versions: the prefetch worker's
  // cross-thread handoff made the replica's Verify times swing by 20%.
  config.prefetch_threads = 0;
  r.Fact("sha256_backend", forkbase::ActiveSha256BackendName());
  r.Fact("offered_rate_per_connection", FormatDouble(rate));
  r.Fact("fsync", "off");
  if (options.cli.empty()) {
    r.Check(false, "serve_mixed needs --cli");
    return r;
  }

  {
    // The preload values are the first draws of Rng(seed) below.
    Rng rng(options.seed);
    InputDigest digest;
    for (size_t k = 0; k < kKeys; ++k) digest.Add(rng.Text(64 + rng.Uniform(65)));
    r.Fact("input_digest", digest.Hex());
  }
  std::vector<KeyModel> model(kKeys);
  std::mutex mu;  // guards model, ack_log
  std::vector<std::pair<size_t, size_t>> ack_log;  // (key, history index)

  // ---- setup: preload the keys into the replica store, let the shipped
  // CLI pull them into the server's directory, start `serve`, and run a
  // deterministic warm-up (sequential commits, then one pull).
  Stack replica;
  auto server = std::make_unique<Child>();
  std::optional<ForkBaseClient> conn[3];  // two generators, the replica
  std::vector<double> setups;
  Counters warm_before, warm_after;
  forkbase::SyncStats first_pull;
  double user_bytes = 0;
  std::string address;
  for (int attempt = 0; attempt < kSetups; ++attempt) {
    for (auto& c : conn) c.reset();
    server->Stop();
    replica = Stack{};
    const std::string replica_dir = options.dir + "/serve_replica";
    const std::string server_dir = options.dir + "/serve_server";
    for (const auto& d : {replica_dir, server_dir}) {
      std::filesystem::remove_all(d);
      std::filesystem::create_directories(d);
    }
    // Relative to the scratch directory (the working directory), which
    // keeps socket paths under the 108-byte sun_path limit.
    address = "unix:serve.sock";
    const std::string seed_address = "unix:seed.sock";
    Rng rng(options.seed);
    model.assign(kKeys, KeyModel{});
    ack_log.clear();
    user_bytes = 0;

    const int64_t start = NowNs();
    auto opened = OpenStack(replica_dir, config,
                            options.trace || options.inject == "tamper");
    if (!r.Check(opened.ok(), "open replica: " + opened.status().ToString())) {
      return r;
    }
    replica = std::move(*opened);
    for (size_t k = 0; k < kKeys; ++k) {
      std::string value = rng.Text(64 + rng.Uniform(65));
      auto uid = replica.db->Put(KeyName(k), Value::String(value));
      if (!r.Check(uid.ok(), "preload: " + uid.status().ToString())) return r;
      user_bytes += KeyName(k).size() + value.size();
      model[k].Commit(*uid, KeyName(k), std::move(value));
    }
    {
      auto seed_server =
          forkbase::ForkBaseServer::Start(replica.db.get(), seed_address);
      if (!r.Check(seed_server.ok(),
                   "seed server: " + seed_server.status().ToString())) {
        return r;
      }
      Child pull;
      Status s = pull.Start({options.cli, "--db", server_dir, "pull",
                             seed_address},
                            server_dir + "/../serve_pull.log");
      const int code = s.ok() ? pull.Wait() : -1;
      (*seed_server)->Stop();
      if (!r.Check(code == 0, "forkbase_cli pull exited " +
                                  std::to_string(code))) {
        return r;
      }
    }
    Status s = server->Start({options.cli, "--db", server_dir, "serve", address},
                             options.dir + "/serve_server.log");
    if (!r.Check(s.ok(), s.ToString())) return r;
    for (auto& c : conn) {
      auto client = ConnectWithin(address, 30);
      if (!r.Check(client.ok(), "connect: " + client.status().ToString())) {
        return r;
      }
      c.emplace(std::move(*client));
    }
    auto stat = conn[0]->Stat();
    if (!r.Check(stat.ok(), "stat: " + stat.status().ToString())) return r;
    warm_before = ParseCounters(*stat);
    for (uint64_t i = 0; i < kWarmupCommits; ++i) {
      const size_t k = (i * 7919) % kKeys;
      std::string value = rng.Text(64 + rng.Uniform(65));
      auto uid = conn[0]->Commit(KeyName(k), value, ForkBase::kDefaultBranch,
                                 "bench", "", nullptr);
      if (!r.Check(uid.ok(), "warm-up commit: " + uid.status().ToString())) {
        return r;
      }
      user_bytes += KeyName(k).size() + value.size();
      model[k].Commit(*uid, KeyName(k), std::move(value));
    }
    stat = conn[0]->Stat();
    if (!r.Check(stat.ok(), "stat: " + stat.status().ToString())) return r;
    warm_after = ParseCounters(*stat);
    auto pulled = forkbase::SyncPull(replica.db.get(), &*conn[2]);
    if (!r.Check(pulled.ok(), "warm-up pull: " + pulled.status().ToString())) {
      return r;
    }
    first_pull = *pulled;
    setups.push_back((NowNs() - start) / 1e9);
  }
  r.Add("setup_s", Median(setups), "s", setups.size());
  for (size_t k = 0; k < kKeys; ++k) {
    auto head = replica.db->Head(KeyName(k));
    r.Check(head.ok() && *head == model[k].uids.back(),
            "replica head of " + KeyName(k) + " after the warm-up pull");
  }
  if (options.inject == "tamper" && replica.upper != nullptr) {
    replica.upper->TamperReads();
  }

  // ---- timed phase.
  const int64_t phase_start = NowNs();
  const int64_t open_end =
      phase_start + static_cast<int64_t>(options.seconds * kOpenLoopShare * 1e9);
  const int64_t closed_end =
      phase_start + static_cast<int64_t>(options.seconds * 1e9);
  std::atomic<uint64_t> acked{0};
  std::condition_variable acked_cv;
  auto stat_before = conn[0]->Stat();
  const Counters phase_before =
      stat_before.ok() ? ParseCounters(*stat_before) : Counters{};

  struct GenResult {
    Samples commit_ms, read_us, commit_rtt_us, read_rtt_us;
    double late_ms_max = 0;
    std::vector<uint64_t> closed_ops;  ///< successes per kWindowNs window
    uint64_t closed_gets = 0;
    Report checks;
  };
  GenResult gens[2];
  std::atomic<bool> injected{false};
  auto generator = [&](int g) {
    GenResult& out = gens[g];
    ForkBaseClient& client = *conn[g];
    Rng rng(options.seed * 31 + 7 + g);
    // This connection owns every other key, in a seeded order.
    std::vector<size_t> keys;
    for (size_t k = g; k < kKeys; k += 2) keys.push_back(k);
    for (size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[rng.Uniform(i)]);
    }
    const Zipf zipf(keys.size(), kZipfTheta);
    int64_t due = phase_start + static_cast<int64_t>(g * 0.5e9 / rate);
    auto count_closed = [&](int64_t done) {
      const size_t w = static_cast<size_t>((done - open_end) / kWindowNs);
      if (out.closed_ops.size() <= w) out.closed_ops.resize(w + 1, 0);
      ++out.closed_ops[w];
    };
    auto one = [&](bool open_loop) {
      const size_t k = keys[zipf.Sample(&rng)];
      const bool commit = rng.NextDouble() < kCommitShare;
      std::string value = commit ? rng.Text(64 + rng.Uniform(65)) : "";
      if (open_loop) {
        // Sleep to just short of the due time, then spin: a plain sleep
        // overshoots by the timer slack, which would count as latency.
        const int64_t now = NowNs();
        if (now < due - kSpinNs) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(due - kSpinNs - now));
        }
        while (NowNs() < due) {
        }
      }
      const int64_t sent = NowNs();
      if (commit) {
        ScopedSpan span("commit");
        auto uid = client.Commit(KeyName(k), value, ForkBase::kDefaultBranch,
                                 "bench", "", nullptr);
        const int64_t done = NowNs();
        if (out.checks.Check(uid.ok(),
                             "commit " + KeyName(k) + ": " +
                                 uid.status().ToString())) {
          std::lock_guard<std::mutex> lock(mu);
          model[k].Commit(*uid, KeyName(k), std::move(value));
          ack_log.emplace_back(k, model[k].uids.size() - 1);
        }
        if (open_loop) {
          out.commit_ms.Add((done - due) / 1e6);
          out.commit_rtt_us.Add((done - sent) / 1e3);
          acked.fetch_add(1);
          acked_cv.notify_all();
        } else if (uid.ok()) {
          count_closed(done);
        }
      } else {
        ScopedSpan span("get");
        auto got = client.Get(KeyName(k), ForkBase::kDefaultBranch);
        const int64_t done = NowNs();
        if (got.ok() && options.inject == "wrong-read" &&
            !injected.exchange(true)) {
          got->value += "x";
        }
        bool ok = got.ok();
        if (ok) {
          std::lock_guard<std::mutex> lock(mu);
          ok = got->uid == model[k].uids.back() && got->value == model[k].value;
        }
        out.checks.Check(ok, "get " + KeyName(k) +
                                 (got.ok() ? " returned a stale or wrong value"
                                           : ": " + got.status().ToString()));
        if (open_loop) {
          out.read_us.Add((done - due) / 1e3);
          out.read_rtt_us.Add((done - sent) / 1e3);
        } else if (ok) {
          count_closed(done);
          ++out.closed_gets;
        }
      }
      if (open_loop) {
        out.late_ms_max = std::max(out.late_ms_max, (sent - due) / 1e6);
        due += static_cast<int64_t>(1e9 / rate);
      }
    };
    while (due < open_end) one(true);
    while (NowNs() < closed_end) one(false);
  };

  Samples sync_ms;
  double verify_bytes = 0, verify_s = 0;
  uint64_t verifies = 0;
  double pulled_chunks = 0, pulled_new = 0, round_trips = 0;
  std::vector<Pull> pulls;
  Report replica_checks;
  Counters closed_before;
  auto replicator = [&]() {
    ForkBaseClient& client = *conn[2];
    uint64_t threshold = kSyncEvery;
    size_t window_start = 0;  // ack-log position at the previous pull start
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu);
        acked_cv.wait_until(
            lock,
            std::chrono::steady_clock::time_point(
                std::chrono::nanoseconds(open_end)),
            [&] { return acked.load() >= threshold || NowNs() >= open_end; });
      }
      if (NowNs() >= open_end) {
        // Server counters at the switch to the closed loop, which runs no
        // pulls: its chunk lookups are the requests' own.
        auto stat = client.Stat();
        if (stat.ok()) closed_before = ParseCounters(*stat);
        break;
      }
      threshold = acked.load() + kSyncEvery;
      Pull pull;
      {
        std::lock_guard<std::mutex> lock(mu);
        pull.ack_pos_at_start = ack_log.size();
      }
      const int64_t t0 = NowNs();
      StatusOr<forkbase::SyncStats> stats = [&] {
        ScopedSpan span("SyncPull");
        return forkbase::SyncPull(replica.db.get(), &client);
      }();
      sync_ms.Add((NowNs() - t0) / 1e6);
      if (!replica_checks.Check(stats.ok() && stats->branches_conflicted == 0,
                                "pull: " + stats.status().ToString())) {
        continue;
      }
      pulled_chunks += stats->chunks_received;
      pulled_new += stats->remote_new_chunks;
      round_trips += stats->chunks_received > 0 ? 2 : 1;
      // Every key acknowledged since the previous pull started may have
      // moved; look at each on the replica and verify it.
      std::vector<size_t> keys;
      {
        std::lock_guard<std::mutex> lock(mu);
        for (size_t i = window_start; i < ack_log.size(); ++i) {
          keys.push_back(ack_log[i].first);
        }
      }
      window_start = pull.ack_pos_at_start;
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      for (size_t k : keys) {
        auto head = replica.db->Head(KeyName(k));
        if (!replica_checks.Check(head.ok(), "replica head of " + KeyName(k))) {
          continue;
        }
        pull.seen.push_back({k, *head});
        const int64_t v0 = NowNs();
        Status verified = [&] {
          ScopedSpan span("Verify");
          return replica.db->Verify(*head);
        }();
        verify_s += (NowNs() - v0) / 1e9;
        ++verifies;
        {
          std::lock_guard<std::mutex> lock(mu);
          const int64_t i = model[k].Find(*head);
          verify_bytes += model[k].history_bytes[i < 0 ? 0 : i];
        }
        replica_checks.Check(verified.ok(), "replica verify of " + KeyName(k) +
                                                ": " + verified.ToString());
      }
      pulls.push_back(std::move(pull));
    }
  };

  std::thread threads[] = {std::thread(generator, 0),
                           std::thread(generator, 1),
                           std::thread(replicator)};
  for (auto& t : threads) t.join();
  auto stat_after = conn[0]->Stat();
  const Counters phase_after =
      stat_after.ok() ? ParseCounters(*stat_after) : Counters{};

  for (auto* checks : {&gens[0].checks, &gens[1].checks, &replica_checks}) {
    r.attempted += checks->attempted;
    r.failed += checks->failed;
    r.correct = r.correct && checks->correct;
    r.errors.insert(r.errors.end(), checks->errors.begin(),
                    checks->errors.end());
  }

  // ---- quiescent checks: every head the replica showed after a pull was
  // acknowledged, and no older than what was acknowledged before the pull
  // started; a final pull leaves replica == server == model.
  {
    // Replica positions start at the warm-up state.
    std::vector<int64_t> warm(kKeys, 0);
    for (size_t k = 0; k < kKeys; ++k) {
      warm[k] = static_cast<int64_t>(model[k].uids.size()) - 1;
    }
    for (const auto& [k, i] : ack_log) {
      warm[k] = std::min<int64_t>(warm[k], static_cast<int64_t>(i) - 1);
    }
    size_t checked = 0;
    for (const Pull& p : pulls) {
      for (const Observation& o : p.seen) {
        const int64_t i = model[o.key].Find(o.uid);
        r.Check(i >= 0, "replica showed an unacknowledged head for " +
                            KeyName(o.key));
        warm[o.key] = std::max(warm[o.key], i);
      }
      for (; checked < p.ack_pos_at_start; ++checked) {
        const auto& [k, i] = ack_log[checked];
        r.Check(warm[k] >= static_cast<int64_t>(i),
                "replica missed an acknowledged commit of " + KeyName(k));
      }
    }
  }
  auto final_pull = forkbase::SyncPull(replica.db.get(), &*conn[2]);
  r.Check(final_pull.ok(), "final pull: " + final_pull.status().ToString());
  auto heads = conn[2]->Heads();
  r.Check(heads.ok() && heads->size() == kKeys, "server heads listing");
  if (heads.ok()) {
    for (const auto& h : *heads) {
      const size_t k = std::stoul(h.key.substr(3));
      auto local = replica.db->Head(h.key, h.branch);
      r.Check(k < kKeys && h.uid == model[k].uids.back() && local.ok() &&
                  *local == h.uid,
              "final heads of " + h.key + " differ");
    }
  }
  Status verified = final_pull.ok()
                        ? replica.db->Verify(model[0].uids.back())
                        : final_pull.status();
  r.Check(verified.ok(), "final replica verify: " + verified.ToString());
  for (auto& c : conn) {
    if (c) c->Close();
  }
  server->Stop();

  // ---- metrics.
  Samples commit_ms, read_us, commit_rtt, read_rtt;
  double late_max = 0;
  uint64_t closed_ops = 0;
  uint64_t closed_gets = 0;
  std::vector<double> windows;  // both connections' successes per window
  for (auto& g : gens) {
    late_max = std::max(late_max, g.late_ms_max);
    closed_gets += g.closed_gets;
    if (windows.size() < g.closed_ops.size()) {
      windows.resize(g.closed_ops.size(), 0);
    }
    for (size_t w = 0; w < g.closed_ops.size(); ++w) {
      windows[w] += g.closed_ops[w];
      closed_ops += g.closed_ops[w];
    }
  }
  // The last window is cut short by the deadline.
  if (windows.size() > 1) windows.pop_back();

  auto merge = [](const Samples& a, const Samples& b) {
    Samples out = a;
    out.Append(b);
    return out;
  };
  commit_ms = merge(gens[0].commit_ms, gens[1].commit_ms);
  read_us = merge(gens[0].read_us, gens[1].read_us);
  commit_rtt = merge(gens[0].commit_rtt_us, gens[1].commit_rtt_us);
  read_rtt = merge(gens[0].read_rtt_us, gens[1].read_rtt_us);

  r.AddLatency("commit_ms", commit_ms, 1, "ms");
  r.AddLatency("read_us", read_us, 1, "us");
  r.Add("history_ms.p50", sync_ms.Quantile(0.5), "ms", sync_ms.size());
  r.Add("sync_ms.p50", sync_ms.Quantile(0.5), "ms", sync_ms.size());
  r.Add("verify_mb_s", verify_s > 0 ? verify_bytes / kMB / verify_s : 0,
        "MB/s", verifies);
  // Median over short windows, so that a stall of the store's filesystem
  // moves one window rather than the whole phase's mean.
  r.Add("ops_per_s", Median(windows) * 1e9 / kWindowNs, "1/s", closed_ops);
  const double warm_user = user_bytes;
  r.Add("stored_bytes_per_user_byte",
        warm_after["storage_live_physical_bytes"] / warm_user, "ratio",
        kWarmupCommits);
  r.Fact("live_set_bytes", FormatDouble(warm_after["storage_live_physical_bytes"]));

  if (options.trace) {
    const auto t = TotalsByName(Tracer::Collect());
    r.Add("chunk.put_calls_per_commit",
          Delta(warm_after, warm_before, "put_calls") / kWarmupCommits, "count",
          kWarmupCommits);
    r.Add("chunk.put_mb_per_commit",
          Delta(warm_after, warm_before, "logical_bytes") / kMB / kWarmupCommits,
          "MB", kWarmupCommits);
    r.Add("chunk.segment_bytes_per_user_byte",
          warm_after["physical_bytes"] / warm_user, "ratio", kWarmupCommits);
    const double puts = Delta(phase_after, phase_before, "put_calls");
    r.Add("chunk.dedup_hit_ratio",
          puts > 0 ? Delta(phase_after, phase_before, "dedup_hits") / puts : 0,
          "ratio", static_cast<uint64_t>(puts));
    const double hits = Delta(phase_after, phase_before, "cache_hits");
    const double misses = Delta(phase_after, phase_before, "cache_misses");
    r.Add("chunk.cache_hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0, "ratio",
          static_cast<uint64_t>(hits + misses));
    const double lookups = Delta(phase_after, closed_before, "cache_hits") +
                           Delta(phase_after, closed_before, "cache_misses");
    r.Add("chunk.get_calls_per_read", closed_gets ? lookups / closed_gets : 0,
          "count", closed_gets);
    const ChunkIo device = Tracer::LayerTotal(kDevice);
    r.Add("chunk.put_us",
          device.put_calls ? device.put_ns / 1e3 / device.put_calls : 0, "us",
          device.put_calls);
    r.Add("chunk.device_get_us",
          device.get_calls ? device.get_ns / 1e3 / device.get_calls : 0, "us",
          device.get_calls);
    r.Add("chunk.device_read_mb",
          sync_ms.size() ? device.get_bytes / kMB / sync_ms.size() : 0, "MB",
          sync_ms.size());
    auto it = t.find("Verify");
    r.Add("store.verify_chunks_per_mb",
          it != t.end() && verify_bytes > 0
              ? it->second.io[kUpper].get_chunks / (verify_bytes / kMB)
              : 0,
          "count", verifies);
    const double batches =
        Delta(phase_after, phase_before, "commit_queue_batches");
    r.Add("store.commits_per_group",
          batches > 0
              ? Delta(phase_after, phase_before, "commit_queue_commits") /
                    batches
              : 0,
          "count", static_cast<uint64_t>(batches));
    r.Add("net.rtt_us.p50.get", read_rtt.Quantile(0.5), "us", read_rtt.size());
    r.Add("net.rtt_us.p50.commit", commit_rtt.Quantile(0.5), "us",
          commit_rtt.size());
    r.Add("net.gen_late_ms.max", late_max, "ms",
          commit_ms.size() + read_us.size());
    const double shed = Delta(phase_after, phase_before, "net_requests_shed");
    const double served =
        Delta(phase_after, phase_before, "net_requests_served");
    r.Add("net.shed_share", shed + served > 0 ? shed / (shed + served) : 0,
          "ratio", static_cast<uint64_t>(shed + served));
    const double n = sync_ms.size() ? sync_ms.size() : 1;
    r.Add("sync.rounds_per_pull", round_trips / n, "count", sync_ms.size());
    r.Add("sync.chunks_per_pull", pulled_chunks / n, "count", sync_ms.size());
    // The warm-up pull moves a fixed set of commits: an exact count.
    r.Add("sync.warmup_pull_chunks", first_pull.chunks_received, "count", 1);
    r.Add("sync.redundant_chunk_ratio",
          pulled_chunks > 0 ? 1 - pulled_new / pulled_chunks : 0, "ratio",
          sync_ms.size());
    FillMissing(&r);
  }
  return r;
}

}  // namespace fbbench
