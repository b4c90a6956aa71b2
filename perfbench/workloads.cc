// The three workloads. Each builds its inputs from the seed, sets the store
// up several times (setup_s is their median), runs its timed phase for
// options.seconds, checks every result against a shadow model, and reports
// the end-to-end metrics every workload shares:
//
//   setup_s                      open, load and preload until the first op
//   commit_ms.p50/.p90           the workload's write
//   read_us.p50/.p90             the workload's point read
//   history_ms.p50               the workload's query over history
//   verify_mb_s                  logical bytes verified / Verify time
//   ops_per_s                    timed-phase throughput
//   stored_bytes_per_user_byte   live physical bytes / user bytes written,
//                                taken at a fixed point of the op sequence
//
// A traced pass (options.trace) builds the decorated stack, splits compound
// verbs into the public calls that make them up, and adds the per-layer
// metrics. Exact counts are taken over a fixed prefix of the op sequence so
// that they repeat across runs of one seed.
#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "bench.h"
#include "net/client.h"
#include "net/server.h"
#include "net/sync.h"
#include "store/gc.h"
#include "util/cpu_features.h"

namespace fbbench {

using forkbase::CsvDocument;
using forkbase::ForkBase;
using forkbase::FTable;
using forkbase::Hash256;
using forkbase::Slice;
using forkbase::Status;
using forkbase::StatusOr;
using forkbase::Value;

namespace {

constexpr double kMB = 1024.0 * 1024.0;

std::string Fresh(const Options& options, const std::string& name) {
  const std::string path = options.dir + "/" + name;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

using Spn = ScopedSpan;

/// The hand-built stack carries the TimedStores: the traced pass needs
/// them for its spans, the tamper test for the altered reads.
bool Decorated(const Options& options) {
  return options.trace || options.inject == "tamper";
}

void CommonFacts(Report* r, const ForkBase::Config& config) {
  r->Fact("sha256_backend", forkbase::ActiveSha256BackendName());
  r->Fact("cache_bytes", std::to_string(config.cache_bytes));
  r->Fact("fsync", config.fsync ? "on" : "off");
}

double MeanSelfMs(const SpanTotals& t) {
  return t.count ? t.self_ns / 1e6 / t.count : 0;
}

/// Chunk-layer per-layer metrics every in-process traced pass reports.
void ChunkLayerMetrics(Report* r, const std::map<std::string, SpanTotals>& t,
                       const Counters& before, const Counters& after,
                       uint64_t ops, const std::string& read_span) {
  const ChunkIo upper = Tracer::LayerTotal(kUpper);
  const ChunkIo device = Tracer::LayerTotal(kDevice);
  r->Add("chunk.get_us",
         upper.get_calls ? upper.get_ns / 1e3 / upper.get_calls : 0, "us",
         upper.get_calls);
  const double puts = Delta(after, before, "put_calls");
  r->Add("chunk.dedup_hit_ratio",
         puts > 0 ? Delta(after, before, "dedup_hits") / puts : 0, "ratio",
         static_cast<uint64_t>(puts));
  r->Add("chunk.put_us",
         device.put_calls ? device.put_ns / 1e3 / device.put_calls : 0, "us",
         device.put_calls);
  const double hits = Delta(after, before, "cache_hits");
  const double misses = Delta(after, before, "cache_misses");
  r->Add("chunk.cache_hit_ratio",
         hits + misses > 0 ? hits / (hits + misses) : 0, "ratio",
         static_cast<uint64_t>(hits + misses));
  r->Add("chunk.device_get_us",
         device.get_calls ? device.get_ns / 1e3 / device.get_calls : 0, "us",
         device.get_calls);
  r->Add("chunk.device_read_mb", ops ? device.get_bytes / kMB / ops : 0, "MB",
         ops);
  auto read = t.find(read_span);
  if (read != t.end() && read->second.count > 0) {
    r->Add("chunk.get_calls_per_read",
           static_cast<double>(read->second.io[kUpper].get_chunks) /
               read->second.count,
           "count", read->second.count);
  }
}

}  // namespace

void SyncLayerMetrics(Report* r, const std::vector<forkbase::SyncStats>& pulls,
                      const forkbase::SyncStats& first_pull,
                      const Samples& heads_us) {
  double received = 0, fresh = 0, trips = 0;
  for (const auto& p : pulls) {
    received += p.chunks_received;
    fresh += p.remote_new_chunks;
    // The heads listing, plus the delta fetch when something was missing.
    trips += p.chunks_received > 0 ? 2 : 1;
  }
  const double n = pulls.empty() ? 1 : pulls.size();
  r->Add("sync.rounds_per_pull", trips / n, "count", pulls.size());
  r->Add("sync.chunks_per_pull", received / n, "count", pulls.size());
  r->Add("sync.redundant_chunk_ratio",
         received > 0 ? 1 - fresh / received : 0, "ratio", pulls.size());
  // The set-up pull copies a fixed state: an exact count.
  r->Add("sync.warmup_pull_chunks", first_pull.chunks_received, "count", 1);
  r->Add("net.rtt_us.p50.heads", heads_us.Quantile(0.5), "us",
         heads_us.size());
}

void FillMissing(Report* r) {
  static const std::pair<const char*, const char*> kAll[] = {
      {"chunk.put_calls_per_commit", "count"},
      {"chunk.put_mb_per_commit", "MB"},
      {"chunk.dedup_hit_ratio", "ratio"},
      {"chunk.put_us", "us"},
      {"chunk.get_calls_per_read", "count"},
      {"chunk.cache_hit_ratio", "ratio"},
      {"chunk.get_us", "us"},
      {"chunk.device_get_us", "us"},
      {"chunk.device_read_mb", "MB"},
      {"chunk.segment_bytes_per_user_byte", "ratio"},
      {"postree.commit_self_ms", "ms"},
      {"postree.history_self_ms", "ms"},
      {"postree.update_self_ms", "ms"},
      {"postree.build_self_ms_per_mb", "ms/MB"},
      {"postree.scan_self_ms_per_mb", "ms/MB"},
      {"postree.diff_nodes_loaded", "count"},
      {"postree.diff_nodes_pruned", "count"},
      {"postree.merge_self_ms", "ms"},
      {"store.publish_us", "us"},
      {"store.verify_chunks_per_mb", "count"},
      {"store.commits_per_group", "count"},
      {"gc.live_chunks", "count"},
      {"gc.swept_mb", "MB"},
      {"gc.pinned_skipped", "count"},
      {"gc.rewritten_mb_per_swept_mb", "ratio"},
      {"net.rtt_us.p50.get", "us"},
      {"net.rtt_us.p50.commit", "us"},
      {"net.rtt_us.p50.heads", "us"},
      {"net.gen_late_ms.max", "ms"},
      {"net.shed_share", "ratio"},
      {"sync.rounds_per_pull", "count"},
      {"sync.chunks_per_pull", "count"},
      {"sync.redundant_chunk_ratio", "ratio"},
      {"sync.warmup_pull_chunks", "count"},
  };
  for (const auto& [name, unit] : kAll) {
    if (r->Find(name) == nullptr) r->Add(name, 0, unit, 0);
  }
}

namespace {

// ===================================================================
// collab_table: the paper's collaboration demo (Figs. 3, 5, 6).
// ===================================================================

constexpr int kCollaborators = 4;

/// One dataset's shadow model: the loaded rows plus, per branch, the rows
/// that differ from them. Branch 0 is master, 1..4 the collaborators.
struct DatasetModel {
  std::string key;
  CsvDocument base;
  size_t csv_bytes = 0;
  std::vector<std::map<size_t, std::vector<std::string>>> overrides;

  const std::vector<std::string>& Row(int branch, size_t row) const {
    auto it = overrides[branch].find(row);
    return it == overrides[branch].end() ? base.rows[row] : it->second;
  }
  /// Rows whose content differs between two branches.
  size_t Differing(int a, int b) const {
    std::set<size_t> rows;
    for (const auto& [row, cells] : overrides[a]) rows.insert(row);
    for (const auto& [row, cells] : overrides[b]) rows.insert(row);
    size_t n = 0;
    for (size_t row : rows) n += Row(a, row) != Row(b, row) ? 1 : 0;
    return n;
  }
};

std::string BranchName(int branch) {
  return branch == 0 ? std::string(ForkBase::kDefaultBranch)
                     : "collab" + std::to_string(branch);
}

/// Collaborator c (1..4) owns rows [lo, hi); the last fifth is master's.
std::pair<size_t, size_t> OwnedRows(size_t rows, int branch) {
  const size_t part = rows / (kCollaborators + 1);
  const int slot = branch == 0 ? kCollaborators : branch - 1;
  return {slot * part, branch == 0 ? rows : (slot + 1) * part};
}

}  // namespace

Report RunCollabTable(const Options& options) {
  Report r;
  const size_t kDatasets = options.small ? 2 : 3;
  const size_t kRows = options.small ? 2000 : 20000;
  const size_t kColumns = 6;
  const int kSetups = 5;
  ForkBase::Config config;  // shipped defaults: 64 MiB cache, no fsync
  CommonFacts(&r, config);

  std::vector<DatasetModel> models(kDatasets);
  for (size_t d = 0; d < kDatasets; ++d) {
    models[d].key = "dataset" + std::to_string(d);
    models[d].base = GenerateTable(options.seed * 1000 + d, kRows, kColumns);
    models[d].csv_bytes = CsvBytes(models[d].base);
  }
  {
    InputDigest digest;
    for (const auto& m : models) digest.Add(m.base);
    r.Fact("input_digest", digest.Hex());
  }
  Rng rng(options.seed);

  // ---- setup: load every dataset, branch the collaborators, then move
  // master once so that every merge is a true three-way merge.
  std::vector<double> setups;
  Stack stack;
  // An off-site copy: an in-process server on the primary and a replica
  // that pulls each dataset after its merges.
  std::unique_ptr<forkbase::ForkBaseServer> server;
  std::optional<forkbase::ForkBaseClient> client;
  Stack replica;
  forkbase::SyncStats first_pull;
  double user_bytes = 0;
  for (int attempt = 0; attempt < kSetups; ++attempt) {
    client.reset();
    server.reset();
    replica = Stack{};
    stack = Stack{};
    const std::string dir = Fresh(options, "collab");
    const std::string replica_dir = Fresh(options, "collab_replica");
    const int64_t start = NowNs();
    auto opened = OpenStack(dir, config, Decorated(options));
    if (!r.Check(opened.ok(), "open: " + opened.status().ToString())) return r;
    stack = std::move(*opened);
    user_bytes = 0;
    Rng setup_rng(options.seed + 17);
    for (auto& m : models) {
      m.overrides.assign(kCollaborators + 1, {});
      auto put = stack.db->PutTableFromCsv(m.key, m.base);
      if (!r.Check(put.ok(), "load: " + put.status().ToString())) return r;
      user_bytes += m.csv_bytes;
      const auto [lo, hi] = OwnedRows(kRows, 0);
      const size_t row = lo + setup_rng.Uniform(hi - lo);
      std::vector<std::string> cells = m.base.rows[row];
      cells[1] = setup_rng.Words(3);
      for (int c = 1; c <= kCollaborators; ++c) {
        Status s = stack.db->Branch(m.key, BranchName(c));
        if (!r.Check(s.ok(), "branch: " + s.ToString())) return r;
      }
      auto edit = stack.db->UpdateTableCell(m.key, cells[0], 1, cells[1]);
      if (!r.Check(edit.ok(), "edit: " + edit.status().ToString())) return r;
      user_bytes += cells[1].size();
      m.overrides[0][row] = cells;
    }
    setups.push_back((NowNs() - start) / 1e9);

    // The replica's first copy is made outside setup_s: the server's
    // thread handoffs made that time bimodal (0.21 s or 0.27 s per run).
    auto started = forkbase::ForkBaseServer::Start(
        stack.db.get(), "unix:collab.sock");
    if (!r.Check(started.ok(), "server: " + started.status().ToString())) {
      return r;
    }
    server = std::move(*started);
    auto connected = forkbase::ForkBaseClient::Connect(server->address());
    if (!r.Check(connected.ok(), "connect: " + connected.status().ToString())) {
      return r;
    }
    client.emplace(std::move(*connected));
    auto replica_opened = OpenStack(replica_dir + "/store", config,
                                    Decorated(options));
    if (!r.Check(replica_opened.ok(),
                 "open replica: " + replica_opened.status().ToString())) {
      return r;
    }
    replica = std::move(*replica_opened);
    auto pulled = forkbase::SyncPull(replica.db.get(), &*client);
    if (!r.Check(pulled.ok(), "first pull: " + pulled.status().ToString())) {
      return r;
    }
    first_pull = *pulled;
  }
  r.Add("setup_s", Median(setups), "s", setups.size());
  if (options.inject == "tamper" && stack.upper != nullptr) {
    stack.upper->TamperReads();
  }

  // ---- timed phase: a closed loop of steps.
  Samples commit_ms, read_us, diff_ms, merge_ms, sync_ms, heads_us;
  std::vector<forkbase::SyncStats> pulls;
  double verify_bytes = 0, verify_s = 0;
  uint64_t verifies = 0, steps = 0;
  uint64_t diff_loaded = 0, diff_pruned = 0, diffs = 0;
  uint64_t merges = 0;
  const uint64_t kProbeSteps = 40;
  Counters probe_before, probe_after, phase_before;
  double probe_user_bytes = 0, probe_live = 0, probe_space = 0;
  uint64_t probe_commits = 0;
  bool injected = false;
  phase_before = StoreCounters(stack);
  probe_before = phase_before;
  const int64_t phase_start = NowNs();
  const int64_t deadline = phase_start + static_cast<int64_t>(options.seconds * 1e9);

  while (NowNs() < deadline || steps < kProbeSteps) {
    const size_t d = steps % kDatasets;
    const int c = 1 + static_cast<int>((steps / kDatasets) % kCollaborators);
    DatasetModel& m = models[d];
    const std::string branch = BranchName(c);

    // Commit one cell edit to the collaborator's own rows.
    const auto [lo, hi] = OwnedRows(kRows, c);
    const size_t row = lo + rng.Uniform(hi - lo);
    const size_t col = 1 + rng.Uniform(kColumns);
    std::vector<std::string> cells = m.Row(c, row);
    cells[col] = rng.Words(1 + rng.Uniform(3));
    int64_t t0 = NowNs();
    Status commit_status;
    if (!options.trace) {
      commit_status =
          stack.db->UpdateTableCell(m.key, cells[0], col, cells[col], branch)
              .status();
    } else {
      Spn span("commit");
      StatusOr<FTable> table = [&] {
        Spn s("GetTable");
        return stack.db->GetTable(m.key, branch);
      }();
      StatusOr<FTable> updated = table.status();
      if (table.ok()) {
        Spn s("UpdateCell");
        updated = table->UpdateCell(cells[0], col, cells[col]);
      }
      commit_status = updated.status();
      if (updated.ok()) {
        Spn s("Put");
        commit_status =
            stack.db->Put(m.key, Value::OfTable(updated->id()), branch)
                .status();
      }
    }
    commit_ms.Add((NowNs() - t0) / 1e6);
    r.Check(commit_status.ok(), "commit: " + commit_status.ToString());
    m.overrides[c][row] = cells;
    if (steps < kProbeSteps) {
      ++probe_commits;
      probe_user_bytes += cells[col].size();
    }

    // Read four rows at the collaborator's head.
    std::vector<size_t> rows(4);
    for (auto& x : rows) x = rng.Uniform(kRows);
    std::vector<std::optional<std::vector<std::string>>> got(rows.size());
    Status read_status;
    t0 = NowNs();
    {
      Spn span("read");
      StatusOr<FTable> table = [&] {
        Spn s("GetTable");
        return stack.db->GetTable(m.key, branch);
      }();
      read_status = table.status();
      for (size_t i = 0; i < rows.size() && table.ok(); ++i) {
        Spn s("GetRow");
        auto row_or = table->GetRow(RowKey(rows[i]));
        if (!row_or.ok()) {
          read_status = row_or.status();
          break;
        }
        got[i] = std::move(*row_or);
      }
    }
    read_us.Add((NowNs() - t0) / 1e3);
    if (options.inject == "wrong-read" && !injected && got[0]) {
      (*got[0])[1] += "x";
      injected = true;
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      r.Check(read_status.ok() && got[i] && *got[i] == m.Row(c, rows[i]),
              "read " + m.key + "@" + branch + " " + RowKey(rows[i]) +
                  (read_status.ok() ? " returned a stale or wrong row"
                                    : ": " + read_status.ToString()));
    }

    // Every 10th step: what has this collaborator changed?
    if (steps % 10 == 9) {
      t0 = NowNs();
      StatusOr<forkbase::ObjectDiff> diff = [&] {
        Spn s("Diff");
        return stack.db->Diff(m.key, branch, ForkBase::kDefaultBranch);
      }();
      diff_ms.Add((NowNs() - t0) / 1e6);
      const size_t expected = m.Differing(c, 0);
      r.Check(diff.ok() && diff->rows.size() == expected,
              "diff " + m.key + " " + branch + " vs master: " +
                  (diff.ok() ? std::to_string(diff->rows.size()) +
                                   " deltas, expected " +
                                   std::to_string(expected)
                             : diff.status().ToString()));
      if (diff.ok()) {
        diff_loaded += diff->metrics.nodes_loaded;
        diff_pruned += diff->metrics.nodes_pruned;
        ++diffs;
      }
    }

    // Every 40th step: merge the next collaborator into master, bring the
    // collaborator up to master, and verify master's head.
    if (steps % 40 == 39) {
      DatasetModel& mm = models[merges % kDatasets];
      const int mc =
          1 + static_cast<int>((merges / kDatasets) % kCollaborators);
      ++merges;
      t0 = NowNs();
      StatusOr<Hash256> merged = [&] {
        Spn s("Merge");
        return stack.db->Merge(mm.key, ForkBase::kDefaultBranch,
                               BranchName(mc));
      }();
      merge_ms.Add((NowNs() - t0) / 1e6);
      auto info = merged.ok() ? stack.db->Meta(*merged)
                              : StatusOr<forkbase::VersionInfo>(merged.status());
      r.Check(info.ok() && info->bases.size() == 2,
              "merge " + mm.key + " " + BranchName(mc) +
                  " was not a three-way merge: " + info.status().ToString());
      const auto [mlo, mhi] = OwnedRows(kRows, mc);
      for (const auto& [row_i, row_cells] : mm.overrides[mc]) {
        if (row_i >= mlo && row_i < mhi) mm.overrides[0][row_i] = row_cells;
      }
      StatusOr<Hash256> ff = [&] {
        Spn s("MergeFastForward");
        return stack.db->Merge(mm.key, BranchName(mc),
                               ForkBase::kDefaultBranch);
      }();
      mm.overrides[mc] = mm.overrides[0];
      r.Check(ff.ok() && merged.ok() && *ff == *merged,
              "fast-forward of " + BranchName(mc) + " to master");
      t0 = NowNs();
      Status verified = [&] {
        Spn s("Verify");
        return merged.ok() ? stack.db->Verify(*merged) : merged.status();
      }();
      verify_s += (NowNs() - t0) / 1e9;
      verify_bytes += mm.csv_bytes;
      ++verifies;
      r.Check(verified.ok(), "verify master of " + mm.key + ": " +
                                 verified.ToString());

      // Bring the replica's copy of this dataset up to date.
      t0 = NowNs();
      StatusOr<std::vector<forkbase::ForkBaseClient::BranchHead>> heads = [&] {
        Spn s("Heads");
        return client->Heads();
      }();
      heads_us.Add((NowNs() - t0) / 1e3);
      forkbase::SyncOptions only;
      only.keys.push_back(mm.key);
      t0 = NowNs();
      StatusOr<forkbase::SyncStats> pulled = [&] {
        Spn s("SyncPull");
        return forkbase::SyncPull(replica.db.get(), &*client, only);
      }();
      sync_ms.Add((NowNs() - t0) / 1e6);
      r.Check(heads.ok() && pulled.ok() && pulled->branches_conflicted == 0,
              "pull " + mm.key + ": " + pulled.status().ToString());
      if (pulled.ok()) {
        pulls.push_back(*pulled);
        for (int b = 0; b <= kCollaborators; ++b) {
          auto want = stack.db->Head(mm.key, BranchName(b));
          auto got = replica.db->Head(mm.key, BranchName(b));
          r.Check(want.ok() && got.ok() && *want == *got,
                  "replica head of " + mm.key + "@" + BranchName(b));
        }
        Status copy = replica.db->Verify(*merged);
        r.Check(copy.ok(), "replica verify of " + mm.key + ": " +
                               copy.ToString());
      }
    }

    ++steps;
    if (steps == kProbeSteps) {
      // Exact counts over a fixed prefix of the op sequence.
      stack.WaitForMaintenance();
      probe_after = StoreCounters(stack);
      probe_live = probe_after["storage_live_physical_bytes"];
      probe_space = stack.db->store()->space_used();
    }
  }
  const double elapsed = (NowNs() - phase_start) / 1e9;
  const Counters phase_after = StoreCounters(stack);

  r.AddLatency("commit_ms", commit_ms, 1, "ms");
  r.AddLatency("read_us", read_us, 1, "us");
  r.Add("history_ms.p50", diff_ms.Quantile(0.5), "ms", diff_ms.size());
  r.Add("diff_ms.p50", diff_ms.Quantile(0.5), "ms", diff_ms.size());
  r.Add("merge_ms.p50", merge_ms.Quantile(0.5), "ms", merge_ms.size());
  r.Add("sync_ms.p50", sync_ms.Quantile(0.5), "ms", sync_ms.size());
  r.Add("verify_mb_s", verify_s > 0 ? verify_bytes / kMB / verify_s : 0,
        "MB/s", verifies);
  r.Add("ops_per_s", steps / elapsed, "1/s", steps);
  const double probe_user = user_bytes + probe_user_bytes;
  r.Add("stored_bytes_per_user_byte", probe_live / probe_user, "ratio",
        kProbeSteps);
  r.Fact("live_set_bytes", FormatDouble(probe_live));
  r.Fact("datasets", std::to_string(kDatasets) + " x " +
                         std::to_string(kRows) + " rows, " +
                         FormatDouble(models[0].csv_bytes / kMB) + " MB each");

  if (options.trace) {
    const auto t = TotalsByName(Tracer::Collect());
    r.Add("chunk.put_calls_per_commit",
          Delta(probe_after, probe_before, "put_calls") / probe_commits,
          "count", probe_commits);
    r.Add("chunk.put_mb_per_commit",
          Delta(probe_after, probe_before, "logical_bytes") / kMB /
              probe_commits,
          "MB", probe_commits);
    r.Add("chunk.segment_bytes_per_user_byte", probe_space / probe_user,
          "ratio", kProbeSteps);
    ChunkLayerMetrics(&r, t, phase_before, phase_after, steps, "read");
    auto get = [&](const char* name) {
      auto it = t.find(name);
      return it == t.end() ? SpanTotals{} : it->second;
    };
    const SpanTotals update = get("UpdateCell");
    r.Add("postree.update_self_ms", MeanSelfMs(update), "ms", update.count);
    r.Add("postree.commit_self_ms", MeanSelfMs(update), "ms", update.count);
    const SpanTotals diff = get("Diff");
    r.Add("postree.history_self_ms", MeanSelfMs(diff), "ms", diff.count);
    r.Add("postree.diff_nodes_loaded",
          diffs ? static_cast<double>(diff_loaded) / diffs : 0, "count",
          diffs);
    r.Add("postree.diff_nodes_pruned",
          diffs ? static_cast<double>(diff_pruned) / diffs : 0, "count",
          diffs);
    const SpanTotals merge = get("Merge");
    r.Add("postree.merge_self_ms", MeanSelfMs(merge), "ms", merge.count);
    const SpanTotals put = get("Put");
    r.Add("store.publish_us", put.count ? put.duration_ns / 1e3 / put.count : 0,
          "us", put.count);
    const SpanTotals verify = get("Verify");
    r.Add("store.verify_chunks_per_mb",
          verify_bytes > 0 ? verify.io[kUpper].get_chunks / (verify_bytes / kMB)
                           : 0,
          "count", verify.count);
    SyncLayerMetrics(&r, pulls, first_pull, heads_us);
    FillMissing(&r);
  }
  return r;
}

// ===================================================================
// archive_versions: Fig. 4's version archive with a retention window.
// ===================================================================

namespace {

/// The archive's shadow model: the first version plus every later edit.
struct ArchiveModel {
  CsvDocument base;
  struct Edit {
    uint64_t version;
    size_t column;
    std::string value;
  };
  std::unordered_map<size_t, std::vector<Edit>> edits;  // by row
  std::vector<size_t> csv_bytes;                          // by version

  std::vector<std::string> Row(size_t row, uint64_t version) const {
    std::vector<std::string> cells = base.rows[row];
    auto it = edits.find(row);
    if (it == edits.end()) return cells;
    for (const Edit& e : it->second) {
      if (e.version <= version) cells[e.column] = e.value;
    }
    return cells;
  }
};

std::string VersionBranch(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "v%06llu", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

Report RunArchiveVersions(const Options& options) {
  Report r;
  const size_t kRows = options.small ? 6000 : 100000;  // ~13 MiB of CSV
  const size_t kColumns = 6;
  const uint64_t kWindow = 4;       // retained versions
  const uint64_t kSweepEvery = 4;   // loads between SweepInPlace calls
  // A verify costs about a load; every 4th keeps ~100 loads in 30 s.
  const uint64_t kVerifyEvery = 4;
  const size_t kEditsPerVersion = 16;
  const int kSetups = 3;
  const std::string kKey = "archive";

  ArchiveModel model;
  model.base = GenerateTable(options.seed * 7919 + 3, kRows, kColumns);
  const size_t base_bytes = CsvBytes(model.base);
  {
    InputDigest digest;
    digest.Add(model.base);
    r.Fact("input_digest", digest.Hex());
  }
  ForkBase::Config config;
  // At most a quarter of the live set (one version plus the retained
  // versions' edits), so scans and verifies of older versions miss.
  config.cache_bytes = std::max<size_t>(base_bytes / 5, 256 << 10);
  // Synchronous reads. With the shipped single prefetch worker every scan
  // and verify batch waits on a cross-thread handoff; on the 4-vCPU host
  // that made scans 1.5x slower and moved their per-run medians by 40%.
  config.prefetch_threads = 0;
  CommonFacts(&r, config);

  Rng rng(options.seed);
  CsvDocument current = model.base;
  uint64_t next_version = 0;
  // Makes the next version: a fixed number of cell edits on the latest.
  auto next = [&]() {
    const uint64_t v = next_version++;
    size_t bytes = v == 0 ? base_bytes : model.csv_bytes.back();
    if (v > 0) {
      for (size_t e = 0; e < kEditsPerVersion; ++e) {
        const size_t row = rng.Uniform(kRows);
        const size_t col = 1 + rng.Uniform(kColumns);
        std::string value = rng.Words(3);
        bytes = bytes - current.rows[row][col].size() + value.size();
        current.rows[row][col] = value;
        model.edits[row].push_back({v, col, std::move(value)});
      }
    }
    model.csv_bytes.push_back(bytes);
    return v;
  };

  Stack stack;
  auto load = [&](uint64_t v) -> Status {
    if (!options.trace) {
      return stack.db->PutTableFromCsv(kKey, current, 0, VersionBranch(v))
          .status();
    }
    Spn span("load");
    StatusOr<FTable> table = [&] {
      Spn s("FromCsv");
      return FTable::FromCsv(stack.db->store(), current, 0);
    }();
    if (!table.ok()) return table.status();
    Spn s("Put");
    return stack.db->Put(kKey, Value::OfTable(table->id()), VersionBranch(v))
        .status();
  };

  // ---- setup: fill the retention window.
  std::vector<double> setups;
  double user_bytes = 0;
  for (int attempt = 0; attempt < kSetups; ++attempt) {
    stack = Stack{};
    // Every attempt loads the same versions.
    rng = Rng(options.seed);
    current = model.base;
    next_version = 0;
    model.edits.clear();
    model.csv_bytes.clear();
    const std::string dir = Fresh(options, "archive");
    const int64_t start = NowNs();
    auto opened = OpenStack(dir, config, Decorated(options));
    if (!r.Check(opened.ok(), "open: " + opened.status().ToString())) return r;
    stack = std::move(*opened);
    user_bytes = 0;
    for (uint64_t i = 0; i < kWindow; ++i) {
      const uint64_t v = next();
      Status s = load(v);
      if (!r.Check(s.ok(), "load: " + s.ToString())) return r;
      user_bytes += model.csv_bytes[v];
    }
    setups.push_back((NowNs() - start) / 1e9);
  }
  r.Add("setup_s", Median(setups), "s", setups.size());
  if (options.inject == "tamper" && stack.upper != nullptr) {
    stack.upper->TamperReads();
  }

  // ---- timed phase.
  Samples load_ms, read_us, scan_ms, gc_ms;
  double ingest_bytes = 0, ingest_s = 0, scan_bytes = 0, scan_s = 0;
  double verify_bytes = 0, verify_s = 0;
  uint64_t loads = 0, verifies = 0;
  std::vector<forkbase::GcStats> sweeps;
  const uint64_t kProbeLoads = kSweepEvery;
  Counters probe_before = StoreCounters(stack), probe_after;
  const Counters phase_before = probe_before;
  double probe_live = 0, probe_space = 0, probe_user = 0;
  bool injected = false;
  const int64_t phase_start = NowNs();
  const int64_t deadline =
      phase_start + static_cast<int64_t>(options.seconds * 1e9);

  while (NowNs() < deadline || loads < kProbeLoads) {
    const uint64_t v = next();
    int64_t t0 = NowNs();
    Status s = load(v);
    const double took = (NowNs() - t0) / 1e9;
    load_ms.Add(took * 1e3);
    ingest_s += took;
    ingest_bytes += model.csv_bytes[v];
    user_bytes += model.csv_bytes[v];
    r.Check(s.ok(), "load " + VersionBranch(v) + ": " + s.ToString());
    ++loads;

    // Retire the version that fell out of the window.
    s = stack.db->DeleteBranch(kKey, VersionBranch(v - kWindow));
    r.Check(s.ok(), "delete " + VersionBranch(v - kWindow) + ": " +
                        s.ToString());
    if (loads % kSweepEvery == 0) {
      t0 = NowNs();
      StatusOr<forkbase::GcStats> gc = [&] {
        Spn span("gc");
        StatusOr<forkbase::GcStats> g = [&] {
          Spn s2("SweepInPlace");
          return forkbase::SweepInPlace(stack.db.get());
        }();
        Spn s2("WaitForMaintenance");
        stack.WaitForMaintenance();
        return g;
      }();
      gc_ms.Add((NowNs() - t0) / 1e6);
      r.Check(gc.ok(), "sweep: " + gc.status().ToString());
      if (gc.ok()) sweeps.push_back(*gc);
    }
    if (loads == kProbeLoads) {
      stack.WaitForMaintenance();
      probe_after = StoreCounters(stack);
      probe_live = probe_after["storage_live_physical_bytes"];
      probe_space = stack.db->store()->space_used();
      probe_user = user_bytes;
    }

    // Query the oldest retained version: point reads, a scan, a verify.
    const uint64_t old = v - kWindow + 1;
    const std::string branch = VersionBranch(old);
    std::vector<size_t> rows(4);
    for (auto& x : rows) x = rng.Uniform(kRows);
    std::vector<std::optional<std::vector<std::string>>> got(rows.size());
    Status read_status;
    t0 = NowNs();
    {
      Spn span("read");
      StatusOr<FTable> table = [&] {
        Spn s2("GetTable");
        return stack.db->GetTable(kKey, branch);
      }();
      read_status = table.status();
      for (size_t i = 0; i < rows.size() && table.ok(); ++i) {
        Spn s2("GetRow");
        auto row_or = table->GetRow(RowKey(rows[i]));
        if (!row_or.ok()) {
          read_status = row_or.status();
          break;
        }
        got[i] = std::move(*row_or);
      }
    }
    read_us.Add((NowNs() - t0) / 1e3);
    if (options.inject == "wrong-read" && !injected && got[0]) {
      (*got[0])[1] += "x";
      injected = true;
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      r.Check(read_status.ok() && got[i] && *got[i] == model.Row(rows[i], old),
              "read " + branch + " " + RowKey(rows[i]) +
                  (read_status.ok() ? " returned a wrong row"
                                    : ": " + read_status.ToString()));
    }

    size_t scanned_rows = 0, mismatched = 0;
    double bytes = 0;
    t0 = NowNs();
    Status scan_status = [&] {
      Spn span("scan");
      StatusOr<FTable> table = [&] {
        Spn s2("GetTable");
        return stack.db->GetTable(kKey, branch);
      }();
      if (!table.ok()) return table.status();
      Spn s2("Scan");
      return table->Scan(
          [&](Slice key, const std::vector<std::string>& cells) -> Status {
            bytes += RowBytes(cells);
            ++scanned_rows;
            // Rows some version edited must read as of this version.
            const size_t row = std::strtoul(key.ToString().c_str() + 1,
                                            nullptr, 10);
            if (model.edits.count(row) > 0 && cells != model.Row(row, old)) {
              ++mismatched;
            }
            return Status::OK();
          });
    }();
    const double scan_took = (NowNs() - t0) / 1e9;
    scan_ms.Add(scan_took * 1e3);
    scan_s += scan_took;
    scan_bytes += bytes;
    r.Check(scan_status.ok() && scanned_rows == kRows && mismatched == 0 &&
                static_cast<size_t>(bytes) + RowBytes(model.base.header) ==
                    model.csv_bytes[old],
            "scan " + branch + ": " + std::to_string(scanned_rows) +
                " rows, " + std::to_string(mismatched) + " wrong, " +
                FormatDouble(bytes) + " bytes " + scan_status.ToString());

    if (loads % kVerifyEvery == 0) {
      t0 = NowNs();
      Status verified = [&] {
        Spn span("verify");
        StatusOr<Hash256> head = stack.db->Head(kKey, branch);
        if (!head.ok()) return head.status();
        Spn s2("Verify");
        return stack.db->Verify(*head);
      }();
      verify_s += (NowNs() - t0) / 1e9;
      verify_bytes += model.csv_bytes[old];
      ++verifies;
      r.Check(verified.ok(), "verify " + branch + ": " + verified.ToString());
    }
  }
  const double elapsed = (NowNs() - phase_start) / 1e9;
  const Counters phase_after = StoreCounters(stack);

  r.AddLatency("commit_ms", load_ms, 1, "ms");
  r.AddLatency("read_us", read_us, 1, "us");
  r.Add("history_ms.p50", scan_ms.Quantile(0.5), "ms", scan_ms.size());
  r.Add("verify_mb_s", verify_s > 0 ? verify_bytes / kMB / verify_s : 0,
        "MB/s", verifies);
  r.Add("ops_per_s", loads / elapsed, "1/s", loads);
  r.Add("stored_bytes_per_user_byte", probe_live / probe_user, "ratio",
        kProbeLoads);
  r.Add("ingest_mb_s", ingest_s > 0 ? ingest_bytes / kMB / ingest_s : 0,
        "MB/s", loads);
  r.Add("scan_mb_s", scan_s > 0 ? scan_bytes / kMB / scan_s : 0, "MB/s",
        scan_ms.size());
  r.Add("gc_ms.p50", gc_ms.Quantile(0.5), "ms", gc_ms.size());
  r.Fact("live_set_bytes", FormatDouble(probe_live));
  r.Fact("version_csv_bytes", std::to_string(base_bytes));

  if (options.trace) {
    const auto t = TotalsByName(Tracer::Collect());
    r.Add("chunk.put_calls_per_commit",
          Delta(probe_after, probe_before, "put_calls") / kProbeLoads, "count",
          kProbeLoads);
    r.Add("chunk.put_mb_per_commit",
          Delta(probe_after, probe_before, "logical_bytes") / kMB / kProbeLoads,
          "MB", kProbeLoads);
    r.Add("chunk.segment_bytes_per_user_byte", probe_space / probe_user,
          "ratio", kProbeLoads);
    ChunkLayerMetrics(&r, t, phase_before, phase_after, loads, "read");
    auto get = [&](const char* name) {
      auto it = t.find(name);
      return it == t.end() ? SpanTotals{} : it->second;
    };
    const SpanTotals build = get("FromCsv");
    r.Add("postree.commit_self_ms", MeanSelfMs(build), "ms", build.count);
    r.Add("postree.build_self_ms_per_mb",
          ingest_bytes > 0 ? build.self_ns / 1e6 / (ingest_bytes / kMB) : 0,
          "ms/MB", build.count);
    const SpanTotals scan = get("Scan");
    r.Add("postree.history_self_ms", MeanSelfMs(scan), "ms", scan.count);
    r.Add("postree.scan_self_ms_per_mb",
          scan_bytes > 0 ? scan.self_ns / 1e6 / (scan_bytes / kMB) : 0,
          "ms/MB", scan.count);
    const SpanTotals put = get("Put");
    r.Add("store.publish_us", put.count ? put.duration_ns / 1e3 / put.count : 0,
          "us", put.count);
    const SpanTotals verify = get("Verify");
    r.Add("store.verify_chunks_per_mb",
          verify_bytes > 0 ? verify.io[kUpper].get_chunks / (verify_bytes / kMB)
                           : 0,
          "count", verify.count);
    double live = 0, swept = 0, pinned = 0;
    for (const auto& g : sweeps) {
      live += g.live_chunks;
      swept += g.swept_bytes;
      pinned += g.pinned_skipped;
    }
    const double n = sweeps.empty() ? 1 : sweeps.size();
    r.Add("gc.live_chunks", live / n, "count", sweeps.size());
    r.Add("gc.swept_mb", swept / kMB / n, "MB", sweeps.size());
    r.Add("gc.pinned_skipped", pinned / n, "count", sweeps.size());
    r.Add("gc.rewritten_mb_per_swept_mb",
          swept > 0 ? Delta(phase_after, phase_before,
                            "maintenance_rewritten_bytes") / swept
                    : 0,
          "ratio", sweeps.size());
    FillMissing(&r);
  }
  return r;
}

}  // namespace fbbench
