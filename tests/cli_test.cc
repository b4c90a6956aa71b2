// End-to-end tests of the CLI semantic view, driving RunCli() directly.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "cli/cli.h"
#include "store/forkbase.h"
#include "util/csv.h"
#include "util/datagen.h"

namespace forkbase {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_dir_ = ::testing::TempDir() + "/fb_cli_db";
    std::filesystem::remove_all(db_dir_);
  }
  void TearDown() override { std::filesystem::remove_all(db_dir_); }

  // Runs the CLI; returns exit code, captures stdout into `out`.
  int Run(std::vector<std::string> args, std::string* out = nullptr,
          std::string* err = nullptr) {
    args.insert(args.begin(), {"--db", db_dir_});
    std::ostringstream oss, ess;
    int rc = RunCli(args, oss, ess);
    if (out) *out = oss.str();
    if (err) *err = ess.str();
    return rc;
  }

  std::string db_dir_;
};

TEST_F(CliTest, HelpPrintsUsage) {
  std::string out;
  EXPECT_EQ(Run({"help"}, &out), 0);
  EXPECT_NE(out.find("put-csv"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  std::string err;
  EXPECT_NE(Run({"frobnicate"}, nullptr, &err), 0);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, PutGetRoundTrip) {
  std::string uid, value;
  EXPECT_EQ(Run({"put", "greeting", "hello world"}, &uid), 0);
  EXPECT_EQ(uid.size(), 53u);  // 52 Base32 chars + newline
  EXPECT_EQ(Run({"get", "greeting"}, &value), 0);
  EXPECT_EQ(value, "hello world\n");
}

TEST_F(CliTest, StatePersistsAcrossInvocations) {
  EXPECT_EQ(Run({"put", "k", "v1"}), 0);
  EXPECT_EQ(Run({"put", "k", "v2"}), 0);
  std::string history;
  EXPECT_EQ(Run({"history", "k"}), 0);
  EXPECT_EQ(Run({"history", "k"}, &history), 0);
  EXPECT_EQ(std::count(history.begin(), history.end(), '\n'), 2);
}

TEST_F(CliTest, BranchDiffMergeFlow) {
  // Load a CSV, branch it, edit the branch via a second CSV, diff, merge.
  CsvGenOptions opts;
  opts.num_rows = 50;
  CsvDocument ds = GenerateCsv(opts);
  std::string csv_path = ::testing::TempDir() + "/cli_ds.csv";
  {
    std::ofstream f(csv_path);
    f << WriteCsv(ds);
  }
  EXPECT_EQ(Run({"put-csv", "ds", csv_path}), 0);
  EXPECT_EQ(Run({"branch", "ds", "vendor"}), 0);

  CsvDocument edited = EditOneWord(ds, 10, 2, "EDITED");
  std::string csv2_path = ::testing::TempDir() + "/cli_ds2.csv";
  {
    std::ofstream f(csv2_path);
    f << WriteCsv(edited);
  }
  EXPECT_EQ(Run({"--branch", "vendor", "put-csv", "ds", csv2_path}), 0);

  std::string diff;
  EXPECT_EQ(Run({"diff", "ds", "master", "vendor"}, &diff), 0);
  EXPECT_NE(diff.find("~ "), std::string::npos);

  std::string branches;
  EXPECT_EQ(Run({"branches", "ds"}, &branches), 0);
  EXPECT_EQ(branches, "master\nvendor\n");

  std::string merged_uid;
  EXPECT_EQ(Run({"merge", "ds", "master", "vendor"}, &merged_uid), 0);
  std::string diff2;
  EXPECT_EQ(Run({"diff", "ds", "master", "vendor"}, &diff2), 0);
  EXPECT_EQ(diff2, "identical\n");

  std::filesystem::remove(csv_path);
  std::filesystem::remove(csv2_path);
}

TEST_F(CliTest, ExportReproducesCsv) {
  CsvGenOptions opts;
  opts.num_rows = 30;
  CsvDocument ds = GenerateCsv(opts);
  std::string in_path = ::testing::TempDir() + "/cli_in.csv";
  std::string out_path = ::testing::TempDir() + "/cli_out.csv";
  {
    std::ofstream f(in_path);
    f << WriteCsv(ds);
  }
  EXPECT_EQ(Run({"put-csv", "ds", in_path}), 0);
  EXPECT_EQ(Run({"export", "ds", out_path}), 0);
  std::ifstream f(out_path);
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(), WriteCsv(ds));
  std::filesystem::remove(in_path);
  std::filesystem::remove(out_path);
}

TEST_F(CliTest, VerifyAndMetaAndLatest) {
  std::string uid_line;
  EXPECT_EQ(Run({"put", "k", "value", "-m", "first commit", "--author",
                 "tester"},
                &uid_line),
            0);
  std::string uid = uid_line.substr(0, uid_line.size() - 1);

  std::string verify;
  EXPECT_EQ(Run({"verify", uid}, &verify), 0);
  EXPECT_EQ(verify, "OK " + uid + "\n");
  EXPECT_EQ(Run({"verify", "k"}, &verify), 0);  // verify by key/branch head

  std::string meta;
  EXPECT_EQ(Run({"meta", uid}, &meta), 0);
  EXPECT_NE(meta.find("author:  tester"), std::string::npos);
  EXPECT_NE(meta.find("first commit"), std::string::npos);

  std::string latest;
  EXPECT_EQ(Run({"latest", "k"}, &latest), 0);
  EXPECT_NE(latest.find("master\t" + uid), std::string::npos);
}

TEST_F(CliTest, StatReportsDedup) {
  std::string blob_path = ::testing::TempDir() + "/cli_blob.bin";
  {
    std::ofstream f(blob_path, std::ios::binary);
    std::string data(100000, 'a');
    f << data;
  }
  EXPECT_EQ(Run({"put-blob", "b1", blob_path}), 0);
  EXPECT_EQ(Run({"put-blob", "b2", blob_path}), 0);  // identical content
  std::string stat;
  EXPECT_EQ(Run({"stat"}, &stat), 0);
  EXPECT_NE(stat.find("dedup_hits"), std::string::npos);
  // Two identical 100 KB blobs must be stored once (physical bytes well
  // under 2x the blob size; the repetitive content itself dedups too).
  size_t pos = stat.find("physical_bytes:");
  ASSERT_NE(pos, std::string::npos);
  uint64_t physical = std::stoull(stat.substr(pos + 15));
  EXPECT_LT(physical, 120000u);
  std::filesystem::remove(blob_path);
}

TEST_F(CliTest, RenameAndDeleteBranch) {
  EXPECT_EQ(Run({"put", "k", "v"}), 0);
  EXPECT_EQ(Run({"branch", "k", "dev"}), 0);
  EXPECT_EQ(Run({"rename", "k", "dev", "feature"}), 0);
  std::string branches;
  EXPECT_EQ(Run({"branches", "k"}, &branches), 0);
  EXPECT_EQ(branches, "feature\nmaster\n");
  EXPECT_EQ(Run({"delete-branch", "k", "feature"}), 0);
  EXPECT_EQ(Run({"branches", "k"}, &branches), 0);
  EXPECT_EQ(branches, "master\n");
}

TEST_F(CliTest, HostileNamesKeepTheDirectoryUsableAcrossRestarts) {
  // Every invocation is a fresh process over the directory: tabs, newlines
  // and NUL bytes in keys and branches must not make a later open fail.
  const std::string key = std::string("k\tey\n\0x", 8);
  const std::string branch = "dev\nbranch\t";
  EXPECT_EQ(Run({"put", key, "v1"}), 0);
  EXPECT_EQ(Run({"branch", key, branch}), 0);
  EXPECT_EQ(Run({"--branch", branch, "put", key, "v2"}), 0);
  std::string out, err;
  EXPECT_EQ(Run({"put", "plain", "p"}, &out, &err), 0) << err;
  EXPECT_EQ(Run({"get", key}, &out, &err), 0) << err;
  EXPECT_EQ(out, "v1\n");
  EXPECT_EQ(Run({"--branch", branch, "get", key}, &out), 0);
  EXPECT_EQ(out, "v2\n");
  EXPECT_EQ(Run({"rename", key, branch, "re\tnamed"}), 0);
  EXPECT_EQ(Run({"branches", key}, &out), 0);
  EXPECT_EQ(out, "master\nre\tnamed\n");
  EXPECT_EQ(Run({"verify-all"}, &out, &err), 0) << err;
  EXPECT_NE(out.find("3/3 heads verified"), std::string::npos);
}

TEST_F(CliTest, VerifyAllSweepsHeads) {
  EXPECT_EQ(Run({"put", "a", "1"}), 0);
  EXPECT_EQ(Run({"put", "b", "2"}), 0);
  EXPECT_EQ(Run({"branch", "a", "dev"}), 0);
  std::string out;
  EXPECT_EQ(Run({"verify-all"}, &out), 0);
  EXPECT_NE(out.find("3/3 heads verified"), std::string::npos);
}

TEST_F(CliTest, GcCompactsIntoNewDirectory) {
  // Create a key, then delete its only branch -> garbage.
  CsvGenOptions opts;
  opts.num_rows = 300;
  std::string csv_path = ::testing::TempDir() + "/cli_gc.csv";
  {
    std::ofstream f(csv_path);
    f << WriteCsv(GenerateCsv(opts));
  }
  EXPECT_EQ(Run({"put-csv", "keep", csv_path}), 0);
  EXPECT_EQ(Run({"put-csv", "drop", csv_path}), 0);
  EXPECT_EQ(Run({"put", "drop", "diverge"}), 0);  // unique chunks on 'drop'
  EXPECT_EQ(Run({"delete-branch", "drop", "master"}), 0);

  std::string dest = ::testing::TempDir() + "/cli_gc_dest";
  std::filesystem::remove_all(dest);
  std::string out;
  EXPECT_EQ(Run({"gc", dest}, &out), 0);
  EXPECT_NE(out.find("compacted database written"), std::string::npos);

  // The compacted database is fully usable.
  std::ostringstream oss, ess;
  int rc = RunCli({"--db", dest, "verify-all"}, oss, ess);
  EXPECT_EQ(rc, 0) << ess.str();
  EXPECT_NE(oss.str().find("1/1 heads verified"), std::string::npos);
  std::filesystem::remove(csv_path);
  std::filesystem::remove_all(dest);
}

TEST_F(CliTest, GcIntoALockedDirectoryFailsAndTouchesNothing) {
  EXPECT_EQ(Run({"put", "k", "v"}), 0);
  const std::string dest = ::testing::TempDir() + "/cli_gc_locked";
  std::filesystem::remove_all(dest);
  auto listing = [&] {
    std::map<std::string, std::pair<uint64_t, std::filesystem::file_time_type>>
        files;
    for (const auto& entry : std::filesystem::directory_iterator(dest)) {
      files[entry.path().filename().string()] = {
          entry.file_size(), std::filesystem::last_write_time(entry.path())};
    }
    return files;
  };
  {
    auto holder = ForkBase::Open(dest);
    ASSERT_TRUE(holder.ok()) << holder.status().ToString();
    ASSERT_TRUE((*holder)->Put("theirs", Value::Int(1)).ok());
    const auto before = listing();
    std::string out, err;
    EXPECT_NE(Run({"gc", dest}, &out, &err), 0);
    EXPECT_NE(err.find("Unavailable"), std::string::npos) << err;
    EXPECT_NE(err.find(dest), std::string::npos) << err;
    EXPECT_EQ(listing(), before);
  }
  // Once the holder closes, the same gc goes through.
  std::filesystem::remove_all(dest);
  std::string out;
  EXPECT_EQ(Run({"gc", dest}, &out), 0);
  EXPECT_NE(out.find("compacted database written"), std::string::npos);
  std::ostringstream oss, ess;
  EXPECT_EQ(RunCli({"--db", dest, "verify-all"}, oss, ess), 0) << ess.str();
  std::filesystem::remove_all(dest);
}

TEST_F(CliTest, GcInPlaceSweepsTheDatabaseWhereItLives) {
  CsvGenOptions opts;
  opts.num_rows = 300;
  std::string csv_path = ::testing::TempDir() + "/cli_gc_inplace.csv";
  {
    std::ofstream f(csv_path);
    f << WriteCsv(GenerateCsv(opts));
  }
  // Distinct content for the doomed key — shared chunks would stay live
  // through "keep" and leave nothing to reclaim.
  opts.seed = 99;
  opts.num_rows = 1200;
  std::string drop_csv_path = ::testing::TempDir() + "/cli_gc_inplace2.csv";
  {
    std::ofstream f(drop_csv_path);
    f << WriteCsv(GenerateCsv(opts));
  }
  // Small segments so erases translate into rewritten (shrunk) files —
  // the default 64 MiB store would keep everything in one active segment.
  const std::vector<std::string> seg = {"--segment-kb", "4"};
  auto run = [&](std::vector<std::string> args, std::string* out = nullptr,
                 std::string* err = nullptr) {
    args.insert(args.begin(), seg.begin(), seg.end());
    return Run(std::move(args), out, err);
  };
  EXPECT_EQ(run({"put-csv", "keep", csv_path}), 0);
  EXPECT_EQ(run({"put-csv", "drop", drop_csv_path}), 0);
  EXPECT_EQ(run({"delete-branch", "drop", "master"}), 0);

  auto db_bytes = [&] {
    uint64_t total = 0;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(db_dir_)) {
      if (entry.is_regular_file()) total += entry.file_size();
    }
    return total;
  };
  const uint64_t before = db_bytes();
  std::string out, err;
  EXPECT_EQ(run({"gc", "--in-place"}, &out, &err), 0) << err;
  EXPECT_NE(out.find("reclaimed in place"), std::string::npos);
  EXPECT_LT(db_bytes(), before);

  // The swept database stays fully usable, in the same directory.
  EXPECT_EQ(run({"verify-all"}, &out), 0);
  EXPECT_NE(out.find("1/1 heads verified"), std::string::npos);
  // Deleted content can come back: re-put lands in reclaimed space.
  EXPECT_EQ(run({"put-csv", "drop", drop_csv_path}), 0);
  EXPECT_EQ(run({"verify-all"}, &out), 0);
  EXPECT_NE(out.find("2/2 heads verified"), std::string::npos);
  std::filesystem::remove(csv_path);
  std::filesystem::remove(drop_csv_path);
}

TEST_F(CliTest, PushPullReplicatesBetweenDatabases) {
  // From a plain source and from an encoded one (LZ records, delta chains)
  // into a plain database: the pulled values and histories are bit-exact,
  // and the encoded source's bundle ships its reduced records as stored.
  CsvGenOptions opts;
  opts.num_rows = 1500;
  CsvDocument table = GenerateCsv(opts);
  const std::string csv_path = ::testing::TempDir() + "/cli_push.csv";
  const std::string edited_path = ::testing::TempDir() + "/cli_push2.csv";
  {
    std::ofstream f(csv_path);
    f << WriteCsv(table);
    table.rows[700][2] = "edited";
    std::ofstream g(edited_path);
    g << WriteCsv(table);
  }
  const std::string bundle_path = ::testing::TempDir() + "/cli_bundle.fbb";
  const std::string db2 = ::testing::TempDir() + "/cli_db2";
  auto run = [](const std::string& db, const std::vector<std::string>& flags,
                std::vector<std::string> args, std::string* out = nullptr) {
    args.insert(args.begin(), flags.begin(), flags.end());
    args.insert(args.begin(), {"--db", db});
    std::ostringstream oss, ess;
    const int rc = RunCli(args, oss, ess);
    EXPECT_EQ(rc, 0) << ess.str();
    if (out) *out = oss.str();
    return rc;
  };
  auto read_file = [](const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
  };
  const std::vector<std::vector<std::string>> sources = {
      {}, {"--compress", "--delta-depth", "3"}};
  std::vector<uintmax_t> table_bundle_bytes;
  for (const auto& flags : sources) {
    SCOPED_TRACE(flags.empty() ? "plain source" : "encoded source");
    std::filesystem::remove_all(db_dir_);
    std::filesystem::remove_all(db2);
    ASSERT_EQ(run(db_dir_, flags, {"put", "doc", "shared content"}), 0);
    ASSERT_EQ(run(db_dir_, flags, {"put", "doc", "shared content v2"}), 0);
    ASSERT_EQ(run(db_dir_, flags, {"put-csv", "ds", csv_path}), 0);
    ASSERT_EQ(run(db_dir_, flags, {"put-csv", "ds", edited_path}), 0);

    for (const std::string key : {"doc", "ds"}) {
      ASSERT_EQ(run(db_dir_, flags, {"push", key, bundle_path}), 0);
      if (key == "ds") {
        table_bundle_bytes.push_back(std::filesystem::file_size(bundle_path));
      }
      // Pull into a second, independent, plain database.
      ASSERT_EQ(run(db2, {}, {"pull", bundle_path}), 0);
      std::string src_history, dst_history;
      ASSERT_EQ(run(db_dir_, flags, {"history", key}, &src_history), 0);
      ASSERT_EQ(run(db2, {}, {"history", key}, &dst_history), 0);
      EXPECT_EQ(dst_history, src_history);
      EXPECT_EQ(std::count(dst_history.begin(), dst_history.end(), '\n'), 2)
          << "history travelled too";
    }
    std::string src_get, dst_get;
    ASSERT_EQ(run(db_dir_, flags, {"get", "doc"}, &src_get), 0);
    ASSERT_EQ(run(db2, {}, {"get", "doc"}, &dst_get), 0);
    EXPECT_EQ(dst_get, "shared content v2\n");
    EXPECT_EQ(dst_get, src_get);
    const std::string src_csv = ::testing::TempDir() + "/cli_push_src.csv";
    const std::string dst_csv = ::testing::TempDir() + "/cli_push_dst.csv";
    ASSERT_EQ(run(db_dir_, flags, {"export", "ds", src_csv}), 0);
    ASSERT_EQ(run(db2, {}, {"export", "ds", dst_csv}), 0);
    EXPECT_EQ(read_file(dst_csv), read_file(src_csv));
    std::filesystem::remove(src_csv);
    std::filesystem::remove(dst_csv);
  }
  ASSERT_EQ(table_bundle_bytes.size(), 2u);
  EXPECT_LT(table_bundle_bytes[1], table_bundle_bytes[0])
      << "the encoded source must ship reduced records";
  std::filesystem::remove(csv_path);
  std::filesystem::remove(edited_path);
  std::filesystem::remove(bundle_path);
  std::filesystem::remove_all(db2);
}

TEST_F(CliTest, StatKeyReportsObjectShape) {
  CsvGenOptions opts;
  opts.num_rows = 400;
  std::string csv_path = ::testing::TempDir() + "/cli_stat.csv";
  {
    std::ofstream f(csv_path);
    f << WriteCsv(GenerateCsv(opts));
  }
  EXPECT_EQ(Run({"put-csv", "ds", csv_path}), 0);
  std::string out;
  EXPECT_EQ(Run({"stat", "ds"}, &out), 0);
  EXPECT_NE(out.find("type:         table"), std::string::npos);
  EXPECT_NE(out.find("entries:      400"), std::string::npos);
  EXPECT_NE(out.find("tree height:"), std::string::npos);
  std::filesystem::remove(csv_path);
}

TEST_F(CliTest, KeysListsEverything) {
  EXPECT_EQ(Run({"put", "alpha", "1"}), 0);
  EXPECT_EQ(Run({"put", "beta", "2"}), 0);
  std::string keys;
  EXPECT_EQ(Run({"keys"}, &keys), 0);
  EXPECT_EQ(keys, "alpha\nbeta\n");
}

TEST_F(CliTest, TieredFlagsRunTheWholeWorkloadOnTwoTiers) {
  const std::string cold = ::testing::TempDir() + "/fb_cli_cold";
  std::filesystem::remove_all(cold);
  auto tiered = [&](std::vector<std::string> args) {
    args.insert(args.begin(), {"--tier-cold", cold});
    return args;
  };
  // Write-through: the commit reaches both tiers before the CLI exits.
  EXPECT_EQ(Run(tiered({"put", "doc", "tiered value"})), 0);
  EXPECT_TRUE(std::filesystem::exists(cold + "/segment-0.fbc"));
  EXPECT_GT(std::filesystem::file_size(cold + "/segment-0.fbc"), 0u);

  std::string value;
  EXPECT_EQ(Run(tiered({"get", "doc"}), &value), 0);
  EXPECT_EQ(value, "tiered value\n");

  // The hot tier dies; the cold backend alone serves the next invocation.
  for (const auto& entry : std::filesystem::directory_iterator(db_dir_)) {
    if (entry.path().extension() == ".fbc") {
      std::filesystem::remove(entry.path());
    }
  }
  value.clear();
  EXPECT_EQ(Run(tiered({"get", "doc"}), &value), 0);
  EXPECT_EQ(value, "tiered value\n");

  // Write-back: the destructor's flush demotes before the process exits,
  // so the cold tier keeps accumulating history.
  const auto cold_bytes = std::filesystem::file_size(cold + "/segment-0.fbc");
  EXPECT_EQ(
      Run(tiered({"--tier-policy", "write-back", "put", "doc2", "v2"})), 0);
  EXPECT_GT(std::filesystem::file_size(cold + "/segment-0.fbc"), cold_bytes);

  std::string err;
  EXPECT_NE(Run(tiered({"--tier-policy", "bogus", "put", "x", "y"}), nullptr,
                &err),
            0);
  EXPECT_NE(err.find("--tier-policy"), std::string::npos);

  // --tier-policy without --tier-cold is a configuration error, not a
  // silently untiered store.
  err.clear();
  EXPECT_NE(Run({"--tier-policy", "write-back", "put", "x", "y"}, nullptr,
                &err),
            0);
  EXPECT_NE(err.find("requires --tier-cold"), std::string::npos);
  std::filesystem::remove_all(cold);
}

TEST_F(CliTest, TierHotBudgetFlagBoundsTheHotTierAndShowsInStats) {
  const std::string cold = ::testing::TempDir() + "/fb_cli_budget_cold";
  std::filesystem::remove_all(cold);
  auto tiered = [&](std::vector<std::string> args) {
    args.insert(args.begin(), {"--tier-cold", cold, "--tier-policy",
                               "write-back", "--tier-hot-budget-mb", "1"});
    return args;
  };
  EXPECT_EQ(Run(tiered({"put", "doc", "bounded tier value"})), 0);
  // The write-back stack journals its dirty set beside the hot segments.
  EXPECT_TRUE(std::filesystem::exists(db_dir_ + "/dirty-manifest.fbm"));

  std::string value;
  EXPECT_EQ(Run(tiered({"get", "doc"}), &value), 0);
  EXPECT_EQ(value, "bounded tier value\n");

  // `stat` surfaces the tier section: budget, space, pinning, evictions.
  std::string stats;
  EXPECT_EQ(Run(tiered({"stat"}), &stats), 0);
  EXPECT_NE(stats.find("tier_hot_budget: 1048576"), std::string::npos);
  EXPECT_NE(stats.find("tier_hot_space:"), std::string::npos);
  EXPECT_NE(stats.find("tier_pinned_dirty_bytes:"), std::string::npos);
  EXPECT_NE(stats.find("tier_evictions:"), std::string::npos);
  EXPECT_NE(stats.find("tier_demotions:"), std::string::npos);
  // An untiered stat has no tier section.
  stats.clear();
  EXPECT_EQ(Run({"stat"}, &stats), 0);
  EXPECT_EQ(stats.find("tier_hot_budget"), std::string::npos);

  // A budget without a cold tier to evict to is a configuration error.
  std::string err;
  EXPECT_NE(Run({"--tier-hot-budget-mb", "1", "put", "x", "y"}, nullptr,
                &err),
            0);
  EXPECT_NE(err.find("requires --tier-cold"), std::string::npos);
  // And zero is rejected (omit the flag instead).
  err.clear();
  EXPECT_NE(Run(tiered({"--tier-hot-budget-mb", "0", "put", "x", "y"}),
                nullptr, &err),
            0);
  EXPECT_NE(err.find("must be >= 1"), std::string::npos);
  std::filesystem::remove_all(cold);
}

TEST_F(CliTest, NetworkFlagValidation) {
  std::string err;
  // Client retry knob: zero attempts is meaningless.
  EXPECT_NE(Run({"--retries", "0", "keys"}, nullptr, &err), 0);
  EXPECT_NE(err.find("--retries"), std::string::npos);

  // Server outbox cap: zero would deadlock every streamed reply.
  err.clear();
  EXPECT_NE(Run({"--max-outbox-kb", "0", "keys"}, nullptr, &err), 0);
  EXPECT_NE(err.find("--max-outbox-kb"), std::string::npos);

  // Rate limits must be numbers.
  err.clear();
  EXPECT_NE(Run({"--session-rps", "abc", "keys"}, nullptr, &err), 0);

  // net-hold needs ADDRESS and MILLIS.
  err.clear();
  EXPECT_NE(Run({"net-hold"}, nullptr, &err), 0);

  // The new knobs are documented.
  std::string out;
  EXPECT_EQ(Run({"help"}, &out), 0);
  EXPECT_NE(out.find("net-hold"), std::string::npos);
  EXPECT_NE(out.find("--max-outbox-kb"), std::string::npos);
  EXPECT_NE(out.find("--retries"), std::string::npos);
}

}  // namespace
}  // namespace forkbase
