// fbbench — end-to-end harness for the ForkBase benchmark.
//
//   fbbench --workload collab_table|archive_versions|serve_mixed
//           --seed N --seconds S --trace 0|1 --dir SCRATCH
//           [--cli PATH/forkbase_cli] [--spans FILE] [--small]
//           [--inject wrong-read|tamper]
//
// Prints one JSON object on its last line: correct / attempted / failed,
// every metric with unit and sample count, the first errors, and the
// environment facts that move the numbers. --trace 1 runs the workload
// twice on the same seed, untraced then traced, each for half the time; the
// per-layer metrics come from the traced pass and the ops/s gap between
// the two passes is reported as the tracing overhead. perfbench/run.py
// builds this binary and turns its output into the benchmark's result line.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "bench.h"
#include "util/status.h"

namespace fbbench {

using forkbase::ForkBase;
using forkbase::StatusOr;

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

bool Report::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    correct = false;
    if (errors.size() < 20) errors.push_back(what);
  }
  return ok;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  metrics.push_back(Metric{name, value, unit, samples});
}

void Report::AddLatency(const std::string& name, const Samples& s,
                        double scale, const std::string& unit) {
  Add(name + ".p50", s.Quantile(0.50) * scale, unit, s.size());
  Add(name + ".p90", s.Quantile(0.90) * scale, unit, s.size());
  // A p99 needs at least ten samples beyond it.
  if (s.size() >= 1000) {
    Add(name + ".p99", s.Quantile(0.99) * scale, unit, s.size());
  }
}

void Report::Fact(const std::string& key, const std::string& value) {
  facts.emplace_back(key, value);
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Stack::WaitForMaintenance() {
  if (file != nullptr) {
    file->WaitForMaintenance();
  } else {
    db->WaitForMaintenance();
  }
}

StatusOr<Stack> OpenStack(const std::string& dir,
                          const ForkBase::Config& config, bool decorated) {
  Stack stack;
  if (!decorated) {
    auto db = ForkBase::Open(dir, config);
    if (!db.ok()) return db.status();
    stack.db = std::move(*db);
    return stack;
  }
  // Mirrors ForkBase::Open for a single-tier store, option for option.
  forkbase::FileChunkStore::Options file_options;
  file_options.prefetch_threads = config.prefetch_threads;
  file_options.fsync_on_flush = config.fsync;
  file_options.maintenance_threads = config.maintenance_threads;
  file_options.compression =
      config.compression ? forkbase::FileChunkStore::Compression::kLz
                         : forkbase::FileChunkStore::Compression::kNone;
  file_options.delta_chain_depth = config.delta_chain_depth;
  file_options.delta_window = config.delta_window;
  if (config.segment_bytes > 0) file_options.segment_bytes = config.segment_bytes;
  auto file = forkbase::FileChunkStore::Open(dir, file_options);
  if (!file.ok()) return file.status();
  stack.file = file->get();
  auto device = std::make_shared<TimedStore>(
      std::shared_ptr<forkbase::ChunkStore>(std::move(*file)), kDevice);
  auto cache = std::make_shared<forkbase::CachingChunkStore>(
      device, config.cache_bytes);
  stack.cache = cache.get();
  auto upper = std::make_shared<TimedStore>(cache, kUpper);
  stack.upper = upper.get();
  stack.db = std::make_unique<ForkBase>(upper, config.commit);
  return stack;
}

Counters ParseCounters(
    const std::vector<std::pair<std::string, std::string>>& kvs) {
  Counters counters;
  for (const auto& [key, value] : kvs) {
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end != value.c_str() && *end == '\0') counters[key] = v;
  }
  return counters;
}

Counters StoreCounters(const Stack& stack) {
  if (stack.file == nullptr) {
    return ParseCounters(stack.db->Stat().ToKeyValues());
  }
  Counters c;
  const forkbase::ChunkStoreStats chunks = stack.file->stats();
  c["chunks"] = chunks.chunk_count;
  c["physical_bytes"] = chunks.physical_bytes;
  c["logical_bytes"] = chunks.logical_bytes;
  c["dedup_hits"] = chunks.dedup_hits;
  c["get_calls"] = chunks.get_calls;
  c["put_calls"] = chunks.put_calls;
  const auto cache = stack.cache->cache_stats();
  c["cache_hits"] = cache.hits;
  c["cache_misses"] = cache.misses;
  const auto m = stack.file->maintenance_stats();
  c["maintenance_rewritten_bytes"] = m.rewritten_bytes;
  c["storage_live_physical_bytes"] = m.live_physical_bytes;
  c["storage_live_logical_bytes"] = m.live_logical_bytes;
  return c;
}

double Delta(const Counters& after, const Counters& before,
             const std::string& key) {
  auto a = after.find(key);
  auto b = before.find(key);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {
const char* const kWords[] = {
    "analytics", "pipeline", "vendor",   "storage",   "ledger",  "dataset",
    "version",   "branch",   "commit",   "merge",     "audit",   "immutable",
    "tamper",    "evident",  "chunk",    "pattern",   "oriented", "split",
    "tree",      "merkle",   "lineage",  "replica",   "quorum",  "schema",
    "column",    "record",   "tenant",   "access",    "control", "export",
    "region",    "invoice"};
constexpr size_t kNumWords = sizeof(kWords) / sizeof(kWords[0]);
}  // namespace

std::string Rng::Words(size_t words) {
  std::string out;
  for (size_t w = 0; w < words; ++w) {
    if (w > 0) out.push_back(' ');
    out += kWords[Uniform(kNumWords)];
  }
  return out;
}

std::string Rng::Text(size_t len) {
  static const char kChars[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string s(len, ' ');
  for (char& ch : s) ch = kChars[Uniform(36)];
  return s;
}

std::string RowKey(size_t row) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "r%07zu", row);
  return buf;
}

forkbase::CsvDocument GenerateTable(uint64_t seed, size_t rows,
                                    size_t columns) {
  Rng rng(seed);
  forkbase::CsvDocument doc;
  doc.header.push_back("id");
  for (size_t c = 0; c < columns; ++c) {
    doc.header.push_back("c");
    doc.header.back() += std::to_string(c);
  }
  doc.rows.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    row.reserve(columns + 1);
    row.push_back(RowKey(r));
    for (size_t c = 0; c < columns; ++c) row.push_back(rng.Words(3));
    doc.rows.push_back(std::move(row));
  }
  return doc;
}

size_t RowBytes(const std::vector<std::string>& row) {
  size_t bytes = 0;
  for (const auto& cell : row) bytes += cell.size() + 1;
  return bytes;
}

size_t CsvBytes(const forkbase::CsvDocument& doc) {
  size_t bytes = RowBytes(doc.header);
  for (const auto& row : doc.rows) bytes += RowBytes(row);
  return bytes;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

void InputDigest::Add(const std::string& s) {
  for (unsigned char ch : s) {
    h_ = (h_ ^ ch) * 1099511628211ull;
  }
  h_ = (h_ ^ 0xff) * 1099511628211ull;
}

void InputDigest::Add(const forkbase::CsvDocument& doc) {
  for (const auto& cell : doc.header) Add(cell);
  for (const auto& row : doc.rows) {
    for (const auto& cell : row) Add(cell);
  }
}

std::string InputDigest::Hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream out;
  out.precision(10);
  out << v;
  return out.str();
}

std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans) {
  // Children are appended after their parent, so a reverse walk folds each
  // span's chunk work into its ancestors.
  std::vector<std::array<ChunkIo, kNumLayers>> inclusive(spans.size());
  for (size_t i = spans.size(); i-- > 0;) {
    for (int l = 0; l < kNumLayers; ++l) inclusive[i][l].Add(spans[i].io[l]);
    if (spans[i].parent >= 0) {
      for (int l = 0; l < kNumLayers; ++l) {
        inclusive[spans[i].parent][l].Add(inclusive[i][l]);
      }
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.duration_ns += spans[i].duration_ns();
    t.self_ns += spans[i].self_ns();
    for (int l = 0; l < kNumLayers; ++l) t.io[l].Add(inclusive[i][l]);
  }
  return totals;
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
      out.push_back(ch);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out.push_back(ch);
    }
  }
  return out + "\"";
}

void PrintJson(const Report& r) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out << (i ? ", " : "") << JsonString(m.name)
        << ": {\"value\": " << FormatDouble(m.value)
        << ", \"unit\": " << JsonString(m.unit)
        << ", \"samples\": " << m.samples << "}";
  }
  out << "}, \"errors\": [";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    out << (i ? ", " : "") << JsonString(r.errors[i]);
  }
  out << "], \"facts\": {";
  for (size_t i = 0; i < r.facts.size(); ++i) {
    out << (i ? ", " : "") << JsonString(r.facts[i].first) << ": "
        << JsonString(r.facts[i].second);
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

Report RunWorkload(const Options& options) {
  if (options.workload == "collab_table") return RunCollabTable(options);
  if (options.workload == "archive_versions") {
    return RunArchiveVersions(options);
  }
  if (options.workload == "serve_mixed") return RunServeMixed(options);
  Report r;
  r.Check(false, "unknown workload " + options.workload);
  return r;
}

int Usage(const std::string& why) {
  std::cerr << "fbbench: " << why << "\n"
            << "usage: fbbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --dir DIR [--cli PATH] [--spans FILE] [--small] "
               "[--inject wrong-read|tamper]\n";
  return 2;
}

}  // namespace
}  // namespace fbbench

int main(int argc, char** argv) {
  using namespace fbbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--small") {
      options.small = true;
    } else if (!value(&v)) {
      return Usage("missing value for " + arg);
    } else if (arg == "--workload") {
      options.workload = v;
    } else if (arg == "--seed") {
      options.seed = std::stoull(v);
    } else if (arg == "--seconds") {
      options.seconds = std::stod(v);
    } else if (arg == "--trace") {
      options.trace = v == "1";
    } else if (arg == "--dir") {
      options.dir = v;
    } else if (arg == "--cli") {
      options.cli = v;
    } else if (arg == "--spans") {
      options.spans = v;
    } else if (arg == "--inject") {
      options.inject = v;
    } else {
      return Usage("unknown flag " + arg);
    }
  }
  if (options.workload.empty() || options.dir.empty() || options.seconds <= 0) {
    return Usage("--workload, --dir and a positive --seconds are required");
  }
  std::filesystem::create_directories(options.dir);
  // Unix sockets are bound by relative name here: an absolute path under a
  // deep checkout can exceed the 108-byte sun_path limit.
  options.dir = std::filesystem::absolute(options.dir).string();
  std::filesystem::current_path(options.dir);

  Report report;
  if (!options.trace) {
    report = RunWorkload(options);
  } else {
    // Same seed, same length: first the program alone, then traced.
    Options half = options;
    half.seconds = options.seconds / 2;
    half.trace = false;
    const Report plain = RunWorkload(half);
    Tracer::Enable();
    half.trace = true;
    report = RunWorkload(half);
    report.attempted += plain.attempted;
    report.failed += plain.failed;
    report.correct = report.correct && plain.correct;
    report.errors.insert(report.errors.begin(), plain.errors.begin(),
                         plain.errors.end());
    const Metric* a = plain.Find("ops_per_s");
    const Metric* b = report.Find("ops_per_s");
    if (a != nullptr && b != nullptr && a->value > 0) {
      report.Add("trace.overhead_pct", (a->value - b->value) / a->value * 100,
                 "%", a->samples + b->samples);
    }
    if (!options.spans.empty()) Tracer::WriteTsv(options.spans);
  }
  PrintJson(report);
  return report.correct ? 0 : 1;
}
