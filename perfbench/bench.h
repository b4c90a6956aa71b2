// Shared pieces of the ForkBase end-to-end benchmark harness: options, the
// result report, latency samples, the store stack, and input generation.
#ifndef FORKBASE_PERFBENCH_BENCH_H_
#define FORKBASE_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chunk/caching_chunk_store.h"
#include "chunk/file_chunk_store.h"
#include "net/sync.h"
#include "store/forkbase.h"
#include "trace.h"

namespace fbbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;      ///< scratch directory for stores and sockets
  std::string cli;      ///< forkbase_cli binary (serve_mixed)
  bool small = false;   ///< tiny sizes, for the benchmark's own tests
  std::string inject;   ///< "", "wrong-read" or "tamper"
  std::string spans;    ///< traced run: where to write the span table
};

/// Timing samples of one operation kind.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& o) {
    values_.insert(values_.end(), o.values_.begin(), o.values_.end());
  }
  size_t size() const { return values_.size(); }
  /// Nearest-rank quantile, q in (0, 1]; 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<double> values_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

/// What one pass of a workload produced.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, std::string>> facts;

  /// Counts one checked operation; a false `ok` fails it and the run.
  bool Check(bool ok, const std::string& what);
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples);
  void AddLatency(const std::string& name, const Samples& s, double scale,
                  const std::string& unit);
  void Fact(const std::string& key, const std::string& value);
  const Metric* Find(const std::string& name) const;
};

/// The store stack ForkBase::Open builds (file store -> read cache ->
/// ForkBase). Traced, it is assembled by hand with a TimedStore above the
/// cache and one between the cache and the file store.
struct Stack {
  std::unique_ptr<forkbase::ForkBase> db;
  TimedStore* upper = nullptr;
  forkbase::FileChunkStore* file = nullptr;
  forkbase::CachingChunkStore* cache = nullptr;

  void WaitForMaintenance();
};

forkbase::StatusOr<Stack> OpenStack(const std::string& dir,
                                    const forkbase::ForkBase::Config& config,
                                    bool decorated);

/// Counters of a store, keyed as the STAT verb and the CLI `stat` name
/// them. A hand-built stack reports the same keys from its layers.
using Counters = std::map<std::string, double>;
Counters StoreCounters(const Stack& stack);
Counters ParseCounters(
    const std::vector<std::pair<std::string, std::string>>& kvs);
double Delta(const Counters& after, const Counters& before,
             const std::string& key);

/// Deterministic generator for every input the benchmark makes.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ull + 1) {}
  uint64_t Next();
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double NextDouble() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }
  /// `words` dictionary words joined by spaces.
  std::string Words(size_t words);
  /// Lowercase alphanumeric string of the given length.
  std::string Text(size_t len);

 private:
  uint64_t state_;
};

/// Rows "rNNNNNNN" with `columns` data cells of three words each.
forkbase::CsvDocument GenerateTable(uint64_t seed, size_t rows,
                                    size_t columns);
std::string RowKey(size_t row);
/// Size of `row` as one CSV line (no quoting is ever needed).
size_t RowBytes(const std::vector<std::string>& row);
size_t CsvBytes(const forkbase::CsvDocument& doc);

/// FNV-1a over generated inputs, reported so tests can tell seeds apart.
class InputDigest {
 public:
  void Add(const std::string& s);
  void Add(const forkbase::CsvDocument& doc);
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ull;
};

std::string FormatDouble(double v);
double Median(std::vector<double> v);

/// Per-layer names a workload does not exercise are reported as 0, so that
/// every traced run prints the same metric set.
void FillMissing(Report* r);

/// sync.* and net.rtt_us.p50.heads from a workload's replica pulls.
void SyncLayerMetrics(Report* r, const std::vector<forkbase::SyncStats>& pulls,
                      const forkbase::SyncStats& first_pull,
                      const Samples& heads_us);

Report RunCollabTable(const Options& options);
Report RunArchiveVersions(const Options& options);
Report RunServeMixed(const Options& options);

/// Per-layer numbers derived from the spans of a traced pass.
struct SpanTotals {
  uint64_t count = 0;
  int64_t duration_ns = 0;
  int64_t self_ns = 0;
  ChunkIo io[kNumLayers];  ///< inclusive of descendant spans
};
std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

}  // namespace fbbench

#endif  // FORKBASE_PERFBENCH_BENCH_H_
