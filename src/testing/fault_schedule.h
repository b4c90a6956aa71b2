// FaultSchedule — injectable fault decisions for simulated backends.
//
// A fault schedule answers one question for a storage backend: "should this
// operation fail, and how?" Two sources compose, both behind one mutex so a
// schedule can be shared by every store in a test stack:
//
//   * scripted faults — InjectOnce queues a fault for the Nth subsequent
//     operation of a class (deterministic regression tests: "the second cold
//     PutMany times out");
//   * probabilistic faults — a seeded per-operation-class probability draws
//     from the enabled fault kinds (randomized fault-injection runs that are
//     reproducible from the seed alone).
//
// The schedule only decides; the backend (RemoteChunkStore) interprets the
// fault kind — returning a transient error, sleeping out a timeout, or
// reporting a short read. Scripted faults always win over probabilistic
// ones, and draws consume exactly one decision per call, so a test can count
// injected faults to assert its schedule actually fired.
#ifndef FORKBASE_TESTING_FAULT_SCHEDULE_H_
#define FORKBASE_TESTING_FAULT_SCHEDULE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "util/random.h"

namespace forkbase {

class FaultSchedule {
 public:
  /// Operation classes a backend consults the schedule for. Batch reads and
  /// writes are distinct from their scalar forms so a script can target "the
  /// next demotion batch" without counting unrelated scalar probes.
  enum class Op { kGet, kGetBatch, kPut, kPutBatch };

  enum class Kind {
    kTransient,  ///< operation fails now, an immediate retry may succeed
    kTimeout,    ///< operation hangs for the backend's timeout, then fails
    kShortRead,  ///< read returns fewer bytes than the record holds (reads)
    // Network-transport fault classes, interpreted by FaultyStream and the
    // loopback harness rather than by storage backends:
    kStall,             ///< peer stops moving bytes until a deadline fires
    kSlowDrip,          ///< peer trickles one byte at a time with delays
    kDisconnectMidFrame ///< connection drops after a partial frame write
  };

  struct Fault {
    Kind kind = Kind::kTransient;
  };

  FaultSchedule() = default;

  /// Queues a scripted fault for the (skip+1)-th subsequent Draw of `op`
  /// (skip = 0 means the very next one). Multiple scripts on one op class
  /// fire in the order their target operations occur.
  void InjectOnce(Op op, Fault fault, uint64_t skip = 0);

  /// Enables probabilistic faults for `op`: each Draw fails with probability
  /// `p`, choosing uniformly among `kinds` with a generator seeded by
  /// `seed`. Pass p = 0 to disable. Replaces any previous setting for `op`.
  void SetProbability(Op op, double p, std::vector<Kind> kinds,
                      uint64_t seed = 42);

  /// The backend's per-operation question. Consumes one scripted entry when
  /// one is due, else rolls the probabilistic setting for `op`.
  std::optional<Fault> Draw(Op op);

  /// Removes every scripted and probabilistic fault (end-of-test sweeps
  /// verify the store with faults off).
  void Clear();

  /// Total faults handed out — lets a test assert its schedule fired.
  uint64_t injected_count() const;

 private:
  struct Scripted {
    Fault fault;
    uint64_t remaining_skips;
  };
  struct Probabilistic {
    double p = 0.0;
    std::vector<Kind> kinds;
    Rng rng{42};
  };
  static constexpr size_t kOpCount = 4;

  mutable std::mutex mu_;
  std::deque<Scripted> scripts_[kOpCount];
  Probabilistic prob_[kOpCount];
  uint64_t injected_ = 0;
};

}  // namespace forkbase

#endif  // FORKBASE_TESTING_FAULT_SCHEDULE_H_
