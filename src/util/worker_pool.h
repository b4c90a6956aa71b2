// WorkerPool — the one thread primitive behind background and parallel work.
//
// ForkBase's commit queue runs its drain loop on a single-thread pool
// (group commit), the server executes requests on one, file stores rewrite
// segments and tiered stores demote on theirs, and the shared hash pool
// runs the fan-outs below. Keeping one primitive means one
// place to reason about lifetime: a pool joins its workers in the
// destructor after running every task already submitted, so an owner that
// destroys its pool before its other members can never leak a task into
// freed state.
//
// Threads are spawned lazily on the first Submit, so constructing a pool
// costs nothing until work is actually submitted.
//
// TaskRound is the one fan-out pattern on top of it: the caller and pool
// helpers claim indexed tasks from one counter (Sha256Many hashes a batch
// with one round). OrderedFanOut runs rounds of TaskRounds and hands each
// result to the caller in index order: a bulk load's leaf segments, the
// POS-Tree leaf walk's runs (scans, range reads, the table row walk) and
// every batched chunk sweep (ForEachChunkBatch) are its three callers.
#ifndef FORKBASE_UTIL_WORKER_POOL_H_
#define FORKBASE_UTIL_WORKER_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace forkbase {

class WorkerPool {
 public:
  /// @param threads  worker count; 0 makes Submit run tasks inline.
  explicit WorkerPool(size_t threads);
  ~WorkerPool();  // Shutdown()

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues `fn` for a worker thread. Spawns the workers on first use.
  /// After Shutdown (or with 0 threads) the task runs inline instead —
  /// submission never fails, it only loses asynchrony.
  void Submit(std::function<void()> fn);

  /// Runs every task already submitted, then joins the workers. Idempotent.
  void Shutdown();

  size_t thread_count() const { return threads_; }

 private:
  void WorkerMain();

  const size_t threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

/// Tasks 0..count-1 of one fan-out, claimed in index order from a shared
/// counter by the calling thread and by up to one helper per pool thread.
/// The caller claims too (RunOne, Drain), so every task runs even when the
/// pool is busy or has no threads, and Join waits only for tasks a running
/// thread has claimed, never for a helper that has not started. That is
/// what keeps nesting safe: a task on a pool thread may start a TaskRound
/// on the same pool (a store read that hashes a batch, say) without
/// waiting on a queue the waiting threads themselves would have to drain.
/// Held by shared_ptr: a helper that runs late finds nothing left to claim
/// and touches only the round, never what `task` refers to.
class TaskRound {
 public:
  /// Submits min(pool threads, count - 1) helpers to `pool` (null: none),
  /// each claiming and running tasks until none is left.
  static std::shared_ptr<TaskRound> Start(WorkerPool* pool, size_t count,
                                          std::function<void(size_t)> task);

  /// Claims the next unclaimed task and runs it on the calling thread.
  /// False when every task is already claimed.
  bool RunOne();
  /// RunOne until every task is claimed.
  void Drain() {
    while (RunOne()) {
    }
  }
  /// True once task `i` has returned.
  bool Done(size_t i) const;
  /// Blocks until task `i` has returned. Only for a claimed task: after
  /// RunOne returned false, every task is.
  void Wait(size_t i) const;
  /// Ends claiming and waits for the tasks already claimed. Once it
  /// returns, no task is running or will run; unclaimed ones never do.
  void Join();

  size_t count() const { return count_; }

  TaskRound(size_t count, std::function<void(size_t)> task);

 private:
  const size_t count_;
  const std::function<void(size_t)> task_;
  std::atomic<size_t> next_{0};
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::vector<bool> done_;  ///< guarded by mu_
  size_t finished_ = 0;     ///< guarded by mu_
};

/// The ordered fan-out: tasks 0..count-1, in TaskRounds of `round_size`
/// on `pool` (null: the caller runs every task). produce(i) runs on
/// whichever thread claims task i, the caller or a helper; consume(i) runs
/// on the caller, strictly in index order, once produce(i) has returned.
/// At most two rounds are in flight: the one being consumed and the one
/// issued ahead of it. While task i is not done the caller claims tasks of
/// either round instead of waiting, so the fan-out completes when every
/// pool thread is blocked, and when it is called from a task on `pool`
/// itself. Consumption stops at the first non-OK status consume returns,
/// and that status is returned. Both rounds are joined on every exit:
/// once this returns, no produce is running or will run.
Status OrderedFanOut(WorkerPool* pool, size_t count, size_t round_size,
                     const std::function<void(size_t)>& produce,
                     const std::function<Status(size_t)>& consume);

/// OrderedFanOut where task i fills a Result: produce(i, &result) on the
/// claiming thread, then consume(i, result) on the caller. Results live in
/// a ring of two rounds' slots, and a slot is reset to Result() once
/// consumed, so at most 2 * round_size results are alive at once.
template <typename Result, typename Produce, typename Consume>
Status OrderedFanOut(WorkerPool* pool, size_t count, size_t round_size,
                     Produce&& produce, Consume&& consume) {
  std::vector<Result> slots(std::min(count, 2 * round_size));
  return OrderedFanOut(
      pool, count, round_size,
      [&](size_t i) { produce(i, &slots[i % slots.size()]); },
      [&](size_t i) -> Status {
        Result& slot = slots[i % slots.size()];
        Status s = consume(i, slot);
        slot = Result();
        return s;
      });
}

}  // namespace forkbase

#endif  // FORKBASE_UTIL_WORKER_POOL_H_
