#include "util/worker_pool.h"

#include <algorithm>

namespace forkbase {

WorkerPool::WorkerPool(size_t threads) : threads_(threads) {}

WorkerPool::~WorkerPool() { Shutdown(); }

void WorkerPool::Submit(std::function<void()> fn) {
  if (threads_ > 0) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!stop_) {
      if (workers_.empty()) {
        workers_.reserve(threads_);
        for (size_t i = 0; i < threads_; ++i) {
          workers_.emplace_back([this] { WorkerMain(); });
        }
      }
      tasks_.push_back(std::move(fn));
      lock.unlock();
      cv_.notify_one();
      return;
    }
  }
  fn();  // 0 threads or already shut down: degrade to synchronous
}

void WorkerPool::Shutdown() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    workers.swap(workers_);
  }
  cv_.notify_all();
  for (auto& w : workers) w.join();
}

void WorkerPool::WorkerMain() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

TaskRound::TaskRound(size_t count, std::function<void(size_t)> task)
    : count_(count), task_(std::move(task)), done_(count, false) {}

std::shared_ptr<TaskRound> TaskRound::Start(WorkerPool* pool, size_t count,
                                            std::function<void(size_t)> task) {
  auto round = std::make_shared<TaskRound>(count, std::move(task));
  const size_t helpers =
      pool && count > 1 ? std::min(pool->thread_count(), count - 1) : 0;
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([round] { round->Drain(); });
  }
  return round;
}

bool TaskRound::RunOne() {
  const size_t i = next_.fetch_add(1);
  if (i >= count_) return false;
  task_(i);
  {
    std::lock_guard<std::mutex> lock(mu_);
    done_[i] = true;
    ++finished_;
  }
  cv_.notify_all();
  return true;
}

bool TaskRound::Done(size_t i) const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_[i];
}

void TaskRound::Wait(size_t i) const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return done_[i]; });
}

void TaskRound::Join() {
  const size_t claimed = std::min(next_.exchange(count_), count_);
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return finished_ == claimed; });
}

Status OrderedFanOut(WorkerPool* pool, size_t count, size_t round_size,
                     const std::function<void(size_t)>& produce,
                     const std::function<Status(size_t)>& consume) {
  auto start = [&](size_t first) {
    return TaskRound::Start(
        pool, std::min(round_size, count - first),
        [&produce, first](size_t i) { produce(first + i); });
  };
  std::shared_ptr<TaskRound> round, ahead;
  struct JoinOnExit {
    std::shared_ptr<TaskRound>* rounds[2];
    ~JoinOnExit() {
      for (auto* r : rounds) {
        if (*r) (*r)->Join();
      }
    }
  } join_on_exit{{&round, &ahead}};
  Status status;
  for (size_t first = 0; status.ok() && first < count; first += round_size) {
    round = ahead ? std::move(ahead) : start(first);
    // The next round runs on the helpers while this one is consumed.
    if (first + round_size < count) ahead = start(first + round_size);
    for (size_t i = 0; status.ok() && i < round->count(); ++i) {
      while (!round->Done(i)) {
        if (!round->RunOne() && !(ahead && ahead->RunOne())) round->Wait(i);
      }
      status = consume(first + i);
    }
  }
  return status;
}

}  // namespace forkbase
