#include "testing/fault_schedule.h"

namespace forkbase {

void FaultSchedule::InjectOnce(Op op, Fault fault, uint64_t skip) {
  std::lock_guard<std::mutex> lock(mu_);
  scripts_[static_cast<size_t>(op)].push_back(Scripted{fault, skip});
}

void FaultSchedule::SetProbability(Op op, double p, std::vector<Kind> kinds,
                                   uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  Probabilistic& setting = prob_[static_cast<size_t>(op)];
  setting.p = p;
  setting.kinds = std::move(kinds);
  setting.rng = Rng(seed);
}

std::optional<FaultSchedule::Fault> FaultSchedule::Draw(Op op) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& scripts = scripts_[static_cast<size_t>(op)];
  // Scripted entries count this operation down in parallel — each counts
  // the stream of Draw(op) calls from its own InjectOnce on, including a
  // Draw another script fires on, so queuing skip=0 and skip=1 together
  // faults two consecutive operations. The first due entry (queue order)
  // fires; later already-due entries fire on subsequent draws.
  auto due = scripts.end();
  for (auto it = scripts.begin(); it != scripts.end(); ++it) {
    if (it->remaining_skips == 0) {
      if (due == scripts.end()) due = it;
      continue;
    }
    --it->remaining_skips;
  }
  if (due != scripts.end()) {
    Fault fault = due->fault;
    scripts.erase(due);
    ++injected_;
    return fault;
  }
  Probabilistic& setting = prob_[static_cast<size_t>(op)];
  if (setting.p > 0.0 && !setting.kinds.empty() &&
      setting.rng.NextDouble() < setting.p) {
    ++injected_;
    return Fault{setting.kinds[setting.rng.Uniform(setting.kinds.size())]};
  }
  return std::nullopt;
}

void FaultSchedule::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& scripts : scripts_) scripts.clear();
  for (auto& setting : prob_) setting = Probabilistic{};
}

uint64_t FaultSchedule::injected_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return injected_;
}

}  // namespace forkbase
