#include "sim/simulator.hpp"

#include <string>

namespace pofi::sim {

void Simulator::check_abort() const {
  if (step_limit_ != 0 && state_.events_fired >= step_limit_) {
    throw AbortError(AbortReason::kStepLimit,
                     "simulation step budget exceeded (" +
                         std::to_string(step_limit_) + " events)");
  }
  if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
    throw AbortError(AbortReason::kCancelled, "simulation cancelled");
  }
}

std::uint64_t Simulator::run_until(TimePoint deadline) {
  std::uint64_t fired = 0;
  while (!queue_.empty()) {
    const TimePoint t = queue_.next_time();
    if (t > deadline) break;
    check_abort();
    if (probe_ != nullptr && probe_->on_boundary(state_.events_fired)) break;
    auto ev = queue_.pop();
    state_.now = ev.time;
    ev.cb();
    ++fired;
    ++state_.events_fired;
  }
  if (state_.now < deadline) state_.now = deadline;
  return fired;
}

std::uint64_t Simulator::run_all(std::uint64_t max_events) {
  std::uint64_t fired = 0;
  while (!queue_.empty()) {
    if (max_events != 0 && fired >= max_events) break;
    check_abort();
    if (probe_ != nullptr && probe_->on_boundary(state_.events_fired)) break;
    auto ev = queue_.pop();
    state_.now = ev.time;
    ev.cb();
    ++fired;
    ++state_.events_fired;
  }
  return fired;
}

}  // namespace pofi::sim
