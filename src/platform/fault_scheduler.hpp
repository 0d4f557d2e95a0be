// The Scheduler of the paper's software part (Fig. 1).
//
// "It determines the random time instances in which power failure will be
// occurred. It sends On/Off Commands to the hardware part." The scheduler
// owns the fault timing policy and the command path (Arduino bridge); the
// campaign runner asks it to arm a fault and to sequence the power cycle.
#pragma once

#include <cstdint>

#include "psu/atx_control.hpp"
#include "psu/power_supply.hpp"
#include "sim/simulator.hpp"

namespace pofi::platform {

class FaultScheduler {
 public:
  FaultScheduler(sim::Simulator& simulator, psu::ArduinoBridge& bridge,
                 psu::PowerSupply& supply, sim::Rng rng)
      : sim_(simulator), bridge_(bridge), supply_(supply), state_{.rng = rng} {}

  FaultScheduler(const FaultScheduler&) = delete;
  FaultScheduler& operator=(const FaultScheduler&) = delete;

  /// Arm a fault: the Off command goes out a uniformly random delay in
  /// [0, jitter] from now. Returns the scheduled command instant.
  sim::TimePoint arm_fault(sim::Duration jitter) {
    const std::int64_t max_ns = jitter.count_ns() > 0 ? jitter.count_ns() : 1;
    const auto delay = sim::Duration::ns(state_.rng.range(0, max_ns));
    const sim::TimePoint at = sim_.now() + delay;
    sim_.at(at, [this] { command_off(); });
    return at;
  }

  /// Send the Off command immediately (fixed-delay §IV-A campaigns).
  void command_off() {
    ++state_.faults_commanded;
    bridge_.send(psu::PowerCommand::kOff);
  }

  /// Send the On command immediately (recovery phase).
  void command_on() { bridge_.send(psu::PowerCommand::kOn); }

  /// The rail has fully discharged and the dwell can start.
  [[nodiscard]] bool rail_fully_down() const {
    return supply_.state() == psu::PowerSupply::State::kOff;
  }
  /// The rail is being pulled down (or already down).
  [[nodiscard]] bool fault_in_progress() const {
    return supply_.state() == psu::PowerSupply::State::kDischarging || rail_fully_down();
  }

  /// Instant the current/most recent discharge began (the injected fault).
  [[nodiscard]] sim::TimePoint last_fault_at() const { return supply_.last_off_at(); }

  [[nodiscard]] std::uint32_t faults_commanded() const { return state_.faults_commanded; }

  struct StateImage {
    sim::Rng rng;  ///< fault timing
    std::uint32_t faults_commanded = 0;
  };
  void snapshot(StateImage& out) const { out = state_; }
  void restore(const StateImage& image) { state_ = image; }
  /// Session reset: counter rewinds and the fault-timing RNG stream is
  /// replaced (the owner re-forks it from the reseeded master).
  void reset(sim::Rng rng) { state_ = StateImage{.rng = rng}; }

 private:
  sim::Simulator& sim_;
  psu::ArduinoBridge& bridge_;
  psu::PowerSupply& supply_;
  StateImage state_;
};

}  // namespace pofi::platform
