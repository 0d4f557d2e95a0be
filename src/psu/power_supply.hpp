// ATX power-supply model with explicit discharge phase, plus the power rail
// connecting it to devices under test.
//
// Devices register as PowerSink listeners. When PS_ON is deasserted the
// supply schedules, analytically from the discharge model, the instants at
// which the rail crosses each sink's brownout and cutoff thresholds — no
// polling, so event counts stay independent of curve length.
#pragma once

#include <memory>
#include <vector>

#include "obs/fwd.hpp"
#include "psu/discharge_model.hpp"
#include "sim/simulator.hpp"

namespace pofi::psu {

/// A device drawing power from the rail.
class PowerSink {
 public:
  virtual ~PowerSink() = default;

  /// Steady-state current draw, used to select the discharge curve.
  [[nodiscard]] virtual double load_amps() const = 0;

  /// Voltage below which the device is dead (the paper's SSDs: 4.5 V).
  [[nodiscard]] virtual double cutoff_volts() const = 0;

  /// Voltage below which the device can detect imminent loss (PLP trigger).
  /// Return <= 0 to opt out of brownout notification.
  [[nodiscard]] virtual double brownout_volts() const { return 0.0; }

  /// Rail crossed brownout_volts() on the way down.
  virtual void on_brownout(sim::TimePoint now) { (void)now; }

  /// Rail crossed cutoff_volts(); the device loses all volatile state.
  virtual void on_power_lost(sim::TimePoint now) = 0;

  /// Rail is back at nominal voltage after a power-on.
  virtual void on_power_good(sim::TimePoint now) = 0;
};

class PowerSupply {
 public:
  enum class State { kOff, kOn, kDischarging, kCharging };

  struct Params {
    double nominal_volts = 5.0;
    sim::Duration rise_time = sim::Duration::ms(100);  ///< ATX power-good delay

    bool operator==(const Params&) const = default;
  };

  PowerSupply(sim::Simulator& simulator, std::unique_ptr<DischargeModel> model, Params params);
  // Out-of-line: GCC 12 in-class delegation NSDMI bug.
  PowerSupply(sim::Simulator& simulator, std::unique_ptr<DischargeModel> model);

  PowerSupply(const PowerSupply&) = delete;
  PowerSupply& operator=(const PowerSupply&) = delete;

  /// Register a sink. Sinks must outlive the supply. If the supply is
  /// already on, the sink immediately receives on_power_good().
  void attach(PowerSink& sink);

  /// Assert PS_ON: rail ramps to nominal over rise_time, then sinks get
  /// on_power_good(). No-op when already on/charging.
  void power_on();

  /// Deassert PS_ON: rail enters the discharge phase. No-op when off.
  void power_off();

  [[nodiscard]] State state() const { return state_.rail; }
  [[nodiscard]] bool rail_up() const { return state_.rail == State::kOn; }

  /// Instantaneous rail voltage.
  [[nodiscard]] double voltage() const;

  /// Total attached DC load.
  [[nodiscard]] double total_load_amps() const;

  [[nodiscard]] const DischargeModel& model() const { return *model_; }

  /// Time from PS_ON-deassert until the rail is fully discharged at the
  /// current load (used by experiment drivers to sequence power cycles).
  [[nodiscard]] sim::Duration discharge_duration() const {
    return model_->full_discharge_time(total_load_amps());
  }

  /// Number of completed off transitions (fault injections served).
  [[nodiscard]] std::uint64_t cycles() const { return state_.cycles; }

  /// Instant the most recent discharge began (PS_ON deasserted).
  [[nodiscard]] sim::TimePoint last_off_at() const { return state_.last_off_at; }

  /// Snapshot precondition: rail steady at nominal, no threshold-crossing
  /// events scheduled (pending_ is cleared by the power-good callback).
  [[nodiscard]] bool quiescent() const { return state_.rail == State::kOn && pending_.empty(); }

  /// Rail state and counters. Attached sinks are wiring, not state; pending
  /// events are empty at a quiescent boundary and cleared by restore() on a
  /// dirty supply.
  struct StateImage {
    State rail = State::kOff;
    sim::TimePoint phase_start = sim::TimePoint::zero();
    double charge_start_volts = 0.0;
    std::uint64_t cycles = 0;
    sim::TimePoint last_off_at = sim::TimePoint::zero();
    // Obs-private bookkeeping: never read by the simulation itself.
    bool obs_below_active = false;
    sim::TimePoint obs_below_since = sim::TimePoint::zero();
  };

  void snapshot(StateImage& out) const { out = state_; }
  void restore(const StateImage& image) {
    state_ = image;
    pending_.clear();
  }

  /// Session reset: back to the just-constructed kOff state. Attached sinks
  /// are deliberately KEPT — the pooled stack's wiring survives the reset.
  /// Precondition: simulator events drained (the pending_ ids are stale by
  /// then, so they are just dropped).
  void reset() {
    state_ = StateImage{};
    pending_.clear();
  }

 private:
  void cancel_pending();
  void schedule_discharge_events();
  /// Record a rail-voltage sample (no-op without a registry). Samples are
  /// taken only inside already-scheduled events, never via new ones.
  void obs_sample_rail(double volts);

  sim::Simulator& sim_;
  std::unique_ptr<DischargeModel> model_;
  Params params_;
  StateImage state_;
  std::vector<PowerSink*> sinks_;
  std::vector<sim::EventId> pending_;

  // Observability handles (no-ops unless a registry is attached to sim_).
  obs::MetricId obs_rail_series_ = obs::kNoMetric;
  obs::MetricId obs_below_cutoff_ns_ = obs::kNoMetric;
};

}  // namespace pofi::psu
