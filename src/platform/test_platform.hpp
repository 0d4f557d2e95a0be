// TestPlatform: the complete hardware/software co-designed testbed of Fig. 1.
//
// Wires Host System (block queue + software parts) -> Arduino bridge -> ATX
// controller -> PSU -> SSD, and exposes run(): a full fault-injection
// campaign executing the paper's loop — generate IO, schedule a fault, ride
// the discharge down, power back up, verify with the Analyzer.
//
// The runner drives the simulator from outside the event loop, which keeps
// the campaign logic linear and the event graph free of control-flow knots.
#pragma once

#include <atomic>
#include <functional>
#include <memory>

#include "blk/queue.hpp"
#include "obs/fwd.hpp"
#include "obs/metrics.hpp"
#include "platform/analyzer.hpp"
#include "platform/experiment.hpp"
#include "platform/fault_scheduler.hpp"
#include "platform/shadow_store.hpp"
#include "psu/atx_control.hpp"
#include "psu/power_supply.hpp"
#include "sim/simulator.hpp"
#include "ssd/presets.hpp"
#include "ssd/ssd.hpp"
#include "workload/workload.hpp"

namespace pofi::platform {

struct PlatformConfig {
  psu::DischargeKind discharge = psu::DischargeKind::kPowerLaw;
  psu::PowerSupply::Params psu{};
  psu::ArduinoBridge::Params arduino{};
  blk::BlockQueue::Config block_queue{};
  /// Dwell at 0 V before the On command (lets every capacitor drain).
  sim::Duration post_fault_dwell = sim::Duration::ms(300);
  /// Closed-loop IO generator: outstanding requests per chain set.
  std::uint32_t closed_loop_depth = 16;
  /// Host think time between a completion and the next submission.
  sim::Duration think_time = sim::Duration::us(50);
  /// Record blktrace events (tests); benches keep it off to bound memory.
  bool trace_enabled = false;
  /// Collect observability metrics: the platform owns an obs::MetricRegistry,
  /// attaches it to the simulator, and returns a Snapshot in the result.
  /// Never perturbs the simulation — campaign rows are identical either way.
  bool metrics = false;
  /// Watchdog step budget: abort the campaign (sim::AbortError, kStepLimit)
  /// once the simulator has fired this many events. 0 disables. Counted in
  /// simulation events, so a pathological config trips at the same point on
  /// every machine and at any thread count — the campaign runner then
  /// retries or quarantines the entry instead of hanging the pool.
  std::uint64_t max_sim_events = 0;
  /// Cooperative cancellation token threaded into the simulator (see
  /// sim::Simulator::set_cancel_token). Runtime wiring, not a spec key: the
  /// suite driver shares one flag across all entries and its signal handler.
  const std::atomic<bool>* cancel = nullptr;
};

class TestPlatform {
 public:
  TestPlatform(ssd::SsdConfig ssd_config, PlatformConfig platform_config, std::uint64_t seed);
  ~TestPlatform();

  TestPlatform(const TestPlatform&) = delete;
  TestPlatform& operator=(const TestPlatform&) = delete;

  /// Execute a campaign. One TestPlatform instance runs one campaign (the
  /// device state carries history; build a fresh platform — or reset() this
  /// one — per experiment).
  [[nodiscard]] ExperimentResult run(const ExperimentSpec& spec);

  /// True when this platform can serve an entry with these configs through
  /// reset() instead of a rebuild: the SSD config and every
  /// construction-relevant platform knob (discharge model, PSU/Arduino
  /// params, block-queue shape, metrics attachment) must match. Per-run
  /// wiring — dwell, think time, trace flag, step limit, cancel token — may
  /// differ; reset() re-applies it from the new config.
  [[nodiscard]] bool compatible_with(const ssd::SsdConfig& drive,
                                     const PlatformConfig& platform_config) const;

  /// Session reset: rewind the entire stack to its just-constructed state,
  /// reseeded with `seed`, while every component retains its slabs. The
  /// event queue is drained first, so no stale callback can fire into the
  /// reset stack; every component RNG stream is re-forked from the reseeded
  /// master under its construction-time label, making the next run()
  /// bit-identical to one on a freshly built platform. Precondition:
  /// compatible_with(...) holds for the configs the next run will use.
  void reset(const PlatformConfig& platform_config, std::uint64_t seed);

  /// Snapshot precondition: whole stack quiescent — device ready and idle,
  /// no live block requests, rail steady, no verification pass running.
  /// (The caller additionally accounts for armed re-armable timers against
  /// the simulator's pending count; see torture::CrashHarness.)
  [[nodiscard]] bool quiescent() const {
    return ssd_->quiescent() && queue_->quiescent() && psu_->quiescent() &&
           analyzer_->quiescent();
  }

  /// The campaign loop's scalar run state, kept as one value so reset(),
  /// snapshot() and restore() each handle it in a single assignment.
  struct RunState {
    bool io_active = false;
    bool ran = false;
    bool open_loop_mode = true;
    double pace_iops = 5.0;
    std::uint64_t next_packet_id = 1;
    std::uint64_t requests_submitted = 0;
    std::uint64_t cycle_requests = 0;
    std::uint64_t cycle_budget = 0;
    std::uint64_t write_acks = 0;
    std::uint64_t reads_completed = 0;
    std::uint32_t fault_index = 0;
  };

  /// Copyable whole-stack state at a quiescent boundary. The lazily-built
  /// workload generator is the campaign driver's, not the torture path's —
  /// the crash harness owns its own generator and images it itself.
  struct StateImage {
    sim::SimulatorImage sim;
    psu::PowerSupply::StateImage psu;
    psu::AtxController::StateImage atx;
    psu::ArduinoBridge::StateImage bridge;
    ssd::Ssd::StateImage ssd;
    blk::BlockQueue::StateImage blk;
    ShadowStore::StateImage shadow;
    Analyzer::StateImage analyzer;
    FaultScheduler::StateImage scheduler;
    std::array<std::uint64_t, 4> platform_rng{};
    bool has_metrics = false;
    obs::MetricRegistry::ValueImage metrics;
    RunState run;
  };

  void snapshot(StateImage& out) const;
  /// Restore onto a (possibly dirty, post-crash) compatible platform. The
  /// simulator queue is cleared first so no stale event survives; re-armable
  /// timers are enqueued on `rearm` and fire once the caller executes it.
  void restore(const StateImage& image, sim::TimerRearmer& rearm);

  // --- Component access (examples, tests) -----------------------------------
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] ssd::Ssd& device() { return *ssd_; }
  [[nodiscard]] psu::PowerSupply& power_supply() { return *psu_; }
  [[nodiscard]] blk::BlockQueue& block_queue() { return *queue_; }
  [[nodiscard]] Analyzer& analyzer() { return *analyzer_; }
  [[nodiscard]] ShadowStore& shadow() { return shadow_; }
  [[nodiscard]] psu::ArduinoBridge& arduino() { return *bridge_; }
  [[nodiscard]] FaultScheduler& scheduler() { return *scheduler_; }

 private:
  // IO generator: one self-perpetuating closed-loop chain.
  void io_chain_step();
  void open_loop_step(double mean_gap_sec);
  void submit_one(workload::RequestSpec spec);
  void handle_outcome(workload::DataPacket packet, blk::RequestOutcome out);

  void start_io();
  void stop_io();

  /// Step the simulator until `pred` is false or the queue drains.
  void run_while(const std::function<bool()>& pred, std::uint64_t max_events = 0);

  void power_cycle_and_verify(ExperimentResult& result, sim::TimePoint fault_command_time);
  void run_random_fault_campaign(const ExperimentSpec& spec, ExperimentResult& result);
  void run_fixed_delay_campaign(const ExperimentSpec& spec, ExperimentResult& result);

  sim::Simulator sim_;
  /// Declared directly after sim_ so it outlives every component that caches
  /// metric ids (members below destruct first, in reverse order).
  std::unique_ptr<obs::MetricRegistry> metrics_;
  ssd::SsdConfig ssd_config_;
  PlatformConfig config_;

  std::unique_ptr<psu::PowerSupply> psu_;
  std::unique_ptr<psu::AtxController> atx_;
  std::unique_ptr<psu::ArduinoBridge> bridge_;
  std::unique_ptr<ssd::Ssd> ssd_;
  std::unique_ptr<blk::BlockQueue> queue_;
  ShadowStore shadow_;
  std::unique_ptr<Analyzer> analyzer_;
  std::unique_ptr<FaultScheduler> scheduler_;
  std::unique_ptr<workload::WorkloadGenerator> generator_;
  sim::Rng rng_;
  RunState run_;
};

}  // namespace pofi::platform
