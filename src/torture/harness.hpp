// CrashHarness: one deterministic crash-point experiment on a TestPlatform.
//
// The harness replaces the platform's own campaign loop with a schedule whose
// injection point is an exact *event-queue boundary* rather than a sampled
// time offset. One golden pilot run executes the schedule — power-up, mount,
// a fixed open-loop stream of `requests` workload requests, all RNG streams
// forked under fixed labels from the platform seed — and checkpoints the
// whole machine at quiescent boundaries, starting with the post-mount
// baseline. Every crash point then restores the nearest checkpoint and
// replays only the residual window, so the k-th event boundary after the
// baseline names the same machine state in every run, at any thread count.
// A CountdownProbe stops the simulator exactly there; the harness then
// injects the configured power fault, rides the rail down, dwells, remounts
// through the normal POR path and hands the recovered device to the
// InvariantAuditor.
//
// The harness owns the host's side channels during the run: it allocates
// shadow-store tags per write, commits them on ACK, and marks anything still
// in flight at the crash as indeterminate (the device may legitimately hold
// either version), which is exactly the precondition the auditor's
// lost-ACKed-write check needs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <optional>
#include <unordered_map>
#include <vector>

#include "platform/test_platform.hpp"
#include "sim/simulator.hpp"
#include "torture/auditor.hpp"
#include "torture/torture_spec.hpp"
#include "workload/workload.hpp"

namespace pofi::torture {

/// Stops the run loops at the first boundary where the lifetime event count
/// reaches `target` (see sim::BoundaryProbe). Reusable for passive counting
/// by setting an unreachable target.
class CountdownProbe final : public sim::BoundaryProbe {
 public:
  explicit CountdownProbe(std::uint64_t target) : target_(target) {}
  bool on_boundary(std::uint64_t events_fired) override {
    ++consulted_;
    if (events_fired >= target_) {
      tripped_ = true;
      return true;
    }
    return false;
  }
  [[nodiscard]] bool tripped() const { return tripped_; }
  [[nodiscard]] std::uint64_t consulted() const { return consulted_; }

 private:
  std::uint64_t target_;
  std::uint64_t consulted_ = 0;
  bool tripped_ = false;
};

struct CrashOutcome {
  std::uint64_t boundary = 0;  ///< injection point, events past the baseline
  bool injected = false;       ///< probe tripped (false: schedule quiesced first)
  AuditReport report;
};

/// The harness's own position in the schedule: everything a checkpoint
/// carries besides the device stack, the generator and the pump timer.
struct HarnessCursor {
  std::uint64_t base = 0;  ///< absolute events_fired at the post-mount baseline
  std::uint64_t submitted = 0;
  std::uint64_t next_key = 1;
  sim::Rng pace_rng;
};

/// One quiescent-boundary checkpoint of the pilot run: the harness's own
/// cursor plus the whole device-stack image. Sized to be pooled — restoring
/// into warm containers copies without allocating.
struct HarnessSnapshot {
  std::uint64_t boundary = 0;  ///< events past the baseline at capture
  HarnessCursor cursor;
  workload::WorkloadGenerator::StateImage gen;
  sim::TimerImage pump;
  platform::TestPlatform::StateImage platform;
};

/// Pilot artifacts shared by every crash point of a sweep: the schedule
/// length B, the full golden request stream (prefix source for restored
/// runs), and checkpoints every ~snapshot_interval events. The first
/// checkpoint is always the post-mount baseline (boundary 0), so every
/// boundary has one at or before it.
struct SchedulePilot {
  std::uint64_t schedule_events = 0;
  std::vector<workload::RequestSpec> recording;
  /// Ascending by boundary, front() at 0. A deque, so growth never copies
  /// the images already captured (their move is not noexcept).
  std::deque<HarnessSnapshot> snapshots;

  /// Latest checkpoint at or before `boundary`. Precondition: filled by
  /// CrashHarness::run_pilot (which guarantees the baseline checkpoint).
  [[nodiscard]] const HarnessSnapshot& nearest_at_or_before(std::uint64_t boundary) const {
    const auto after = std::upper_bound(
        snapshots.begin(), snapshots.end(), boundary,
        [](std::uint64_t b, const HarnessSnapshot& s) { return b < s.boundary; });
    return *std::prev(after);
  }
};

class CrashHarness {
 public:
  /// `cfg` must outlive the harness (the explorer owns both).
  explicit CrashHarness(const TortureConfig& cfg) : cfg_(cfg) {}

  CrashHarness(const CrashHarness&) = delete;
  CrashHarness& operator=(const CrashHarness&) = delete;

  /// Golden run, no injection: execute the full schedule to quiescence
  /// (all requests submitted and completed, cache drained) plus a journal
  /// margin, and return the boundary count B — every k in [0, B) is a
  /// meaningful injection point. Along the way, record a device-state
  /// checkpoint at the post-mount baseline, at every quiescent boundary at
  /// least `snapshot_interval` events past the previous one, and at the
  /// drained tail. `tp` must be freshly acquired/reset for this config and
  /// seed. Throws std::runtime_error if the baseline is not quiescent.
  std::uint64_t run_pilot(platform::TestPlatform& tp, SchedulePilot& out,
                          std::uint64_t snapshot_interval);

  /// Crash run: restore `snap` onto `tp` (which may be dirty from a previous
  /// crash run — no reset needed), replay only the residual window up to
  /// `boundary`, inject the fault, remount and audit. Precondition:
  /// snap.boundary <= boundary and `tp` compatible with this config.
  CrashOutcome run_crash_point_from(platform::TestPlatform& tp, const SchedulePilot& pilot,
                                    const HarnessSnapshot& snap, std::uint64_t boundary);

  /// Requests actually submitted during the most recent run, in submission
  /// order — the workload prefix a shrunk repro replays verbatim.
  [[nodiscard]] const std::vector<workload::RequestSpec>& recorded_requests() const {
    return recorded_;
  }

 private:
  struct PendingWrite {
    ftl::Lpn lpn = 0;
    std::vector<std::uint64_t> tags;
  };

  /// Power up (if needed), run to mount, install the torture fault, set the
  /// event baseline and schedule the first submission.
  void begin_run(platform::TestPlatform& tp);
  void pump();
  void submit(const workload::RequestSpec& spec);
  void on_write_done(std::uint64_t key, blk::IoStatus status);
  [[nodiscard]] bool drained() const;
  /// Whole-stack quiescence census: platform quiescent, no unsettled writes,
  /// and the simulator holds exactly the armed re-armable timers (pump,
  /// journal tick, cache wake) — i.e. nothing uncapturable is in flight.
  [[nodiscard]] bool quiescent_for_snapshot() const;
  void capture(HarnessSnapshot& snap) const;
  void restore_from(platform::TestPlatform& tp, const SchedulePilot& pilot,
                    const HarnessSnapshot& snap);
  /// From the restored `tp`: probe to `boundary`, inject, ride the rail
  /// down, dwell, remount, mark unsettled writes indeterminate, audit.
  CrashOutcome run_crash_point(platform::TestPlatform& tp, std::uint64_t boundary);
  /// Step until `stop` holds; throws if the sim goes idle or the event
  /// budget blows first (a wedged schedule, not a finding).
  template <class Pred>
  void run_sim_until(Pred stop, const char* what);

  const TortureConfig& cfg_;

  // Per-run state (set by begin_run or restore_from).
  platform::TestPlatform* tp_ = nullptr;
  std::optional<workload::WorkloadGenerator> gen_;
  HarnessCursor cursor_;
  bool halted_ = false;          ///< crash reached: no further submissions
  sim::EventId pump_event_{};    ///< armed inter-arrival timer (census/capture)
  sim::TimerRearmer rearm_;      ///< pooled across restores
  std::unordered_map<std::uint64_t, PendingWrite> outstanding_;
  std::vector<workload::RequestSpec> recorded_;
};

}  // namespace pofi::torture
