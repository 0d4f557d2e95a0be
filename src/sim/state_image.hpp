// Snapshot primitives for the device-state capture/restore protocol.
//
// State as a value: every stateful component of the device stack keeps
// everything a checkpoint carries in one member of its StateImage type, so
// snapshot() is `out = state_` and restore() is `state_ = image`. Besides
// that assignment, restore() and reset() only clear the in-flight fields a
// quiescent image never holds (event ids, waiters, plane queues). reset()
// assigns the pristine value the constructor built, then re-forks the
// component's RNG from the reseeded master under its construction-time
// label. Components whose pristine value holds containers keep it as a
// member: copy-assignment reuses the live containers' capacity, where a
// moved-in temporary would drop it (and libstdc++'s std::deque allocates
// even when empty).
//
// The event queue holds non-copyable InplaceFunction callbacks, so the
// simulator's schedule cannot be captured wholesale. Snapshots are therefore
// taken only at *quiescent* boundaries, where the queue holds nothing but a
// small, known set of re-armable timers (the torture harness's pace event,
// the FTL's journal tick, the write cache's hold-time wake). Each timer is
// captured as a TimerImage (Simulator::timer_image) — armed flag, absolute
// deadline, original sequence number — and restore() re-creates the
// callback from code, not from the image.
//
// Relative sequence order among re-armed timers must match the capture
// (ties on time break by seq), so restores enqueue their re-arm closures
// into a TimerRearmer, which sorts by original seq before scheduling. The
// absolute seq values differ after restore; only relative order matters.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace pofi::sim {

/// One re-armable timer at a quiescent boundary.
struct TimerImage {
  bool armed = false;
  TimePoint deadline = TimePoint::zero();
  std::uint64_t seq = 0;  ///< original EventId::raw(), for relative ordering
};

/// The simulator's own state (the queue is re-built by re-arming).
struct SimulatorImage {
  TimePoint now = TimePoint::zero();
  std::uint64_t events_fired = 0;
  Rng rng;  ///< master stream
};

/// Collects re-arm closures during restore and replays them in original
/// scheduling order. The vector is a reusable member of whoever drives the
/// restore, so warmed cycles do not allocate.
class TimerRearmer {
 public:
  /// `schedule` must create the timer's event at its captured deadline.
  void enqueue(const TimerImage& image, std::function<void()> schedule) {
    if (!image.armed) return;
    entries_.push_back(Entry{image.seq, std::move(schedule)});
  }

  /// Re-arm everything in ascending captured-seq order, then forget it.
  void execute() {
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
    for (Entry& e : entries_) e.schedule();
    entries_.clear();  // capacity retained
  }

 private:
  struct Entry {
    std::uint64_t seq = 0;
    std::function<void()> schedule;
  };
  std::vector<Entry> entries_;
};

}  // namespace pofi::sim
