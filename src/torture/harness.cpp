#include "torture/harness.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace pofi::torture {

namespace {

/// Hard ceiling on events a single crash-point run may consume past its
/// baseline. A schedule that has not quiesced (or reached its boundary) by
/// then is wedged — report it as an error, never spin the worker forever.
constexpr std::uint64_t kRunEventBudget = 50'000'000;

}  // namespace

template <class Pred>
void CrashHarness::run_sim_until(Pred stop, const char* what) {
  sim::Simulator& sim = tp_->simulator();
  while (!stop()) {
    if (sim.idle()) {
      throw std::runtime_error(std::string("torture harness: simulator idle while ") + what);
    }
    sim.run_all(4096);
    if (sim.events_fired() > cursor_.base + kRunEventBudget) {
      throw std::runtime_error(std::string("torture harness: event budget exhausted while ") +
                               what);
    }
  }
}

void CrashHarness::begin_run(platform::TestPlatform& tp) {
  tp_ = &tp;
  halted_ = false;
  pump_event_ = {};
  outstanding_.clear();
  recorded_.clear();

  sim::Simulator& sim = tp.simulator();
  // Power-up and mount, exactly like the platform's own campaign prologue.
  // The baseline is the true start during the mount, so run_sim_until's
  // budget is measured from there.
  cursor_ = HarnessCursor();
  cursor_.base = sim.events_fired();
  tp.scheduler().command_on();
  run_sim_until([&] { return tp.device().ready(); }, "mounting");

  if (cfg_.break_recovery) {
    tp.device().ftl().set_torture_fault(ftl::Ftl::TortureFault::kSkipLastJournalRecord);
  }

  // Everything after this boundary is the explorable schedule. The workload
  // and pace streams fork under fixed labels from the reseeded master, so
  // the k-th boundary names the same machine state in every run.
  cursor_.base = sim.events_fired();
  gen_.emplace(cfg_.workload, sim.fork_rng("torture-workload"));
  cursor_.pace_rng = sim.fork_rng("torture-pace");
  const double gap = cursor_.pace_rng.exponential(1.0 / cfg_.pace_iops);
  pump_event_ = sim.after(sim::Duration::sec_f(gap), [this] { pump(); });
}

void CrashHarness::pump() {
  if (halted_ || cursor_.submitted >= cfg_.requests) return;
  const workload::RequestSpec spec = gen_->next();
  recorded_.push_back(spec);
  ++cursor_.submitted;
  submit(spec);
  if (cursor_.submitted < cfg_.requests) {
    const double gap = cursor_.pace_rng.exponential(1.0 / cfg_.pace_iops);
    pump_event_ = tp_->simulator().after(sim::Duration::sec_f(gap), [this] { pump(); });
  }
}

void CrashHarness::submit(const workload::RequestSpec& spec) {
  blk::BlockQueue& queue = tp_->block_queue();
  if (spec.op == workload::OpType::kWrite) {
    std::vector<std::uint64_t> tags = tp_->shadow().allocate_tags(spec.pages);
    const std::uint64_t key = cursor_.next_key++;
    outstanding_.emplace(key, PendingWrite{spec.lpn, tags});
    queue.submit_write(spec.lpn, std::move(tags), [this, key](blk::RequestOutcome out) {
      on_write_done(key, out.status);
    });
  } else {
    // Reads exercise the datapath but make no durability claim; their
    // outcomes are irrelevant to the invariants under audit.
    queue.submit_read(spec.lpn, spec.pages, [](blk::RequestOutcome) {});
  }
}

void CrashHarness::on_write_done(std::uint64_t key, blk::IoStatus status) {
  const auto it = outstanding_.find(key);
  if (it == outstanding_.end()) return;  // already settled at crash time
  if (status == blk::IoStatus::kOk) {
    tp_->shadow().commit_write(it->second.lpn, it->second.tags);
  } else {
    tp_->shadow().mark_indeterminate(it->second.lpn, it->second.tags);
  }
  outstanding_.erase(it);
}

bool CrashHarness::drained() const {
  return cursor_.submitted >= cfg_.requests && outstanding_.empty() &&
         tp_->block_queue().outstanding() == 0 && tp_->device().cache().dirty_pages() == 0;
}

bool CrashHarness::quiescent_for_snapshot() const {
  if (!tp_->quiescent() || !outstanding_.empty()) return false;
  const sim::Simulator& sim = tp_->simulator();
  std::size_t armed = 0;
  if (sim.event_pending(pump_event_)) ++armed;
  if (tp_->device().ftl().journal_timer_armed()) ++armed;
  if (tp_->device().cache().wake_timer_armed()) ++armed;
  return sim.pending() == armed;
}

void CrashHarness::capture(HarnessSnapshot& snap) const {
  sim::Simulator& sim = tp_->simulator();
  snap.boundary = sim.events_fired() - cursor_.base;
  snap.cursor = cursor_;
  gen_->snapshot(snap.gen);
  snap.pump.armed = sim.event_pending(pump_event_);
  snap.pump.deadline = sim.event_time(pump_event_);
  snap.pump.seq = pump_event_.raw();
  tp_->snapshot(snap.platform);
}

std::uint64_t CrashHarness::run_pilot(platform::TestPlatform& tp, SchedulePilot& out,
                                      std::uint64_t snapshot_interval) {
  begin_run(tp);
  sim::Simulator& sim = tp.simulator();
  if (snapshot_interval == 0) snapshot_interval = 1;

  // Every crash point restores a checkpoint at or before it, so the
  // post-mount baseline is the checkpoint of last resort and must exist.
  if (!quiescent_for_snapshot()) {
    throw std::runtime_error("torture harness: post-mount baseline of '" + cfg_.name +
                             "' is not quiescent, so it cannot be checkpointed");
  }
  out.snapshots.clear();
  out.snapshots.emplace_back();
  capture(out.snapshots.back());

  // drained() is evaluated only at 4096-event chunk boundaries, so B includes
  // the chunk overshoot; run_crash_point's approach loop checks at the same
  // boundaries, which decides which tail points are injected. Stepping singly
  // inside each chunk sees every quiescent boundary; captures are pure reads.
  std::uint64_t next_capture = snapshot_interval;
  while (!drained()) {
    if (sim.idle()) {
      throw std::runtime_error("torture harness: simulator idle while running the pilot");
    }
    for (std::uint32_t step = 0; step < 4096 && !sim.idle(); ++step) {
      if (sim.events_fired() - cursor_.base >= next_capture && quiescent_for_snapshot()) {
        out.snapshots.emplace_back();
        capture(out.snapshots.back());
        next_capture = (sim.events_fired() - cursor_.base) + snapshot_interval;
      }
      sim.run_all(1);
    }
    if (sim.events_fired() > cursor_.base + kRunEventBudget) {
      throw std::runtime_error("torture harness: event budget exhausted while running the pilot");
    }
  }
  // One tail checkpoint at the drained chunk boundary, interval
  // notwithstanding: points late in the window restore from here.
  if (quiescent_for_snapshot() &&
      out.snapshots.back().boundary < sim.events_fired() - cursor_.base) {
    out.snapshots.emplace_back();
    capture(out.snapshots.back());
  }
  // Margin: let the journal cut and commit what the drain left volatile, so
  // boundaries cover the tail where recovery depends on the final commits.
  sim.run_for(cfg_.drive.ftl.journal_interval * 2);
  out.schedule_events = sim.events_fired() - cursor_.base;
  out.recording = recorded_;
  return out.schedule_events;
}

void CrashHarness::restore_from(platform::TestPlatform& tp, const SchedulePilot& pilot,
                                const HarnessSnapshot& snap) {
  tp_ = &tp;
  cursor_ = snap.cursor;
  halted_ = false;
  outstanding_.clear();
  recorded_.assign(pilot.recording.begin(),
                   pilot.recording.begin() + static_cast<std::ptrdiff_t>(snap.cursor.submitted));
  // The generator's config is fixed per harness; only its position restores.
  if (!gen_) gen_.emplace(cfg_.workload, sim::Rng{});
  gen_->restore(snap.gen);
  pump_event_ = {};
  tp.restore(snap.platform, rearm_);
  rearm_.enqueue(snap.pump, [this, deadline = snap.pump.deadline] {
    pump_event_ = tp_->simulator().at(deadline, [this] { pump(); });
  });
  rearm_.execute();
}

CrashOutcome CrashHarness::run_crash_point_from(platform::TestPlatform& tp,
                                                const SchedulePilot& pilot,
                                                const HarnessSnapshot& snap,
                                                std::uint64_t boundary) {
  restore_from(tp, pilot, snap);
  return run_crash_point(tp, boundary);
}

CrashOutcome CrashHarness::run_crash_point(platform::TestPlatform& tp, std::uint64_t boundary) {
  sim::Simulator& sim = tp.simulator();

  CountdownProbe probe(cursor_.base + boundary);
  sim.set_boundary_probe(&probe);
  // The probe stops run_all at the exact boundary; a schedule that quiesces
  // or wedges before reaching it is caught by the guards. drained() is
  // evaluated only at 4096-event boundaries measured from the baseline, the
  // same chunk grid the pilot measured B on — a restored run starts
  // mid-chunk, and checking early would stop short of points in the pilot's
  // chunk overshoot that the pilot counted as boundaries.
  try {
    while (true) {
      const std::uint64_t fired = sim.events_fired() - cursor_.base;
      if (probe.tripped() || (fired % 4096 == 0 && drained())) break;
      if (sim.idle()) {
        throw std::runtime_error(
            "torture harness: simulator idle while approaching the boundary");
      }
      sim.run_all(4096 - fired % 4096);
      if (sim.events_fired() > cursor_.base + kRunEventBudget) {
        throw std::runtime_error(
            "torture harness: event budget exhausted while approaching the boundary");
      }
    }
  } catch (...) {
    sim.set_boundary_probe(nullptr);
    throw;
  }
  sim.set_boundary_probe(nullptr);

  CrashOutcome out;
  out.boundary = boundary;
  out.injected = probe.tripped();
  halted_ = true;  // prefix semantics: nothing new is submitted past here

  if (out.injected) {
    switch (cfg_.injection) {
      case Injection::kImmediateCut:
        tp.power_supply().power_off();
        break;
      case Injection::kCommandOff:
        tp.scheduler().command_off();
        break;
    }
    run_sim_until([&] { return tp.scheduler().rail_fully_down(); }, "riding the rail down");
    sim.run_for(cfg_.platform.post_fault_dwell);
    tp.scheduler().command_on();
    run_sim_until([&] { return tp.device().ready(); }, "remounting");
  }

  // Writes still unsettled at the crash: the device may hold either version.
  // The block layer's own 30 s timeout has not fired this soon after the
  // remount, so declare them indeterminate before the audit.
  for (const auto& [key, w] : outstanding_) {
    tp.shadow().mark_indeterminate(w.lpn, w.tags);
  }
  outstanding_.clear();

  out.report = InvariantAuditor::audit(tp.device(), &tp.shadow());
  return out;
}

}  // namespace pofi::torture
