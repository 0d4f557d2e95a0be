#include "ssd/write_cache.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace pofi::ssd {

WriteCache::WriteCache(sim::Simulator& simulator, ftl::Ftl& ftl, Config config)
    : sim_(simulator), ftl_(ftl), config_(config) {
  reset();
  if (auto* m = sim_.metrics()) {
    obs_dirty_gauge_ = m->gauge("ssd.cache.dirty_pages");
    obs_dirty_lost_ = m->counter("ssd.cache.dirty_lost");
    // Dirtied-to-durable latency; the hold time dominates, so buckets span
    // sub-millisecond flusher turnaround up to multi-second starvation.
    obs_flush_latency_ = m->histogram(
        "ssd.cache.flush_latency_us",
        {100, 500, 1'000, 5'000, 10'000, 50'000, 100'000, 500'000, 1'000'000, 5'000'000});
    obs_span_flush_all_ = m->trace().intern("ssd.cache.flush_all");
  }
}

std::uint32_t WriteCache::slot_of(ftl::Lpn lpn) const {
  const IndexChunk* c = state_.index.find(lpn);
  return c == nullptr ? kNoSlot : c->slot[Index::offset(lpn)];
}

std::uint32_t WriteCache::claim_slot(ftl::Lpn lpn) {
  std::uint32_t slot;
  if (!state_.free_slots.empty()) {
    slot = state_.free_slots.back();
    state_.free_slots.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(state_.arena.size());
    state_.arena.emplace_back();
  }
  state_.arena[slot].lpn = lpn;
  state_.index.touch(lpn).slot[Index::offset(lpn)] = slot;
  return slot;
}

void WriteCache::release_slot(std::uint32_t slot) {
  Entry& e = state_.arena[slot];
  state_.index.find(e.lpn)->slot[Index::offset(e.lpn)] = kNoSlot;
  e = Entry{};  // seq 0: every ticket for the slot is now stale
  state_.free_slots.push_back(slot);
}

bool WriteCache::insert(ftl::Lpn lpn, std::uint64_t content) {
  if (!state_.powered) return false;
  std::uint32_t slot = slot_of(lpn);
  if (slot == kNoSlot) {
    if (resident_pages() >= config_.capacity_pages) {
      evict_clean_if_needed();
      if (resident_pages() >= config_.capacity_pages) {
        ++state_.stats.backpressure_stalls;
        return false;  // full of dirty data
      }
    }
    slot = claim_slot(lpn);
  } else if (state_.arena[slot].dirty) {
    --state_.dirty_count;  // will re-count below; overwrite coalesces
  }
  Entry& e = state_.arena[slot];
  e.content = content;
  e.seq = state_.next_seq++;
  e.dirtied_at = sim_.now();
  e.dirty = true;
  ++state_.dirty_count;
  state_.dirty_fifo.push_back(Ticket{slot, e.seq});
  ++state_.stats.inserts;
  if (auto* m = sim_.metrics()) m->set(obs_dirty_gauge_, state_.dirty_count);
  pump();
  return true;
}

std::optional<std::uint64_t> WriteCache::lookup(ftl::Lpn lpn) const {
  const std::uint32_t slot = slot_of(lpn);
  if (slot == kNoSlot) return std::nullopt;
  return state_.arena[slot].content;
}

void WriteCache::invalidate(ftl::Lpn lpn) {
  const std::uint32_t slot = slot_of(lpn);
  if (slot == kNoSlot) return;
  if (state_.arena[slot].dirty && state_.dirty_count > 0) --state_.dirty_count;
  release_slot(slot);  // FIFO tickets for it become stale and are skipped
  if (auto* m = sim_.metrics()) m->set(obs_dirty_gauge_, state_.dirty_count);
  notify_space();
}

std::optional<sim::Duration> WriteCache::oldest_dirty_age() const {
  for (const auto& t : state_.dirty_fifo) {
    if (dirty_ticket(t)) return sim_.now() - state_.arena[t.slot].dirtied_at;
  }
  return std::nullopt;
}

std::size_t WriteCache::pick_flush_candidate(bool pressured) {
  constexpr std::size_t kNone = ~std::size_t{0};
  // Drop stale tickets off the head first.
  while (!state_.dirty_fifo.empty() && !dirty_ticket(state_.dirty_fifo.front())) {
    state_.dirty_fifo.pop_front();
  }
  if (state_.dirty_fifo.empty()) return kNone;

  // Head must be ripe (or the cache pressured) for anything to flush.
  const sim::Duration head_age =
      sim_.now() - state_.arena[state_.dirty_fifo.front().slot].dirtied_at;
  if (!pressured && head_age < config_.hold_time) {
    sim_.cancel(wake_event_);
    wake_event_ = sim_.after(config_.hold_time - head_age, [this] { pump(); });
    return kNone;
  }

  // Pick uniformly among the ripe candidates in the scramble window.
  const std::size_t window =
      std::min<std::size_t>(std::max<std::uint32_t>(1, config_.flush_scramble_window),
                            state_.dirty_fifo.size());
  std::size_t ripe = 0;
  for (std::size_t i = 0; i < window; ++i) {
    const Ticket& t = state_.dirty_fifo[i];
    if (!dirty_ticket(t)) continue;
    if (!pressured && (sim_.now() - state_.arena[t.slot].dirtied_at) < config_.hold_time) break;
    ++ripe;
  }
  if (ripe == 0) return 0;  // head itself (ripe by the check above)
  std::size_t target = state_.rng.below(ripe);
  for (std::size_t i = 0; i < window; ++i) {
    const Ticket& t = state_.dirty_fifo[i];
    if (!dirty_ticket(t)) continue;
    if (!pressured && (sim_.now() - state_.arena[t.slot].dirtied_at) < config_.hold_time) break;
    if (target-- == 0) return i;
  }
  return 0;
}

void WriteCache::pump() {
  if (!state_.powered) return;
  const bool pressured =
      emergency_ ||
      static_cast<double>(state_.dirty_count) >=
          config_.high_watermark * static_cast<double>(config_.capacity_pages);
  while (in_flight_ < config_.flush_ways) {
    const std::size_t idx = pick_flush_candidate(pressured);
    if (idx == ~std::size_t{0}) return;
    const Ticket t = state_.dirty_fifo[idx];
    state_.dirty_fifo.erase(state_.dirty_fifo.begin() + static_cast<std::ptrdiff_t>(idx));
    if (!dirty_ticket(t)) continue;
    issue_flush(t.slot);
  }
}

void WriteCache::issue_flush(std::uint32_t slot) {
  ++in_flight_;
  const Entry& e = state_.arena[slot];
  // Sixteen trivially copyable bytes, which std::function stores inline: a
  // flush allocates nothing. The low half of seq identifies the dirtying,
  // as far fewer than 2^32 inserts happen while one flush is in flight.
  const auto seq_low = static_cast<std::uint32_t>(e.seq);
  ftl_.write(e.lpn, e.content, [this, slot, seq_low](bool ok) { flush_done(slot, seq_low, ok); });
}

void WriteCache::flush_done(std::uint32_t slot, std::uint32_t seq_low, bool ok) {
  if (in_flight_ > 0) --in_flight_;
  if (!state_.powered) return;
  // A completion from before a power loss may name a slot the arena no
  // longer has.
  Entry* e = slot < state_.arena.size() ? &state_.arena[slot] : nullptr;
  if (e != nullptr && e->dirty && static_cast<std::uint32_t>(e->seq) == seq_low) {
    if (ok) {
      if (auto* m = sim_.metrics()) {
        m->record(obs_flush_latency_, (sim_.now() - e->dirtied_at).count_ns() / 1000);
      }
      e->dirty = false;
      if (state_.dirty_count > 0) --state_.dirty_count;
      state_.clean_fifo.push_back(Ticket{slot, e->seq});
      ++state_.stats.flushes_completed;
      if (auto* m = sim_.metrics()) m->set(obs_dirty_gauge_, state_.dirty_count);
      evict_clean_if_needed();
      notify_space();
    } else {
      // Failed program: page stays dirty, retry via a fresh ticket.
      state_.dirty_fifo.push_back(Ticket{slot, e->seq});
    }
  }
  pump();
  check_emergency_done();
}

void WriteCache::evict_clean_if_needed() {
  while (resident_pages() >= config_.capacity_pages && !state_.clean_fifo.empty()) {
    const Ticket t = state_.clean_fifo.front();
    state_.clean_fifo.pop_front();
    const Entry& e = state_.arena[t.slot];
    if (e.dirty || e.seq != t.seq) continue;
    release_slot(t.slot);
    ++state_.stats.clean_evictions;
  }
}

void WriteCache::notify_space() {
  if (space_waiters_.empty()) return;
  if (resident_pages() >= config_.capacity_pages) return;
  auto waiters = std::move(space_waiters_);
  space_waiters_.clear();
  for (auto& w : waiters) w();
}

void WriteCache::flush_all(std::function<void()> done) {
  emergency_ = true;
  emergency_done_ = std::move(done);
  if (auto* m = sim_.metrics()) m->trace().begin(obs_span_flush_all_, sim_.now());
  pump();
  check_emergency_done();
}

void WriteCache::check_emergency_done() {
  if (!emergency_ || emergency_done_ == nullptr) return;
  if (state_.dirty_count == 0 && in_flight_ == 0) {
    auto cb = std::move(emergency_done_);
    emergency_done_ = nullptr;
    emergency_ = false;  // back to normal hold-time batching
    if (auto* m = sim_.metrics()) m->trace().end(obs_span_flush_all_, sim_.now());
    cb();
  }
}

std::size_t WriteCache::on_power_lost() {
  state_.powered = false;
  const std::size_t lost = state_.dirty_count;
  state_.stats.dirty_lost_on_power_failure += lost;
  if (auto* m = sim_.metrics()) {
    m->add(obs_dirty_lost_, lost);
    m->set(obs_dirty_gauge_, 0);
    m->trace().end(obs_span_flush_all_, sim_.now());  // fault mid-drain
  }
  state_.last_dropped_lpns.clear();
  for (const Entry& e : state_.arena) {
    if (e.dirty) state_.last_dropped_lpns.push_back(e.lpn);
  }
  state_.arena.clear();
  state_.free_slots.clear();
  state_.index.clear();
  state_.dirty_fifo.clear();
  state_.clean_fifo.clear();
  state_.dirty_count = 0;
  sim_.cancel(wake_event_);
  clear_in_flight();
  return lost;
}

void WriteCache::on_power_good() {
  state_.powered = true;
  emergency_ = false;
}

void WriteCache::clear_in_flight() {
  emergency_ = false;
  emergency_done_ = nullptr;
  in_flight_ = 0;
  wake_event_ = {};
  space_waiters_.clear();
}

void WriteCache::reset() {
  state_ = pristine_;
  state_.rng = sim_.fork_rng("write-cache");
  clear_in_flight();
}

void WriteCache::restore(const StateImage& image, sim::TimerRearmer& rearm) {
  state_ = image;
  clear_in_flight();
  rearm.enqueue(image.wake_timer, [this, deadline = image.wake_timer.deadline] {
    wake_event_ = sim_.at(deadline, [this] { pump(); });
  });
}

}  // namespace pofi::ssd
