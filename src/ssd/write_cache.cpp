#include "ssd/write_cache.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace pofi::ssd {

WriteCache::WriteCache(sim::Simulator& simulator, ftl::Ftl& ftl, Config config)
    : sim_(simulator), ftl_(ftl), config_(config), rng_(simulator.fork_rng("write-cache")) {
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
  const IndexChunk* c = index_.find(lpn);
  return c == nullptr ? kNoSlot : c->slot[Index::offset(lpn)];
}

std::uint32_t WriteCache::claim_slot(ftl::Lpn lpn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(arena_.size());
    arena_.emplace_back();
  }
  arena_[slot].lpn = lpn;
  index_.touch(lpn).slot[Index::offset(lpn)] = slot;
  return slot;
}

void WriteCache::release_slot(std::uint32_t slot) {
  Entry& e = arena_[slot];
  index_.find(e.lpn)->slot[Index::offset(e.lpn)] = kNoSlot;
  e = Entry{};  // seq 0: every ticket for the slot is now stale
  free_slots_.push_back(slot);
}

bool WriteCache::insert(ftl::Lpn lpn, std::uint64_t content) {
  if (!powered_) return false;
  std::uint32_t slot = slot_of(lpn);
  if (slot == kNoSlot) {
    if (resident_pages() >= config_.capacity_pages) {
      evict_clean_if_needed();
      if (resident_pages() >= config_.capacity_pages) {
        ++stats_.backpressure_stalls;
        return false;  // full of dirty data
      }
    }
    slot = claim_slot(lpn);
  } else if (arena_[slot].dirty) {
    --dirty_count_;  // will re-count below; overwrite coalesces
  }
  Entry& e = arena_[slot];
  e.content = content;
  e.seq = next_seq_++;
  e.dirtied_at = sim_.now();
  e.dirty = true;
  ++dirty_count_;
  dirty_fifo_.push_back(Ticket{slot, e.seq});
  ++stats_.inserts;
  if (auto* m = sim_.metrics()) m->set(obs_dirty_gauge_, dirty_count_);
  pump();
  return true;
}

std::optional<std::uint64_t> WriteCache::lookup(ftl::Lpn lpn) const {
  const std::uint32_t slot = slot_of(lpn);
  if (slot == kNoSlot) return std::nullopt;
  return arena_[slot].content;
}

void WriteCache::invalidate(ftl::Lpn lpn) {
  const std::uint32_t slot = slot_of(lpn);
  if (slot == kNoSlot) return;
  if (arena_[slot].dirty && dirty_count_ > 0) --dirty_count_;
  release_slot(slot);  // FIFO tickets for it become stale and are skipped
  if (auto* m = sim_.metrics()) m->set(obs_dirty_gauge_, dirty_count_);
  notify_space();
}

std::optional<sim::Duration> WriteCache::oldest_dirty_age() const {
  for (const auto& t : dirty_fifo_) {
    if (dirty_ticket(t)) return sim_.now() - arena_[t.slot].dirtied_at;
  }
  return std::nullopt;
}

std::size_t WriteCache::pick_flush_candidate(bool pressured) {
  constexpr std::size_t kNone = ~std::size_t{0};
  // Drop stale tickets off the head first.
  while (!dirty_fifo_.empty() && !dirty_ticket(dirty_fifo_.front())) dirty_fifo_.pop_front();
  if (dirty_fifo_.empty()) return kNone;

  // Head must be ripe (or the cache pressured) for anything to flush.
  const sim::Duration head_age = sim_.now() - arena_[dirty_fifo_.front().slot].dirtied_at;
  if (!pressured && head_age < config_.hold_time) {
    sim_.cancel(wake_event_);
    wake_event_ = sim_.after(config_.hold_time - head_age, [this] { pump(); });
    return kNone;
  }

  // Pick uniformly among the ripe candidates in the scramble window.
  const std::size_t window =
      std::min<std::size_t>(std::max<std::uint32_t>(1, config_.flush_scramble_window),
                            dirty_fifo_.size());
  std::size_t ripe = 0;
  for (std::size_t i = 0; i < window; ++i) {
    const Ticket& t = dirty_fifo_[i];
    if (!dirty_ticket(t)) continue;
    if (!pressured && (sim_.now() - arena_[t.slot].dirtied_at) < config_.hold_time) break;
    ++ripe;
  }
  if (ripe == 0) return 0;  // head itself (ripe by the check above)
  std::size_t target = rng_.below(ripe);
  for (std::size_t i = 0; i < window; ++i) {
    const Ticket& t = dirty_fifo_[i];
    if (!dirty_ticket(t)) continue;
    if (!pressured && (sim_.now() - arena_[t.slot].dirtied_at) < config_.hold_time) break;
    if (target-- == 0) return i;
  }
  return 0;
}

void WriteCache::pump() {
  if (!powered_) return;
  const bool pressured =
      emergency_ ||
      static_cast<double>(dirty_count_) >=
          config_.high_watermark * static_cast<double>(config_.capacity_pages);
  while (in_flight_ < config_.flush_ways) {
    const std::size_t idx = pick_flush_candidate(pressured);
    if (idx == ~std::size_t{0}) return;
    const Ticket t = dirty_fifo_[idx];
    dirty_fifo_.erase(dirty_fifo_.begin() + static_cast<std::ptrdiff_t>(idx));
    if (!dirty_ticket(t)) continue;
    issue_flush(t.slot);
  }
}

void WriteCache::issue_flush(std::uint32_t slot) {
  ++in_flight_;
  const Entry& e = arena_[slot];
  // Sixteen trivially copyable bytes, which std::function stores inline: a
  // flush allocates nothing. The low half of seq identifies the dirtying,
  // as far fewer than 2^32 inserts happen while one flush is in flight.
  const auto seq_low = static_cast<std::uint32_t>(e.seq);
  ftl_.write(e.lpn, e.content, [this, slot, seq_low](bool ok) { flush_done(slot, seq_low, ok); });
}

void WriteCache::flush_done(std::uint32_t slot, std::uint32_t seq_low, bool ok) {
  if (in_flight_ > 0) --in_flight_;
  if (!powered_) return;
  // A completion from before a power loss may name a slot the arena no
  // longer has.
  Entry* e = slot < arena_.size() ? &arena_[slot] : nullptr;
  if (e != nullptr && e->dirty && static_cast<std::uint32_t>(e->seq) == seq_low) {
    if (ok) {
      if (auto* m = sim_.metrics()) {
        m->record(obs_flush_latency_, (sim_.now() - e->dirtied_at).count_ns() / 1000);
      }
      e->dirty = false;
      if (dirty_count_ > 0) --dirty_count_;
      clean_fifo_.push_back(Ticket{slot, e->seq});
      ++stats_.flushes_completed;
      if (auto* m = sim_.metrics()) m->set(obs_dirty_gauge_, dirty_count_);
      evict_clean_if_needed();
      notify_space();
    } else {
      // Failed program: page stays dirty, retry via a fresh ticket.
      dirty_fifo_.push_back(Ticket{slot, e->seq});
    }
  }
  pump();
  check_emergency_done();
}

void WriteCache::evict_clean_if_needed() {
  while (resident_pages() >= config_.capacity_pages && !clean_fifo_.empty()) {
    const Ticket t = clean_fifo_.front();
    clean_fifo_.pop_front();
    const Entry& e = arena_[t.slot];
    if (e.dirty || e.seq != t.seq) continue;
    release_slot(t.slot);
    ++stats_.clean_evictions;
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
  if (dirty_count_ == 0 && in_flight_ == 0) {
    auto cb = std::move(emergency_done_);
    emergency_done_ = nullptr;
    emergency_ = false;  // back to normal hold-time batching
    if (auto* m = sim_.metrics()) m->trace().end(obs_span_flush_all_, sim_.now());
    cb();
  }
}

std::size_t WriteCache::on_power_lost() {
  powered_ = false;
  const std::size_t lost = dirty_count_;
  stats_.dirty_lost_on_power_failure += lost;
  if (auto* m = sim_.metrics()) {
    m->add(obs_dirty_lost_, lost);
    m->set(obs_dirty_gauge_, 0);
    m->trace().end(obs_span_flush_all_, sim_.now());  // fault mid-drain
  }
  last_dropped_lpns_.clear();
  for (const Entry& e : arena_) {
    if (e.dirty) last_dropped_lpns_.push_back(e.lpn);
  }
  arena_.clear();
  free_slots_.clear();
  index_.clear();
  dirty_fifo_.clear();
  clean_fifo_.clear();
  dirty_count_ = 0;
  in_flight_ = 0;
  emergency_ = false;
  emergency_done_ = nullptr;
  space_waiters_.clear();
  sim_.cancel(wake_event_);
  return lost;
}

void WriteCache::on_power_good() {
  powered_ = true;
  emergency_ = false;
}

void WriteCache::reset() {
  powered_ = false;
  emergency_ = false;
  emergency_done_ = nullptr;
  arena_.clear();
  free_slots_.clear();
  index_.clear();
  dirty_fifo_.clear();
  clean_fifo_.clear();
  dirty_count_ = 0;
  in_flight_ = 0;
  next_seq_ = 1;
  wake_event_ = {};
  space_waiters_.clear();
  last_dropped_lpns_.clear();
  stats_ = CacheStats{};
  rng_ = sim_.fork_rng("write-cache");
}

}  // namespace pofi::ssd
