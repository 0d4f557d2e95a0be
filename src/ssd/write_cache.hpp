// Volatile DRAM write-back cache inside the SSD.
//
// Commodity drives ACK a write as soon as it lands in DRAM; dirty pages are
// flushed to flash later (we model a hold time — controllers batch and
// coalesce overwrites — plus a bounded-concurrency background flusher). The
// gap between ACK and durability is the paper's headline vulnerability: a
// power fault up to ~700 ms after completion still kills the data (§IV-A),
// and small requests that fit entirely in DRAM produce the FWA failures that
// dominate Fig. 7.
//
// Layout: entries live in an arena of at most capacity_pages slots, found by
// LPN through a paged dense index (ftl::PagedDense). FIFO tickets and flush
// completions name arena slots, so the flusher never looks an LPN up, and a
// power loss walks the arena once and then drops the index wholesale.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "ftl/dense.hpp"
#include "ftl/ftl.hpp"
#include "ftl/types.hpp"
#include "obs/fwd.hpp"
#include "sim/simulator.hpp"

namespace pofi::ssd {

struct CacheStats {
  std::uint64_t inserts = 0;
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t flushes_completed = 0;
  std::uint64_t clean_evictions = 0;
  std::uint64_t backpressure_stalls = 0;
  std::uint64_t dirty_lost_on_power_failure = 0;  ///< cumulative
};

class WriteCache {
 public:
  struct Config {
    std::size_t capacity_pages = 65536;          ///< 256 MiB of 4 KiB pages
    sim::Duration hold_time = sim::Duration::ms(500);  ///< batching delay before flush
    std::uint32_t flush_ways = 8;                ///< concurrent background flushes
    double high_watermark = 0.75;                ///< dirty fraction forcing eager flush
    /// Controllers reorder flushes for striping/coalescing, so a request's
    /// pages do not reach flash atomically: the flusher picks uniformly from
    /// this many ripe head-of-queue candidates (1 = strict FIFO). This is
    /// what turns a fault into *partially applied* requests (data failures)
    /// rather than clean all-or-nothing FWAs.
    std::uint32_t flush_scramble_window = 32;

    bool operator==(const Config&) const = default;
  };

  WriteCache(sim::Simulator& simulator, ftl::Ftl& ftl, Config config);

  WriteCache(const WriteCache&) = delete;
  WriteCache& operator=(const WriteCache&) = delete;

  /// Insert (or overwrite) a dirty page. Returns false when the cache is
  /// full of dirty data — the caller must wait for on_space().
  [[nodiscard]] bool insert(ftl::Lpn lpn, std::uint64_t content);

  /// Register a one-shot callback fired when space frees up.
  void on_space(std::function<void()> cb) { space_waiters_.push_back(std::move(cb)); }

  /// Cache lookup for reads (dirty or clean entries both hit).
  [[nodiscard]] std::optional<std::uint64_t> lookup(ftl::Lpn lpn) const;

  /// Drop a page outright (TRIM): discarded data must not be served from
  /// DRAM, dirty or not.
  void invalidate(ftl::Lpn lpn);

  [[nodiscard]] std::size_t dirty_pages() const { return state_.dirty_count; }
  [[nodiscard]] std::size_t resident_pages() const {
    return state_.arena.size() - state_.free_slots.size();
  }
  [[nodiscard]] const CacheStats& stats() const { return state_.stats; }

  /// Age of the oldest still-dirty page (vulnerability window probe).
  [[nodiscard]] std::optional<sim::Duration> oldest_dirty_age() const;

  /// Drain every dirty page as fast as possible, ignoring hold time. Used
  /// by the PLP emergency path and by host FLUSH commands. `done` fires when
  /// no dirty page remains (or everything was dropped on power loss); the
  /// cache then returns to normal hold-time batching.
  void flush_all(std::function<void()> done);

  /// Power loss: every entry vanishes. Returns how many dirty pages died.
  std::size_t on_power_lost();
  void on_power_good();

  /// LPNs whose dirty (ACKed but unflushed) data died in the most recent
  /// power loss — the cache's declaration of knowingly lost writes. In
  /// arena order, not sorted (readers that search it sort a copy); cleared
  /// on reset, replaced on each loss.
  [[nodiscard]] const std::vector<ftl::Lpn>& last_dropped_lpns() const {
    return state_.last_dropped_lpns;
  }

  /// Session reset: back to the just-constructed (unpowered, empty) state
  /// with container capacities retained; the cache RNG stream is re-forked
  /// from the (reseeded) master. Precondition: simulator events drained.
  void reset();

  /// True when no flush is in flight and nothing is stalled on space
  /// (snapshot precondition; the hold-time wake may be armed — it is
  /// captured as a timer).
  [[nodiscard]] bool quiescent() const {
    return in_flight_ == 0 && !emergency_ && space_waiters_.empty();
  }

  /// Whether the hold-time wake is currently scheduled (quiescence census).
  [[nodiscard]] bool wake_timer_armed() const { return sim_.event_pending(wake_event_); }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// One arena slot. A free slot has seq 0 and is not dirty.
  struct Entry {
    ftl::Lpn lpn = 0;
    std::uint64_t content = 0;
    std::uint64_t seq = 0;  ///< unique per dirtying (from 1); stales tickets
    sim::TimePoint dirtied_at;
    bool dirty = false;
  };
  /// A FIFO position: the slot and the dirtying it was queued for. Slots are
  /// reused, but seq never repeats, so a stale ticket never matches.
  struct Ticket {
    std::uint32_t slot;
    std::uint64_t seq;
  };
  /// One index chunk: the arena slots of 64 consecutive LPNs.
  struct IndexChunk {
    IndexChunk() { slot.fill(kNoSlot); }
    std::array<std::uint32_t, 64> slot;
  };
  using Index = ftl::PagedDense<IndexChunk>;
  static_assert(Index::kChunkSize == 64);

  [[nodiscard]] std::uint32_t slot_of(ftl::Lpn lpn) const;
  /// Take a free slot for `lpn` and index it.
  std::uint32_t claim_slot(ftl::Lpn lpn);
  /// Unindex a resident slot and put it on the free list.
  void release_slot(std::uint32_t slot);
  /// True while `t` names the slot's current dirtying.
  [[nodiscard]] bool dirty_ticket(const Ticket& t) const {
    const Entry& e = state_.arena[t.slot];
    return e.dirty && e.seq == t.seq;
  }

 public:
  /// Cache state. Flushes in flight, space waiters and a FLUSH/PLP drain
  /// are in-flight fields outside it, idle at a quiescent boundary.
  struct StateImage {
    sim::Rng rng;  ///< flush scrambling
    bool powered = false;
    std::vector<Entry> arena;  ///< grows to at most capacity_pages slots
    std::vector<std::uint32_t> free_slots;
    Index index;  ///< LPN -> arena slot
    std::deque<Ticket> dirty_fifo;
    std::deque<Ticket> clean_fifo;
    std::size_t dirty_count = 0;
    std::uint64_t next_seq = 1;
    std::vector<ftl::Lpn> last_dropped_lpns;
    CacheStats stats;
    /// Image only: snapshot() fills it; the live value's copy is never read.
    sim::TimerImage wake_timer;
  };
  void snapshot(StateImage& out) const {
    out = state_;
    out.wake_timer = sim_.timer_image(wake_event_);
  }
  void restore(const StateImage& image, sim::TimerRearmer& rearm);

 private:
  void pump();
  /// Index into the dirty FIFO of the ticket to flush next, or npos when the
  /// ripe window is empty.
  [[nodiscard]] std::size_t pick_flush_candidate(bool pressured);
  void issue_flush(std::uint32_t slot);
  void flush_done(std::uint32_t slot, std::uint32_t seq_low, bool ok);
  void evict_clean_if_needed();
  void notify_space();
  void check_emergency_done();
  /// Drop flushes in flight, space waiters and any drain (their events are
  /// gone) and forget the wake timer's event id.
  void clear_in_flight();

  sim::Simulator& sim_;
  ftl::Ftl& ftl_;
  Config config_;
  StateImage state_;
  const StateImage pristine_;  ///< see sim/state_image.hpp
  bool emergency_ = false;
  std::function<void()> emergency_done_;
  std::uint32_t in_flight_ = 0;
  sim::EventId wake_event_{};
  std::vector<std::function<void()>> space_waiters_;

  // Observability handles (no-ops unless a registry is attached to sim_).
  obs::MetricId obs_dirty_gauge_ = obs::kNoMetric;
  obs::MetricId obs_dirty_lost_ = obs::kNoMetric;
  obs::MetricId obs_flush_latency_ = obs::kNoMetric;
  std::uint32_t obs_span_flush_all_ = 0;
};

}  // namespace pofi::ssd
