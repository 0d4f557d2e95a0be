// Deterministic discrete-event queue.
//
// Events are (time, sequence, callback). Ties on time break by insertion
// order, which makes simulations reproducible: two events scheduled for the
// same instant always fire in the order they were scheduled.
//
// Implementation: an indexed binary min-heap over a slot arena. Each event
// lives in one slot; the heap orders slot indices by (time, seq). Slots are
// recycled through an intrusive free list, so steady-state scheduling
// allocates nothing, and the callback's inline storage (InplaceFunction)
// keeps captures off the heap too. Cancellation flips the slot dead in O(1)
// — no hash lookups anywhere on the schedule/pop/cancel path — and drops the
// callback's captured state immediately. The heap entry stays behind as a
// tombstone until it reaches the top or until tombstones outnumber live
// entries; then one in-place pass drops them all, frees their slots and
// re-heapifies. Workloads that re-arm far-future timers (the write cache's
// hold-time wake, block-layer request timeouts) cancel most of what they
// schedule, and without that pass every sift would walk a heap of dead
// entries. Compaction costs amortised O(1) per cancel, allocates nothing and
// cannot change pop order, which is the strict (time, seq) order.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/inplace_function.hpp"
#include "sim/time.hpp"

namespace pofi::sim {

/// Inline capture budget for event callbacks. Sized for the fattest capture
/// in the tree (FTL journal/GC continuations); the InplaceFunction
/// static_assert names any future overflow at compile time.
inline constexpr std::size_t kEventCallbackCapacity = 120;

/// Handle for cancelling a scheduled event. Carries the event's sequence
/// number (identity) and its arena slot (O(1) cancellation); a recycled
/// slot's seq mismatch makes stale handles harmless.
class EventId {
 public:
  constexpr EventId() = default;
  [[nodiscard]] constexpr bool valid() const { return seq_ != 0; }
  [[nodiscard]] constexpr std::uint64_t raw() const { return seq_; }
  constexpr bool operator==(const EventId&) const = default;

 private:
  friend class EventQueue;
  constexpr EventId(std::uint64_t s, std::uint32_t slot) : seq_(s), slot_(slot) {}
  std::uint64_t seq_ = 0;
  std::uint32_t slot_ = 0;
};

class EventQueue {
 public:
  using Callback = InplaceFunction<void(), kEventCallbackCapacity>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `cb` to run at absolute time `at`. Returns a cancellable id.
  EventId schedule_at(TimePoint at, Callback cb);

  /// Cancel a pending event. Cancelling an already-fired or unknown id is a
  /// harmless no-op (returns false). The callback and everything it captured
  /// are destroyed immediately, not when the tombstone surfaces.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest pending event; TimePoint::max() when empty.
  [[nodiscard]] TimePoint next_time() const;

  /// True while `id` names a scheduled, not-yet-fired, not-cancelled event.
  /// Stale ids (recycled slot, different seq) read false, like cancel().
  [[nodiscard]] bool pending(EventId id) const {
    return id.valid() && id.slot_ < slots_.size() && slots_[id.slot_].live &&
           slots_[id.slot_].seq == id.raw();
  }

  /// Scheduled firing time of a pending event; TimePoint::max() otherwise.
  [[nodiscard]] TimePoint time_of(EventId id) const {
    return pending(id) ? slots_[id.slot_].time : TimePoint::max();
  }

  /// Pop and return the earliest event. Precondition: !empty().
  struct Fired {
    TimePoint time;
    Callback cb;
  };
  Fired pop();

  /// Drop everything (used when tearing an experiment down). All retained
  /// callback state is freed here, tombstones included.
  void clear();

  /// Heap entries, tombstones included. Compaction keeps this at most
  /// 2 * size() + kCompactSlack after every cancel.
  [[nodiscard]] std::size_t heap_size() const { return heap_.size(); }
  static constexpr std::size_t kCompactSlack = 64;

 private:
  static constexpr std::uint32_t kNil = ~0u;

  struct Slot {
    TimePoint time;
    std::uint64_t seq = 0;  ///< 0 while on the free list
    Callback cb;
    bool live = false;            ///< scheduled and not cancelled
    std::uint32_t next_free = kNil;
  };

  /// Heap entry: the (time, seq) sort key is duplicated out of the slot so
  /// sift comparisons walk contiguous memory instead of dereferencing two
  /// random slots per level (the heap array is hot; the arena is not).
  struct HeapEntry {
    TimePoint time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Strict (time, seq) order — identical tie-breaking to the PR-1 kernel.
  [[nodiscard]] static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void pop_heap_top();
  void release_slot(std::uint32_t idx);
  /// Drop tombstones off the heap top so heap_[0] is live (or heap empty).
  void sweep_top();
  /// Drop every tombstone, free its slot and restore the heap property.
  void compact();

  std::vector<Slot> slots_;      ///< arena; index = slot id
  std::vector<HeapEntry> heap_;  ///< binary min-heap keyed by (time, seq)
  std::uint32_t free_head_ = kNil;  ///< intrusive free list through slots_
  std::size_t live_ = 0;            ///< scheduled minus fired minus cancelled
  std::uint64_t next_seq_ = 1;
};

}  // namespace pofi::sim
