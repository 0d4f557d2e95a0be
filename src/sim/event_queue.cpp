#include "sim/event_queue.hpp"

#include <utility>

namespace pofi::sim {

EventId EventQueue::schedule_at(TimePoint at, Callback cb) {
  std::uint32_t idx;
  if (free_head_ != kNil) {
    idx = free_head_;
    free_head_ = slots_[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[idx];
  s.time = at;
  s.seq = next_seq_++;
  s.cb = std::move(cb);
  s.live = true;
  s.next_free = kNil;

  heap_.push_back(HeapEntry{s.time, s.seq, idx});
  sift_up(heap_.size() - 1);
  ++live_;
  return EventId{s.seq, idx};
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid() || id.slot_ >= slots_.size()) return false;
  Slot& s = slots_[id.slot_];
  // Only a still-pending event can be cancelled; a fired event or a stale
  // handle onto a recycled slot fails the seq check and is a no-op.
  if (!s.live || s.seq != id.seq_) return false;
  s.live = false;
  s.cb.reset();  // free captured state now, not when the tombstone surfaces
  --live_;
  if (heap_.size() > 2 * live_ + kCompactSlack) compact();
  return true;
}

void EventQueue::sift_up(std::size_t pos) {
  const HeapEntry moving = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(moving, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = moving;
}

void EventQueue::sift_down(std::size_t pos) {
  const std::size_t n = heap_.size();
  const HeapEntry moving = heap_[pos];
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], moving)) break;
    heap_[pos] = heap_[child];
    pos = child;
  }
  heap_[pos] = moving;
}

void EventQueue::pop_heap_top() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::release_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.seq = 0;
  s.live = false;
  s.next_free = free_head_;
  free_head_ = idx;
}

void EventQueue::sweep_top() {
  while (!heap_.empty() && !slots_[heap_[0].slot].live) {
    const std::uint32_t idx = heap_[0].slot;
    pop_heap_top();
    release_slot(idx);  // callback already destroyed at cancel()
  }
}

void EventQueue::compact() {
  std::size_t kept = 0;
  for (const HeapEntry& e : heap_) {
    if (slots_[e.slot].live) {
      heap_[kept++] = e;
    } else {
      release_slot(e.slot);  // callback already destroyed at cancel()
    }
  }
  heap_.resize(kept);
  // Floyd's bottom-up heapify. Keys are unique, so the heap's shape cannot
  // influence which entry pops next.
  for (std::size_t pos = kept / 2; pos-- > 0;) sift_down(pos);
}

TimePoint EventQueue::next_time() const {
  // const access: tombstone sweeping only ever removes dead entries, so the
  // observable state is unchanged — same trick the PR-1 kernel used.
  auto* self = const_cast<EventQueue*>(this);
  self->sweep_top();
  if (self->heap_.empty()) return TimePoint::max();
  return heap_[0].time;
}

EventQueue::Fired EventQueue::pop() {
  sweep_top();
  assert(!heap_.empty() && "pop() on empty EventQueue");
  const std::uint32_t idx = heap_[0].slot;
  pop_heap_top();
  Slot& s = slots_[idx];
  Fired fired{s.time, std::move(s.cb)};
  s.cb.reset();
  release_slot(idx);
  --live_;
  return fired;
}

void EventQueue::clear() {
  for (Slot& s : slots_) s.cb.reset();  // tombstones included: free everything
  slots_.clear();
  heap_.clear();
  free_head_ = kNil;
  live_ = 0;
  // next_seq_ keeps counting: EventIds from before the clear stay invalid
  // (their slots are gone) and tie-break order never restarts mid-run.
  assert(empty() && size() == 0 && "clear() must leave no retained state");
}

}  // namespace pofi::sim
