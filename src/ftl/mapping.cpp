#include "ftl/mapping.hpp"

#include <algorithm>
#include <bit>

namespace pofi::ftl {

std::optional<Ppn> MappingTable::lookup(Lpn lpn) const {
  if (lpn >= map_.size() || map_[lpn] == kUnmappedPpn) return std::nullopt;
  return map_[lpn];
}

void MappingTable::grow_to(Lpn lpn) {
  // Doubling keeps amortised growth O(1); clamping to the geometry-derived
  // capacity (when it covers lpn) avoids overshooting the address space.
  std::uint64_t want = std::max<std::uint64_t>(map_.size() * 2, 1024);
  want = std::max<std::uint64_t>(want, lpn + 1);
  if (lpn_capacity_ > lpn) want = std::min(want, lpn_capacity_);
  map_.resize(static_cast<std::size_t>(want), kUnmappedPpn);
}

void MappingTable::set_slot(Lpn lpn, Ppn ppn) {
  if (lpn >= map_.size()) grow_to(lpn);
  if (map_[lpn] == kUnmappedPpn) ++mapped_count_;
  map_[lpn] = ppn;
}

void MappingTable::clear_slot(Lpn lpn) {
  if (lpn < map_.size() && map_[lpn] != kUnmappedPpn) {
    map_[lpn] = kUnmappedPpn;
    --mapped_count_;
  }
}

template <class Fn>
void MappingTable::change_frame(Frame& f, Fn&& change) {
  if (withheld(f)) pending_withheld_ -= f.pending;
  change(f);
  if (withheld(f)) pending_withheld_ += f.pending;
}

void MappingTable::mark_dirty(Lpn lpn, std::optional<Ppn> old_value) {
  DirtyChunk& c = dirty_.touch(lpn);
  const std::uint64_t bit = bit_of(lpn);
  const bool first = (c.volatile_bits & bit) == 0;
  // Already dirty and in no batch: the first-touch persisted value stands.
  if (!first && (c.batched_bits & bit) == 0) return;
  // First touch, or re-dirtied while a batch holding the previous value is
  // in flight: once that batch commits, the batched value (== current map_
  // value before this update) is the durable one. abort_batch() undoes the
  // advance.
  c.persisted[Dirty::offset(lpn)] = old_value.value_or(kUnmappedPpn);
  c.volatile_bits |= bit;
  c.batched_bits &= ~bit;
  ++pending_;
  if (first) ++volatile_count_;
  if (policy_ != MappingPolicy::kHybridExtent) return;
  // Frames close on stagnation only: an active sequential stream keeps its
  // whole recent region volatile (the extent is still growing), while a
  // random request's frames stop growing as soon as it drains.
  const std::uint64_t frames_hint =
      lpn_capacity_ != 0 ? (lpn_capacity_ - 1) / extent_pages_ + 1 : ~std::uint64_t{0};
  grow_dense(frames_, lpn / extent_pages_, frames_hint, Frame{});
  change_frame(frame_of(lpn), [first](Frame& f) {
    ++f.pending;
    if (!first) return;
    ++f.touched;
    ++f.dirty;
    f.closed = false;  // the stream revisited: reopen
  });
}

void MappingTable::update(Lpn lpn, Ppn ppn) {
  mark_dirty(lpn, lookup(lpn));
  set_slot(lpn, ppn);
}

void MappingTable::remove(Lpn lpn) {
  const auto old = lookup(lpn);
  if (!old.has_value()) return;
  mark_dirty(lpn, old);
  clear_slot(lpn);
}

std::size_t MappingTable::committable_count() const { return pending_ - pending_withheld_; }

std::size_t MappingTable::open_extents() const {
  return static_cast<std::size_t>(
      std::count_if(frames_.begin(), frames_.end(), [this](const Frame& f) { return withheld(f); }));
}

std::uint64_t MappingTable::begin_persist_batch(bool include_withheld) {
  // Nothing volatile means no frame holds an entry either: an idle journal
  // tick costs O(1).
  if (batch_ != 0 || volatile_count_ == 0) return 0;
  // Stagnation pass: a detected extent that stopped growing since the last
  // cut is an idle tail, not an active stream — close it.
  for (Frame& f : frames_) {
    if (f.dirty == 0 || f.closed) continue;
    change_frame(f, [this](Frame& g) {
      if (g.touched >= min_extent_fill_ && g.touched == g.at_last_cut) {
        g.closed = true;
        if (g.touched >= extent_pages_) ++extents_closed_full_;
      } else {
        g.at_last_cut = g.touched;
      }
    });
  }

  if (pending_ == (include_withheld ? 0 : pending_withheld_)) return 0;
  // The walk is in LPN order, which makes journal record order, and with it
  // "the last journaled LPN", independent of the set's history.
  batch_lpns_.clear();
  batch_persisted_.clear();
  dirty_.for_each_chunk([this, include_withheld](std::uint64_t base, DirtyChunk& c) {
    for (std::uint64_t bits = c.volatile_bits & ~c.batched_bits; bits != 0; bits &= bits - 1) {
      const Lpn lpn = base + static_cast<unsigned>(std::countr_zero(bits));
      if (policy_ == MappingPolicy::kHybridExtent) {
        Frame& f = frame_of(lpn);
        if (!include_withheld && withheld(f)) continue;
        change_frame(f, [](Frame& g) { --g.pending; });
      }
      c.batched_bits |= bits & -bits;
      batch_lpns_.push_back(lpn);
      batch_persisted_.push_back(c.persisted[Dirty::offset(lpn)]);
    }
  });
  pending_ -= batch_lpns_.size();
  batch_ = next_batch_++;
  return batch_;
}

void MappingTable::commit_batch(std::uint64_t batch) {
  if (batch == 0 || batch != batch_) return;
  for (const Lpn lpn : batch_lpns_) {
    DirtyChunk& c = *dirty_.find(lpn);
    const std::uint64_t bit = bit_of(lpn);
    // Skip entries re-dirtied after the batch was cut; they stay volatile
    // with their persisted value already advanced to the batched one.
    if ((c.batched_bits & bit) == 0) continue;
    c.batched_bits &= ~bit;
    c.volatile_bits &= ~bit;
    --volatile_count_;
    if (c.volatile_bits == 0) dirty_.release(lpn);
    if (policy_ == MappingPolicy::kHybridExtent) {
      change_frame(frame_of(lpn), [](Frame& f) {
        if (--f.dirty == 0) f = Frame{};
      });
    }
  }
  batch_ = 0;
  batch_lpns_.clear();
  batch_persisted_.clear();
}

void MappingTable::abort_batch(std::uint64_t batch) {
  if (batch == 0 || batch != batch_) return;
  for (std::size_t i = 0; i < batch_lpns_.size(); ++i) {
    const Lpn lpn = batch_lpns_[i];
    DirtyChunk& c = *dirty_.find(lpn);
    const std::uint64_t bit = bit_of(lpn);
    if ((c.batched_bits & bit) == 0) {
      // Re-dirtied after the cut: already pending, but its persisted value
      // was advanced to a batched value that never became durable.
      c.persisted[Dirty::offset(lpn)] = batch_persisted_[i];
      continue;
    }
    c.batched_bits &= ~bit;
    ++pending_;
    if (policy_ == MappingPolicy::kHybridExtent) {
      change_frame(frame_of(lpn), [](Frame& f) { ++f.pending; });
    }
  }
  batch_ = 0;
  batch_lpns_.clear();
  batch_persisted_.clear();
}

std::vector<RevertedUpdate> MappingTable::on_power_lost() {
  std::vector<RevertedUpdate> reverted;
  reverted.reserve(volatile_count_);
  dirty_.for_each_chunk([this, &reverted](std::uint64_t base, const DirtyChunk& c) {
    for (std::uint64_t bits = c.volatile_bits; bits != 0; bits &= bits - 1) {
      const auto i = static_cast<unsigned>(std::countr_zero(bits));
      const Lpn lpn = base + i;
      RevertedUpdate r;
      r.lpn = lpn;
      r.dropped_ppn = lookup(lpn);
      if (c.persisted[i] != kUnmappedPpn) {
        r.restored_ppn = c.persisted[i];
        set_slot(lpn, c.persisted[i]);
      } else {
        clear_slot(lpn);
      }
      reverted.push_back(r);
    }
  });
  dirty_.clear();
  std::fill(frames_.begin(), frames_.end(), Frame{});
  volatile_count_ = 0;
  pending_ = 0;
  pending_withheld_ = 0;
  batch_ = 0;
  batch_lpns_.clear();
  batch_persisted_.clear();
  return reverted;
}

}  // namespace pofi::ftl
