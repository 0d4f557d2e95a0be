#include "nand/block_arena.hpp"

#include <algorithm>
#include <cassert>

namespace pofi::nand {

BlockArena::BlockArena(const Geometry& geometry, std::uint32_t initial_pe_cycles)
    : pages_per_block_(geometry.pages_per_block),
      words_per_lane_((geometry.pages_per_block + 31) / 32),
      initial_pe_cycles_(initial_pe_cycles),
      total_blocks_(geometry.total_blocks()) {}

BlockArena::Slot BlockArena::touch(BlockId b) {
  if (b >= block_index_.size()) {
    // Double the index up to the geometry (tests may address past it; then
    // grow to exactly cover). 4 bytes/block keeps even terabyte drives cheap.
    std::uint64_t grown = std::max<std::uint64_t>(block_index_.size() * 2, 1024);
    grown = std::min(std::max(grown, b + 1), std::max(total_blocks_, b + 1));
    block_index_.resize(grown, kNoSlot);
  }
  Slot s = block_index_[b];
  if (s != kNoSlot) return s;

  s = static_cast<Slot>(slots_++);
  block_index_[b] = s;
  erase_count_.push_back(initial_pe_cycles_);
  reads_since_erase_.push_back(0);
  programs_since_erase_.push_back(0);
  next_program_page_.push_back(0);
  flags_.push_back(0);
  lane_.push_back(kNoLane);
  upset_count_.push_back(0);
  progress_count_.push_back(0);
  overflow_count_.push_back(0);
  return s;
}

std::uint32_t BlockArena::ensure_lane(Slot s) {
  std::uint32_t lane = lane_[s];
  if (lane != kNoLane) return lane;
  if (!free_lanes_.empty()) {
    lane = free_lanes_.back();
    free_lanes_.pop_back();
  } else {
    if (lanes_ % kSlabBlocks == 0) {
      // New slab: extend every page lane by kSlabBlocks blocks' worth.
      const std::size_t slabs = lanes_ / kSlabBlocks + 1;
      status_.resize(slabs * kSlabBlocks * words_per_lane_);
      content_.resize(slabs * kSlabBlocks * pages_per_block_);
      oob_lpn_.resize(slabs * kSlabBlocks * pages_per_block_);
      oob_seq_.resize(slabs * kSlabBlocks * pages_per_block_);
    }
    lane = lanes_++;
  }
  // Scrub to the erased state (recycled lanes carry their last tenant's
  // bits; fresh slab memory is zero-filled, which is wrong for content/lpn).
  std::fill_n(status_.begin() + static_cast<std::size_t>(lane) * words_per_lane_,
              words_per_lane_, 0ULL);
  const std::size_t base = static_cast<std::size_t>(lane) * pages_per_block_;
  std::fill_n(content_.begin() + base, pages_per_block_, kU32Sentinel);
  std::fill_n(oob_lpn_.begin() + base, pages_per_block_, kU32Sentinel);
  std::fill_n(oob_seq_.begin() + base, pages_per_block_, 0U);
  lane_[s] = lane;
  return lane;
}

std::uint32_t BlockArena::narrow(std::uint64_t value, OverflowMap& overflow, Slot s,
                                 std::uint32_t pib, std::uint64_t sentinel) {
  if (value == sentinel) return kU32Sentinel;
  if (value >= kU32Overflow) {
    // Too wide for the lane (or collides with a marker): exact value goes to
    // the side table. Entries are purged on erase, so a live page has at
    // most one, and insert_or_assign keeps re-programs (impossible today,
    // the program cursor forbids them) correct anyway.
    if (overflow.insert_or_assign(page_key(s, pib), value).second) {
      overflow_count_[s] += 1;
    }
    return kU32Overflow;
  }
  return static_cast<std::uint32_t>(value);
}

void BlockArena::write_payload(std::uint32_t lane, Slot s, std::uint32_t pib,
                               std::uint64_t content, Oob oob) {
  const std::size_t idx = static_cast<std::size_t>(lane) * pages_per_block_ + pib;
  content_[idx] = narrow(content, content_overflow_, s, pib, kErasedContent);
  oob_lpn_[idx] = narrow(oob.lpn, lpn_overflow_, s, pib, ~0ULL);
  oob_seq_[idx] = narrow(oob.seq, seq_overflow_, s, pib, 0);
}

void BlockArena::set_programmed(Slot s, std::uint32_t pib, std::uint64_t content, Oob oob) {
  const std::uint32_t lane = ensure_lane(s);
  set_status(lane, pib, PageStatus::kValid);
  write_payload(lane, s, pib, content, oob);
  // kValid implies progress 1.0; no side entry can exist here (the program
  // cursor never revisits a page that took an interrupt without an erase).
}

void BlockArena::set_partial(Slot s, std::uint32_t pib, float progress, std::uint64_t content,
                             Oob oob) {
  const std::uint32_t lane = ensure_lane(s);
  set_status(lane, pib, PageStatus::kPartial);
  write_payload(lane, s, pib, content, oob);
  if (progress_.insert_or_assign(page_key(s, pib), progress).second) {
    progress_count_[s] += 1;
  }
}

void BlockArena::corrupt_page(Slot s, std::uint32_t pib) {
  const std::uint32_t lane = lane_[s];
  assert(lane != kNoLane);  // only kValid/kPartial pages corrupt
  // Freeze the pre-corruption progress: a kValid page was at 1.0 (implied by
  // its status until now), a kPartial page already has its side entry.
  if (status(s, pib) == PageStatus::kValid) {
    if (progress_.insert_or_assign(page_key(s, pib), 1.0f).second) {
      progress_count_[s] += 1;
    }
  }
  set_status(lane, pib, PageStatus::kCorrupt);
}

void BlockArena::set_upset_errors(Slot s, std::uint32_t pib, std::uint32_t value) {
  if (value == 0) {
    if (upset_count_[s] != 0 && upsets_.erase(page_key(s, pib)) != 0) {
      upset_count_[s] -= 1;
    }
    return;
  }
  if (upsets_.insert_or_assign(page_key(s, pib), value).second) {
    upset_count_[s] += 1;
  }
}

void BlockArena::erase_block(Slot s) {
  if (lane_[s] != kNoLane) {
    free_lanes_.push_back(lane_[s]);
    lane_[s] = kNoLane;
  }
  if (progress_count_[s] != 0 || upset_count_[s] != 0 || overflow_count_[s] != 0) {
    for (std::uint32_t pib = 0; pib < pages_per_block_; ++pib) {
      const std::uint64_t key = page_key(s, pib);
      progress_.erase(key);
      upsets_.erase(key);
      content_overflow_.erase(key);
      lpn_overflow_.erase(key);
      seq_overflow_.erase(key);
    }
    progress_count_[s] = 0;
    upset_count_[s] = 0;
    overflow_count_[s] = 0;
  }
  reads_since_erase_[s] = 0;
  programs_since_erase_[s] = 0;
  next_program_page_[s] = 0;
  flags_[s] &= static_cast<std::uint8_t>(~kFlagPartialErase);
}

Page BlockArena::snapshot(Slot s, std::uint32_t pib) const {
  Page pg;
  pg.status = status(s, pib);
  pg.progress = progress(s, pib);
  pg.content = content(s, pib);
  pg.oob = oob(s, pib);
  pg.upset_errors = upset_errors(s, pib);
  return pg;
}

}  // namespace pofi::nand
