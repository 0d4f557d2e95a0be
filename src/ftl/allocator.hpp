// Wear-aware, plane-striped block allocation.
//
// Each stream (host / GC / journal) owns one active block *per plane* and
// round-robins page allocation across planes, so concurrent programs spread
// over the die's full parallelism (this is what gives the device its write
// throughput). Within a block, pages are handed out strictly in order,
// matching the chip's programming constraint. Free blocks sit in per-plane
// min-heaps keyed by erase count, so allocation implicitly levels wear.
//
// After a power loss the cursors can no longer be trusted (queued programs
// vanished, interrupted ones burned pages), so recovery abandons all active
// blocks to the sealed set and opens fresh ones.
//
// The allocator is a plain value. The FTL checkpoints it by copy and resets
// it by assigning the allocator it was built with: the copied free heaps
// keep the constructor's byte-identical layout, so they pop exactly like
// fresh ones, at memcpy cost instead of total_blocks() heap pushes.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "ftl/types.hpp"
#include "nand/geometry.hpp"

namespace pofi::ftl {

class BlockAllocator {
 public:
  explicit BlockAllocator(const nand::Geometry& geometry);
  /// An allocator over no blocks: a placeholder for an image to be assigned
  /// into.
  BlockAllocator() = default;

  /// Next physical page for a stream; std::nullopt when no free block exists
  /// on any plane.
  [[nodiscard]] std::optional<Ppn> alloc_page(Stream stream);

  /// Return an erased block to the free pool (GC completion).
  void on_block_erased(BlockId block);

  /// Blocks that filled or were abandoned; sealed blocks are GC candidates.
  [[nodiscard]] const std::vector<BlockId>& sealed_blocks() const { return sealed_; }
  /// Remove a block from the sealed set (it became a GC victim).
  void unseal(BlockId block);

  /// Power-loss recovery: drop all active cursors; their blocks are sealed.
  void abandon_active_blocks();

  [[nodiscard]] std::size_t free_blocks() const;
  [[nodiscard]] std::uint64_t pages_allocated() const { return pages_allocated_; }
  /// Currently open block of `stream` on `plane` (mostly for tests).
  [[nodiscard]] std::optional<BlockId> active_block(Stream stream, std::uint32_t plane) const;

  // --- Audit interface (read-only; src/torture/) ----------------------------
  /// Every block currently in a free heap, sorted (deterministic order).
  [[nodiscard]] std::vector<BlockId> free_block_ids() const {
    std::vector<BlockId> out;
    for (const auto& heap : free_heaps_) {
      for (const FreeEntry& e : heap.container()) out.push_back(e.block);
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  /// Every block with an open allocation cursor, sorted.
  [[nodiscard]] std::vector<BlockId> active_blocks() const {
    std::vector<BlockId> out;
    for (const Active& a : active_) {
      if (a.open) out.push_back(a.block);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Test-only corruption hook: push a block onto its plane's free heap
  /// without erasing it (auditor self-tests need a free/used disagreement).
  void debug_force_free(BlockId block, std::uint32_t plane) {
    free_heaps_[plane].push(FreeEntry{0, block});
  }

 private:
  struct Active {
    BlockId block = 0;
    std::uint32_t next_page = 0;
    bool open = false;
  };
  struct FreeEntry {
    std::uint32_t erase_count;
    BlockId block;
    bool operator>(const FreeEntry& o) const {
      if (erase_count != o.erase_count) return erase_count > o.erase_count;
      return o.block < block;
    }
  };
  /// Exposes the protected container for the audit interface.
  struct FreeHeap : std::priority_queue<FreeEntry, std::vector<FreeEntry>, std::greater<>> {
    [[nodiscard]] const std::vector<FreeEntry>& container() const { return c; }
  };

  bool open_new_block(Active& a, std::uint32_t plane);
  [[nodiscard]] Active& active_slot(Stream stream, std::uint32_t plane);
  [[nodiscard]] const Active& active_slot(Stream stream, std::uint32_t plane) const;

  nand::Geometry geometry_;
  std::vector<Active> active_;            ///< [stream * planes + plane]
  std::array<std::uint32_t, kStreamCount> rr_{};  ///< round-robin cursor per stream
  std::vector<FreeHeap> free_heaps_;      ///< per plane
  std::vector<std::uint32_t> erase_counts_;  ///< dense by BlockId (see dense.hpp)
  std::vector<BlockId> sealed_;
  std::uint64_t pages_allocated_ = 0;
};

}  // namespace pofi::ftl
