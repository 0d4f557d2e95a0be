#include "ftl/allocator.hpp"

#include <algorithm>

#include "ftl/dense.hpp"

namespace pofi::ftl {

BlockAllocator::BlockAllocator(const nand::Geometry& geometry)
    : geometry_(geometry),
      active_(kStreamCount * geometry.planes),
      free_heaps_(geometry.planes) {
  for (BlockId b = 0; b < geometry_.total_blocks(); ++b) {
    free_heaps_[b % geometry_.planes].push(FreeEntry{0, b});
  }
}

BlockAllocator::Active& BlockAllocator::active_slot(Stream stream, std::uint32_t plane) {
  return active_[static_cast<std::size_t>(stream) * geometry_.planes + plane];
}

const BlockAllocator::Active& BlockAllocator::active_slot(Stream stream,
                                                          std::uint32_t plane) const {
  return active_[static_cast<std::size_t>(stream) * geometry_.planes + plane];
}

bool BlockAllocator::open_new_block(Active& a, std::uint32_t plane) {
  FreeHeap& heap = free_heaps_[plane];
  if (heap.empty()) return false;
  a.block = heap.top().block;
  heap.pop();
  a.next_page = 0;
  a.open = true;
  return true;
}

std::optional<Ppn> BlockAllocator::alloc_page(Stream stream) {
  // Round-robin over planes; skip planes with no free block left.
  for (std::uint32_t tries = 0; tries < geometry_.planes; ++tries) {
    auto& cursor = rr_[static_cast<std::size_t>(stream)];
    const std::uint32_t plane = cursor % geometry_.planes;
    cursor += 1;
    Active& a = active_slot(stream, plane);
    if (!a.open && !open_new_block(a, plane)) continue;
    const Ppn ppn = geometry_.first_page(a.block) + a.next_page;
    a.next_page += 1;
    pages_allocated_ += 1;
    if (a.next_page >= geometry_.pages_per_block) {
      sealed_.push_back(a.block);
      a.open = false;
    }
    return ppn;
  }
  return std::nullopt;
}

void BlockAllocator::on_block_erased(BlockId block) {
  grow_dense(erase_counts_, block, geometry_.total_blocks(), 0U);
  const std::uint32_t count = ++erase_counts_[block];
  free_heaps_[block % geometry_.planes].push(FreeEntry{count, block});
}

void BlockAllocator::unseal(BlockId block) {
  const auto it = std::find(sealed_.begin(), sealed_.end(), block);
  if (it != sealed_.end()) sealed_.erase(it);
}

void BlockAllocator::abandon_active_blocks() {
  for (Active& a : active_) {
    if (!a.open) continue;
    // Partially-filled block: never write into it again (the chip-side
    // cursor is unknowable without a scan); GC will reclaim it.
    sealed_.push_back(a.block);
    a.open = false;
  }
}

std::size_t BlockAllocator::free_blocks() const {
  std::size_t n = 0;
  for (const auto& h : free_heaps_) n += h.size();
  return n;
}

std::optional<BlockId> BlockAllocator::active_block(Stream stream, std::uint32_t plane) const {
  const Active& a = active_slot(stream, plane);
  if (!a.open) return std::nullopt;
  return a.block;
}

}  // namespace pofi::ftl
