// Grow-on-demand dense arrays indexed by physical or logical address.
//
// The FTL's per-page reverse map and per-block valid counters are lookup/
// update structures that are never iterated, so they flatten from hash maps
// to flat vectors with a sentinel/zero default: O(1) indexed access with no
// hashing or node allocation on the write hot path. Growth doubles (so
// amortised allocation cost vanishes after warm-up) and clamps to the
// device's addressable range, which bounds worst-case footprint by geometry
// instead of by access pattern.
//
// Host-side LPN state (the shadow store, the write cache's slot index) is
// touched in clusters spread over a range too large for one flat array — a
// fig6 working set spans 23.6M LPNs but a campaign writes a few percent of
// them — so it uses PagedDense: a chunk directory over one contiguous pool.
// The FTL's volatile-mapping set uses it too, releasing a chunk as soon as
// its last entry commits, so its pool holds only what a power loss would
// revert.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace pofi::ftl {

template <typename T>
void grow_dense(std::vector<T>& v, std::uint64_t index, std::uint64_t capacity_hint, T fill) {
  if (index < v.size()) return;
  std::uint64_t grown = std::max<std::uint64_t>(v.size() * 2, 1024);
  grown = std::min(std::max(grown, index + 1), std::max(capacity_hint, index + 1));
  v.resize(grown, fill);
}

/// Two-level dense array over a sparsely touched index space. A directory
/// maps index >> kChunkBits to a chunk in one contiguous pool; a chunk is
/// allocated on first touch as a default-constructed `Chunk`, which must
/// hold the "never touched" value of each of its kChunkSize cells. Chunks
/// are small because host writes land at random offsets: a 1-256 page
/// request fills few cells of a large chunk, and the rest is wasted. Lookups
/// are two indexed loads with no hashing. release() returns one chunk's slot
/// to a free list that the next first touch reuses; clear() drops them all.
/// Both keep every capacity, so a warmed array allocates nothing, and copy
/// assignment (snapshot/restore) is three vector assignments. The directory
/// grows to the largest index touched, so the index space must be bounded
/// (a device's LPN range).
template <typename Chunk>
class PagedDense {
 public:
  static constexpr unsigned kChunkBits = 6;
  static constexpr std::uint64_t kChunkSize = std::uint64_t{1} << kChunkBits;

  /// Cell of `index` inside its chunk.
  [[nodiscard]] static constexpr std::uint64_t offset(std::uint64_t index) {
    return index & (kChunkSize - 1);
  }

  /// Chunk holding `index`, or nullptr while none of its cells was touched.
  [[nodiscard]] const Chunk* find(std::uint64_t index) const {
    const std::uint64_t d = index >> kChunkBits;
    if (d >= dir_.size() || dir_[d] == kNoChunk) return nullptr;
    return &pool_[dir_[d]];
  }
  [[nodiscard]] Chunk* find(std::uint64_t index) {
    return const_cast<Chunk*>(std::as_const(*this).find(index));
  }

  /// Chunk holding `index`, allocated on first touch (in a released slot
  /// when there is one).
  Chunk& touch(std::uint64_t index) {
    const std::uint64_t d = index >> kChunkBits;
    grow_dense(dir_, d, ~std::uint64_t{0}, kNoChunk);
    if (dir_[d] == kNoChunk) {
      if (free_.empty()) {
        dir_[d] = static_cast<std::uint32_t>(pool_.size());
        pool_.emplace_back();
      } else {
        dir_[d] = free_.back();
        free_.pop_back();
        pool_[dir_[d]] = Chunk{};
      }
    }
    return pool_[dir_[d]];
  }

  /// Forget the chunk holding `index`, as if none of its cells was touched.
  void release(std::uint64_t index) {
    const std::uint64_t d = index >> kChunkBits;
    if (d >= dir_.size() || dir_[d] == kNoChunk) return;
    free_.push_back(dir_[d]);
    dir_[d] = kNoChunk;
  }

  /// Visit each touched chunk as fn(first_index, chunk), ascending.
  template <class Fn>
  void for_each_chunk(Fn&& fn) const {
    for (std::uint64_t d = 0; d < dir_.size(); ++d) {
      if (dir_[d] != kNoChunk) fn(d << kChunkBits, pool_[dir_[d]]);
    }
  }
  template <class Fn>
  void for_each_chunk(Fn&& fn) {
    for (std::uint64_t d = 0; d < dir_.size(); ++d) {
      if (dir_[d] != kNoChunk) fn(d << kChunkBits, pool_[dir_[d]]);
    }
  }

  /// Forget every chunk, keeping the directory's and the pool's capacity.
  void clear() {
    std::fill(dir_.begin(), dir_.end(), kNoChunk);
    pool_.clear();
    free_.clear();
  }

 private:
  static constexpr std::uint32_t kNoChunk = ~std::uint32_t{0};

  std::vector<std::uint32_t> dir_;  ///< index >> kChunkBits -> pool_ slot
  std::vector<Chunk> pool_;
  std::vector<std::uint32_t> free_;  ///< released pool_ slots
};

}  // namespace pofi::ftl
