// Host-side ground truth of what the SSD should contain.
//
// Content tags stand in for checksummed payloads: the store allocates a
// fresh, never-reused 64-bit tag per written page, so tag equality *is*
// checksum equality (collision-free by construction) and the analyzer can
// distinguish new data / previous data / garbage exactly the way the paper's
// checksum triple does.
//
// Pages touched by a write whose ACK never arrived are *indeterminate*: the
// device legitimately may hold either the old or the new data. Verification
// accepts both and collapses the state to whatever was observed.
//
// Layout: expected tags live in a paged dense array (ftl::PagedDense, 64
// LPNs per chunk) with two bitmap words per chunk — pages ever touched,
// pages indeterminate. Only indeterminate pages have an alternate tag, and
// those few go in a side table, consulted only when the page's bit is set.
// Every verified page costs two indexed loads and no hashing.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "ftl/dense.hpp"
#include "ftl/types.hpp"
#include "nand/page.hpp"

namespace pofi::platform {

class ShadowStore {
 public:
  /// Allocate `n` fresh content tags (one per page of a write payload).
  [[nodiscard]] std::vector<std::uint64_t> allocate_tags(std::uint32_t n);

  /// Expected on-disk tag (kErasedContent when never written).
  [[nodiscard]] std::uint64_t expected(ftl::Lpn lpn) const;

  /// True if `tag` is a legitimate value for this page (expected, or the
  /// unacked-alternate when indeterminate).
  [[nodiscard]] bool acceptable(ftl::Lpn lpn, std::uint64_t tag) const;

  /// A write to [lpn, lpn+tags.size()) was ACKed: tags become expected.
  void commit_write(ftl::Lpn lpn, std::span<const std::uint64_t> tags);

  /// A write failed/never completed: each page may hold old or new data.
  void mark_indeterminate(ftl::Lpn lpn, std::span<const std::uint64_t> tags);

  /// Verification read observed `tag` on disk: collapse to that reality.
  void observe(ftl::Lpn lpn, std::uint64_t tag);

  /// Pages ever committed, marked indeterminate or observed.
  [[nodiscard]] std::size_t tracked_pages() const { return state_.tracked; }
  [[nodiscard]] std::uint64_t tags_allocated() const { return state_.next_tag - 1; }

  /// Visit every tracked page as fn(lpn, expected_tag, indeterminate), in
  /// ascending LPN order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    state_.pages.for_each_chunk([&fn](ftl::Lpn base, const Chunk& c) {
      for (std::uint64_t bits = c.tracked; bits != 0; bits &= bits - 1) {
        const auto off = static_cast<unsigned>(std::countr_zero(bits));
        fn(base + off, c.expected[off], ((c.indeterminate >> off) & 1) != 0);
      }
    });
  }

  /// Session reset: forget all truth and restart tag allocation from 1,
  /// keeping the page directory's and pool's capacity.
  void reset() { state_ = pristine_; }

 private:
  /// One directory chunk: 64 pages' expected tags plus their flag bits.
  struct Chunk {
    Chunk() { expected.fill(nand::kErasedContent); }
    std::array<std::uint64_t, 64> expected;
    std::uint64_t tracked = 0;        ///< bit i: page i was ever touched
    std::uint64_t indeterminate = 0;  ///< bit i: page i has an alternate tag
  };
  using Pages = ftl::PagedDense<Chunk>;
  static_assert(Pages::kChunkSize == 64);

 public:
  /// The store's whole state as one copyable value: snapshot is a copy,
  /// restore an assignment.
  struct StateImage {
    Pages pages;
    std::unordered_map<ftl::Lpn, std::uint64_t> alternates;  ///< unacked writes' tags
    std::size_t tracked = 0;
    std::uint64_t next_tag = 1;
  };
  void snapshot(StateImage& out) const { out = state_; }
  void restore(const StateImage& image) { state_ = image; }

 private:
  /// Chunk of `lpn`, with the page marked tracked.
  Chunk& track(ftl::Lpn lpn);
  /// Make `lpn` determinate again, dropping its alternate.
  void settle(Chunk& c, ftl::Lpn lpn);

  StateImage state_;
  const StateImage pristine_;  ///< see sim/state_image.hpp
};

}  // namespace pofi::platform
