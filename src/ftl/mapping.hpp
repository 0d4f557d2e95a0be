// Logical-to-physical mapping with explicit volatility.
//
// The map lives in controller DRAM. Updates are *volatile* until a journal
// batch containing them is durably programmed to flash; a power loss reverts
// every not-yet-committed update to its last persisted value. This is the
// FTL-level mechanism behind FWA failures, and the reason sequential
// workloads fail harder (§IV-D): with the hybrid-extent policy the FTL
// coalesces a dense sequential region into one extent entry ("only keeps the
// first address"), which is journaled only once the region stops growing —
// so one power fault reverts the whole run.
//
// Extent detection is address-based (64-page frames), not arrival-order
// based: the DRAM cache scrambles flush order, but a sequential host stream
// still lands dense in LPN space, which is what real stream detectors key on.
//
// Every structure is dense and indexed, with no hashing on any path:
//  - the L2P is a std::vector<Ppn> (LPN space is dense and its bound is known
//    from device geometry), with kUnmappedPpn as the "no mapping" sentinel;
//  - the volatile set is a PagedDense of 64-LPN chunks, each a volatile and
//    a batched bitmask plus the persisted PPN to restore. A chunk is released
//    when its last entry commits, so the pool holds what a power loss would
//    revert; cuts and power losses walk it in LPN order;
//  - extent frames are a frame-indexed array, grown on demand;
//  - at most one journal batch is in flight, held as its LPN list.
// committable_count(), which the FTL asks on every host write, is O(1): two
// running counts (entries in no batch, and the share of those inside
// withheld frames) are kept in step at every transition.
//
// The table is a plain value: the FTL checkpoints it by copy and resets it
// by assigning the table it was built with (container assignment reuses the
// target's capacity), then prefills the L2P in place.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "ftl/dense.hpp"
#include "ftl/types.hpp"

namespace pofi::ftl {

enum class MappingPolicy : std::uint8_t {
  kPageLevel,     ///< every LPN individually journaled
  kHybridExtent,  ///< dense sequential regions coalesce into extent entries
};

[[nodiscard]] constexpr const char* to_string(MappingPolicy p) {
  switch (p) {
    case MappingPolicy::kPageLevel: return "page-level";
    case MappingPolicy::kHybridExtent: return "hybrid-extent";
  }
  return "?";
}

/// One reverted update, reported to the FTL so physical-page accounting
/// (valid counts, reverse map) can be repaired after a power loss.
struct RevertedUpdate {
  Lpn lpn = 0;
  std::optional<Ppn> dropped_ppn;   ///< the new mapping that was lost (if any)
  std::optional<Ppn> restored_ppn;  ///< persisted mapping, if any
};

/// Sentinel PPN meaning "LPN has no mapping" in the dense L2P array.
inline constexpr Ppn kUnmappedPpn = ~Ppn{0};

class MappingTable {
 public:
  /// `extent_pages`: frame size for sequential-region detection; a frame is
  /// treated as an extent (withheld from the journal while it still grows)
  /// once `min_extent_fill` of its pages are dirty. A full or stagnant frame
  /// closes and becomes journalable.
  ///
  /// `lpn_capacity`: size of the LPN space (device geometry). Bounds
  /// prefill_l2p() and the geometric growth of the dense L2P array; 0 means
  /// unknown. Either way the table serves any LPN — capacity is a sizing
  /// hint, not a limit.
  explicit MappingTable(MappingPolicy policy, std::uint32_t extent_pages = 64,
                        std::uint32_t min_extent_fill = 16,
                        std::uint64_t lpn_capacity = 0)
      : policy_(policy),
        extent_pages_(extent_pages),
        min_extent_fill_(min_extent_fill),
        lpn_capacity_(lpn_capacity) {}
  /// An empty page-level table: a placeholder for an image to be assigned
  /// into.
  MappingTable() = default;

  /// Size the dense L2P to its eager bound, every slot unmapped, in place:
  /// small address spaces (tests, 1–4 GiB drives) then never grow on the IO
  /// path, and the cap keeps a 256 GiB fleet preset from paying half a
  /// gigabyte per campaign for LPNs its workload never touches. Call it on a
  /// table that maps nothing. resize() rather than assign(): GCC turns an
  /// inlined assign of the constant sentinel into memset, which fills a
  /// freshly mapped L2P ~15% slower than resize's out-of-line store loop
  /// (most of a small drive's construction time).
  void prefill_l2p() {
    map_.resize(static_cast<std::size_t>(std::min(lpn_capacity_, kEagerInitLpns)),
                kUnmappedPpn);
  }

  [[nodiscard]] MappingPolicy policy() const { return policy_; }

  [[nodiscard]] std::optional<Ppn> lookup(Lpn lpn) const;

  /// Install lpn -> ppn. The update is volatile until committed.
  void update(Lpn lpn, Ppn ppn);

  /// Drop the mapping (TRIM). Also volatile until committed.
  void remove(Lpn lpn);

  // --- Journal interface ----------------------------------------------------
  /// Move committable dirty entries into a persist batch, in LPN order. With
  /// the hybrid policy, entries inside an open (still-growing) extent frame
  /// are NOT committable until the frame fills or stagnates — unless
  /// `include_withheld` is set (PLP emergency shutdown persists everything).
  /// Returns the batch id (0 if nothing to do). One batch is in flight at a
  /// time: while one is, a cut returns 0 and changes nothing.
  [[nodiscard]] std::uint64_t begin_persist_batch(bool include_withheld = false);
  /// The journal page holding `batch` was durably programmed.
  void commit_batch(std::uint64_t batch);
  /// The journal page holding `batch` will never be programmed: its entries
  /// become dirty again and the next cut takes them. Every persisted value
  /// stays what it was before the cut, re-dirtied entries' included. Unknown,
  /// committed or reverted ids are a no-op.
  void abort_batch(std::uint64_t batch);
  [[nodiscard]] std::size_t batch_size(std::uint64_t batch) const {
    return batch_lpns(batch).size();
  }

  /// Number of updates that a power loss right now would revert.
  [[nodiscard]] std::size_t volatile_count() const { return volatile_count_; }
  /// Dirty entries eligible for the next batch (open extents excluded). O(1).
  [[nodiscard]] std::size_t committable_count() const;

  /// Power loss: revert every volatile update (dirty + in-flight batch), in
  /// LPN order. Returns the reverted updates for accounting repair.
  std::vector<RevertedUpdate> on_power_lost();

  [[nodiscard]] std::size_t entry_count() const { return mapped_count_; }

  // --- Audit interface (read-only; src/torture/) ----------------------------
  /// Visit every installed mapping as fn(lpn, ppn). Iterates the dense array
  /// in LPN order, so visitation order is deterministic.
  template <class Fn>
  void for_each_mapping(Fn&& fn) const {
    for (std::size_t lpn = 0; lpn < map_.size(); ++lpn) {
      if (map_[lpn] != kUnmappedPpn) fn(static_cast<Lpn>(lpn), map_[lpn]);
    }
  }
  /// True while a power loss right now would revert this LPN's mapping.
  [[nodiscard]] bool entry_volatile(Lpn lpn) const {
    const DirtyChunk* c = dirty_.find(lpn);
    return c != nullptr && (c->volatile_bits & bit_of(lpn)) != 0;
  }
  /// LPNs captured into the in-flight persist batch, ascending. Empty for
  /// any other id (unknown, committed, aborted or reverted).
  [[nodiscard]] const std::vector<Lpn>& batch_lpns(std::uint64_t batch) const {
    static const std::vector<Lpn> kEmpty;
    return batch != 0 && batch == batch_ ? batch_lpns_ : kEmpty;
  }

  // --- Corruption hooks (tests + torture fault injection only) --------------
  /// Overwrite the dense slot directly, bypassing dirty tracking and the
  /// extent detector — deliberately desynchronising the map from the FTL's
  /// physical accounting so the auditor has something to find.
  void debug_set_slot(Lpn lpn, Ppn ppn) {
    grow_to(lpn);
    if (map_[lpn] == kUnmappedPpn && ppn != kUnmappedPpn) ++mapped_count_;
    if (map_[lpn] != kUnmappedPpn && ppn == kUnmappedPpn) --mapped_count_;
    map_[lpn] = ppn;
  }
  /// Silently drop a mapping, again bypassing all bookkeeping.
  void debug_clear_slot(Lpn lpn) {
    if (lpn < map_.size() && map_[lpn] != kUnmappedPpn) {
      map_[lpn] = kUnmappedPpn;
      --mapped_count_;
    }
  }

  /// Frames currently detected as open (growing) extents.
  [[nodiscard]] std::size_t open_extents() const;
  /// Extents that filled completely and were journaled as one unit.
  [[nodiscard]] std::uint64_t extents_closed_full() const { return extents_closed_full_; }

 private:
  /// Volatile state of one chunk's 64 LPNs: a set bit in `volatile_bits` is
  /// an update a power loss would revert to `persisted` (kUnmappedPpn = no
  /// mapping); `batched_bits` marks the subset held by the in-flight batch.
  struct DirtyChunk {
    std::uint64_t volatile_bits = 0;
    std::uint64_t batched_bits = 0;
    std::array<Ppn, 64> persisted{};
  };
  using Dirty = PagedDense<DirtyChunk>;
  static_assert(Dirty::kChunkSize == 64, "one bitmask word per chunk");
  /// A frame with no volatile entry is all zero (a drained frame is
  /// forgotten: `touched` must reflect the current burst, not the whole
  /// campaign, or random traffic would slowly be misclassified as
  /// sequential).
  struct Frame {
    std::uint32_t touched = 0;      ///< monotone count of dirtied pages
    std::uint32_t dirty = 0;        ///< volatile entries inside
    std::uint32_t pending = 0;      ///< of those, entries in no batch
    std::uint32_t at_last_cut = 0;  ///< `touched` at the previous batch cut
    bool closed = false;            ///< journalable
  };

  static constexpr std::uint64_t kEagerInitLpns = 1ULL << 20;  ///< 8 MiB of slots

  [[nodiscard]] static std::uint64_t bit_of(Lpn lpn) {
    return std::uint64_t{1} << Dirty::offset(lpn);
  }
  void mark_dirty(Lpn lpn, std::optional<Ppn> old_value);
  [[nodiscard]] Frame& frame_of(Lpn lpn) { return frames_[lpn / extent_pages_]; }
  /// An open extent: its pending entries are withheld from the journal.
  [[nodiscard]] bool withheld(const Frame& f) const {
    return f.dirty != 0 && !f.closed && f.touched >= min_extent_fill_;
  }
  /// Apply `change` to `f`, keeping pending_withheld_ in step.
  template <class Fn>
  void change_frame(Frame& f, Fn&& change);

  /// Grow the dense array to cover `lpn` (geometric, clamped to capacity
  /// when that suffices). Steady state never takes this path.
  void grow_to(Lpn lpn);
  void set_slot(Lpn lpn, Ppn ppn);
  void clear_slot(Lpn lpn);

  MappingPolicy policy_ = MappingPolicy::kPageLevel;
  std::uint32_t extent_pages_ = 64;
  std::uint32_t min_extent_fill_ = 16;
  std::uint64_t lpn_capacity_ = 0;

  std::vector<Ppn> map_;  ///< dense L2P; kUnmappedPpn = no mapping
  std::size_t mapped_count_ = 0;

  Dirty dirty_;  ///< volatile set; a chunk lives while it has an entry
  std::size_t volatile_count_ = 0;
  std::size_t pending_ = 0;           ///< volatile entries in no batch
  std::size_t pending_withheld_ = 0;  ///< of those, entries in withheld frames
  std::uint64_t batch_ = 0;           ///< in-flight batch id, 0 = none
  std::vector<Lpn> batch_lpns_;       ///< its LPNs, ascending
  std::vector<Ppn> batch_persisted_;  ///< their persisted values at the cut
  std::uint64_t next_batch_ = 1;

  std::vector<Frame> frames_;  ///< hybrid policy only; lpn / extent_pages_
  std::uint64_t extents_closed_full_ = 0;
};

}  // namespace pofi::ftl
