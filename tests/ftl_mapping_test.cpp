#include "ftl/mapping.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "sim/rng.hpp"

namespace pofi::ftl {
namespace {

TEST(MappingTable, LookupUnknownIsEmpty) {
  MappingTable map(MappingPolicy::kPageLevel);
  EXPECT_FALSE(map.lookup(42).has_value());
  EXPECT_EQ(map.entry_count(), 0u);
}

TEST(MappingTable, UpdateAndLookup) {
  MappingTable map(MappingPolicy::kPageLevel);
  map.update(10, 100);
  EXPECT_EQ(map.lookup(10), std::optional<Ppn>(100));
  map.update(10, 200);
  EXPECT_EQ(map.lookup(10), std::optional<Ppn>(200));
  EXPECT_EQ(map.entry_count(), 1u);
}

TEST(MappingTable, RemoveDropsEntry) {
  MappingTable map(MappingPolicy::kPageLevel);
  map.update(10, 100);
  map.remove(10);
  EXPECT_FALSE(map.lookup(10).has_value());
  map.remove(11);  // removing unknown is a no-op
}

TEST(MappingTable, UpdatesAreVolatileUntilCommitted) {
  MappingTable map(MappingPolicy::kPageLevel);
  map.update(1, 11);
  map.update(2, 22);
  EXPECT_EQ(map.volatile_count(), 2u);
  EXPECT_EQ(map.committable_count(), 2u);

  const auto batch = map.begin_persist_batch();
  ASSERT_NE(batch, 0u);
  EXPECT_EQ(map.batch_size(batch), 2u);
  EXPECT_EQ(map.committable_count(), 0u);  // in flight, not dirty
  EXPECT_EQ(map.volatile_count(), 2u);     // still volatile until commit

  map.commit_batch(batch);
  EXPECT_EQ(map.volatile_count(), 0u);
}

TEST(MappingTable, EmptyBatchReturnsZero) {
  MappingTable map(MappingPolicy::kPageLevel);
  EXPECT_EQ(map.begin_persist_batch(), 0u);
}

TEST(MappingTable, PowerLossRevertsToNothingForFreshEntries) {
  MappingTable map(MappingPolicy::kPageLevel);
  map.update(1, 11);
  const auto reverted = map.on_power_lost();
  ASSERT_EQ(reverted.size(), 1u);
  EXPECT_EQ(reverted[0].lpn, 1u);
  EXPECT_EQ(reverted[0].dropped_ppn, std::optional<Ppn>(11));
  EXPECT_FALSE(reverted[0].restored_ppn.has_value());
  EXPECT_FALSE(map.lookup(1).has_value());
}

TEST(MappingTable, PowerLossRestoresPersistedValue) {
  MappingTable map(MappingPolicy::kPageLevel);
  map.update(1, 11);
  map.commit_batch(map.begin_persist_batch());
  map.update(1, 99);  // volatile overwrite of a persisted entry
  const auto reverted = map.on_power_lost();
  ASSERT_EQ(reverted.size(), 1u);
  EXPECT_EQ(reverted[0].restored_ppn, std::optional<Ppn>(11));
  EXPECT_EQ(map.lookup(1), std::optional<Ppn>(11));
}

TEST(MappingTable, InFlightBatchAlsoRevertsOnPowerLoss) {
  MappingTable map(MappingPolicy::kPageLevel);
  map.update(1, 11);
  const auto batch = map.begin_persist_batch();
  ASSERT_NE(batch, 0u);
  // Journal page never completed: the batch must revert with the rest.
  const auto reverted = map.on_power_lost();
  EXPECT_EQ(reverted.size(), 1u);
  EXPECT_FALSE(map.lookup(1).has_value());
}

TEST(MappingTable, RedirtyDuringBatchKeepsNewValueVolatile) {
  MappingTable map(MappingPolicy::kPageLevel);
  map.update(1, 11);
  const auto batch = map.begin_persist_batch();
  map.update(1, 22);  // re-dirtied while the batch is in flight
  map.commit_batch(batch);
  // 11 is now durable; 22 is still volatile.
  EXPECT_EQ(map.volatile_count(), 1u);
  const auto reverted = map.on_power_lost();
  ASSERT_EQ(reverted.size(), 1u);
  EXPECT_EQ(reverted[0].restored_ppn, std::optional<Ppn>(11));
  EXPECT_EQ(map.lookup(1), std::optional<Ppn>(11));
}

TEST(MappingTable, RemoveRevertsToRestoredValue) {
  MappingTable map(MappingPolicy::kPageLevel);
  map.update(1, 11);
  map.commit_batch(map.begin_persist_batch());
  map.remove(1);
  EXPECT_FALSE(map.lookup(1).has_value());
  map.on_power_lost();
  EXPECT_EQ(map.lookup(1), std::optional<Ppn>(11));  // TRIM was volatile
}

TEST(MappingTable, BatchCutIsInLpnOrder) {
  MappingTable map(MappingPolicy::kPageLevel);
  for (const Lpn lpn : {900u, 3u, 130u, 64u, 63u}) map.update(lpn, lpn + 1);
  const auto batch = map.begin_persist_batch();
  EXPECT_EQ(map.batch_lpns(batch), (std::vector<Lpn>{3, 63, 64, 130, 900}));
}

TEST(MappingTable, OneBatchInFlightAtATime) {
  MappingTable map(MappingPolicy::kPageLevel);
  map.update(1, 11);
  const auto batch = map.begin_persist_batch();
  ASSERT_NE(batch, 0u);
  map.update(2, 22);
  EXPECT_EQ(map.begin_persist_batch(), 0u);  // refused: batch still in flight
  EXPECT_EQ(map.committable_count(), 1u);
  map.commit_batch(batch);
  const auto next = map.begin_persist_batch();
  EXPECT_EQ(map.batch_lpns(next), std::vector<Lpn>{2});
}

TEST(MappingTable, AbortReturnsBatchToDirtySet) {
  MappingTable map(MappingPolicy::kPageLevel);
  for (Lpn lpn = 0; lpn < 3; ++lpn) map.update(lpn * 100, lpn);
  const auto batch = map.begin_persist_batch();
  const std::vector<Lpn> cut = map.batch_lpns(batch);
  EXPECT_EQ(map.committable_count(), 0u);

  map.abort_batch(batch);
  EXPECT_EQ(map.committable_count(), 3u);
  EXPECT_EQ(map.volatile_count(), 3u);
  EXPECT_TRUE(map.batch_lpns(batch).empty());
  map.commit_batch(batch);  // a stale id is a no-op
  EXPECT_EQ(map.volatile_count(), 3u);

  const auto again = map.begin_persist_batch();
  ASSERT_NE(again, 0u);
  EXPECT_NE(again, batch);
  EXPECT_EQ(map.batch_lpns(again), cut);
  map.commit_batch(again);
  EXPECT_EQ(map.volatile_count(), 0u);
}

TEST(MappingTable, AbortKeepsPersistedValueOfRedirtiedEntry) {
  MappingTable map(MappingPolicy::kPageLevel);
  map.update(1, 11);
  map.commit_batch(map.begin_persist_batch());  // 11 durable
  map.update(1, 22);
  const auto batch = map.begin_persist_batch();  // 22 batched
  map.update(1, 33);                             // re-dirtied in flight
  map.abort_batch(batch);                        // 22 never became durable
  const auto reverted = map.on_power_lost();
  ASSERT_EQ(reverted.size(), 1u);
  EXPECT_EQ(reverted[0].restored_ppn, std::optional<Ppn>(11));
  EXPECT_EQ(map.lookup(1), std::optional<Ppn>(11));
}

// ----------------------------------------------------------- extent frames

constexpr std::uint32_t kFrame = 512;
constexpr std::uint32_t kMinFill = 260;

TEST(MappingTableExtent, RandomWritesAreNotWithheld) {
  MappingTable map(MappingPolicy::kHybridExtent, kFrame, kMinFill);
  // A single 256-page "request" (largest allowed) never triggers detection.
  for (Lpn lpn = 0; lpn < 256; ++lpn) map.update(lpn, 1000 + lpn);
  EXPECT_EQ(map.open_extents(), 0u);
  EXPECT_EQ(map.committable_count(), 256u);
}

TEST(MappingTableExtent, SequentialStreamIsWithheld) {
  MappingTable map(MappingPolicy::kHybridExtent, kFrame, kMinFill);
  // Two back-to-back contiguous requests cross the detection threshold.
  for (Lpn lpn = 0; lpn < 300; ++lpn) map.update(lpn, 1000 + lpn);
  EXPECT_EQ(map.open_extents(), 1u);
  // Everything in frame 0 is withheld from the journal.
  EXPECT_EQ(map.committable_count(), 0u);
  const auto batch = map.begin_persist_batch();
  EXPECT_EQ(map.batch_size(batch), 0u);
}

TEST(MappingTableExtent, StagnantExtentClosesAfterTwoCuts) {
  MappingTable map(MappingPolicy::kHybridExtent, kFrame, kMinFill);
  for (Lpn lpn = 0; lpn < 300; ++lpn) map.update(lpn, 1000 + lpn);
  // First cut records the size; second cut sees no growth and closes it.
  EXPECT_EQ(map.begin_persist_batch(), 0u);
  const auto batch = map.begin_persist_batch();
  ASSERT_NE(batch, 0u);
  EXPECT_EQ(map.batch_size(batch), 300u);
}

TEST(MappingTableExtent, GrowingExtentStaysOpen) {
  MappingTable map(MappingPolicy::kHybridExtent, kFrame, kMinFill);
  for (Lpn lpn = 0; lpn < 300; ++lpn) map.update(lpn, 1000 + lpn);
  EXPECT_EQ(map.begin_persist_batch(), 0u);
  for (Lpn lpn = 300; lpn < 350; ++lpn) map.update(lpn, 1000 + lpn);  // still growing
  EXPECT_EQ(map.begin_persist_batch(), 0u);  // not stagnant yet
  EXPECT_EQ(map.open_extents(), 1u);
}

TEST(MappingTableExtent, EmergencyFlushIncludesWithheld) {
  MappingTable map(MappingPolicy::kHybridExtent, kFrame, kMinFill);
  for (Lpn lpn = 0; lpn < 300; ++lpn) map.update(lpn, 1000 + lpn);
  const auto batch = map.begin_persist_batch(/*include_withheld=*/true);
  ASSERT_NE(batch, 0u);
  EXPECT_EQ(map.batch_size(batch), 300u);
}

TEST(MappingTableExtent, ScrambledArrivalOrderStillDetectsStream) {
  MappingTable map(MappingPolicy::kHybridExtent, kFrame, kMinFill);
  // Dense region written in a shuffled order (cache-flush scramble).
  for (Lpn i = 0; i < 300; ++i) {
    const Lpn lpn = (i * 7) % 300;  // permutation of [0,300)
    map.update(lpn, 2000 + lpn);
  }
  EXPECT_EQ(map.open_extents(), 1u);
}

TEST(MappingTableExtent, FrameForgottenWhenDrained) {
  MappingTable map(MappingPolicy::kHybridExtent, kFrame, kMinFill);
  for (Lpn lpn = 0; lpn < 300; ++lpn) map.update(lpn, 1000 + lpn);
  (void)map.begin_persist_batch();                     // records size
  const auto batch = map.begin_persist_batch();  // stagnant -> closed
  map.commit_batch(batch);
  EXPECT_EQ(map.volatile_count(), 0u);
  // New writes into the same frame start fresh (no stale `touched`).
  for (Lpn lpn = 0; lpn < 100; ++lpn) map.update(lpn, 3000 + lpn);
  EXPECT_EQ(map.open_extents(), 0u);
  EXPECT_EQ(map.committable_count(), 100u);
}

TEST(MappingTableExtent, PageLevelPolicyIgnoresFrames) {
  MappingTable map(MappingPolicy::kPageLevel, kFrame, kMinFill);
  for (Lpn lpn = 0; lpn < 600; ++lpn) map.update(lpn, 1000 + lpn);
  EXPECT_EQ(map.open_extents(), 0u);
  EXPECT_EQ(map.committable_count(), 600u);
}

TEST(MappingTableExtent, AbortedEmergencyCutIsWithheldAgain) {
  MappingTable map(MappingPolicy::kHybridExtent, kFrame, kMinFill);
  for (Lpn lpn = 0; lpn < 300; ++lpn) map.update(lpn, 1000 + lpn);
  const auto batch = map.begin_persist_batch(/*include_withheld=*/true);
  EXPECT_EQ(map.batch_size(batch), 300u);
  map.abort_batch(batch);
  EXPECT_EQ(map.committable_count(), 0u);  // the extent is open again
  EXPECT_EQ(map.open_extents(), 1u);
  EXPECT_EQ(map.batch_size(map.begin_persist_batch(/*include_withheld=*/true)), 300u);
}

// ------------------------------------------------------ differential fuzz

/// The mapping bookkeeping as first written: hash maps, a scan per
/// committable_count(), batches keyed by id and sorted at the cut. abort is
/// the documented contract: entries back to dirty, persisted values as they
/// were before the cut.
class ReferenceMapping {
 public:
  ReferenceMapping(MappingPolicy policy, std::uint32_t extent_pages,
                   std::uint32_t min_extent_fill)
      : policy_(policy), extent_pages_(extent_pages), min_extent_fill_(min_extent_fill) {}

  std::optional<Ppn> lookup(Lpn lpn) const {
    const auto it = map_.find(lpn);
    return it == map_.end() ? std::nullopt : std::optional<Ppn>(it->second);
  }
  void update(Lpn lpn, Ppn ppn) {
    mark_dirty(lpn, lookup(lpn));
    map_[lpn] = ppn;
  }
  void remove(Lpn lpn) {
    const auto old = lookup(lpn);
    if (!old.has_value()) return;
    mark_dirty(lpn, old);
    map_.erase(lpn);
  }

  std::uint64_t begin_persist_batch(bool include_withheld) {
    if (policy_ == MappingPolicy::kHybridExtent) {
      for (auto& [id, f] : frames_) {
        if (f.closed) continue;
        if (f.touched >= min_extent_fill_ && f.touched == f.at_last_cut) {
          f.closed = true;
          if (f.touched >= extent_pages_) ++extents_closed_full_;
        } else {
          f.at_last_cut = f.touched;
        }
      }
    }
    std::vector<Lpn> members;
    for (const auto& [lpn, st] : volatile_) {
      if (st.batch != 0) continue;
      if (!include_withheld && withheld(lpn)) continue;
      members.push_back(lpn);
    }
    if (members.empty()) return 0;
    std::sort(members.begin(), members.end());
    const std::uint64_t id = next_batch_++;
    auto& batch = batches_[id];
    for (const Lpn lpn : members) {
      volatile_[lpn].batch = id;
      batch.emplace_back(lpn, volatile_[lpn].persisted);
    }
    return id;
  }
  void commit_batch(std::uint64_t id) {
    const auto it = batches_.find(id);
    if (it == batches_.end()) return;
    for (const auto& [lpn, persisted] : it->second) {
      const auto vit = volatile_.find(lpn);
      if (vit != volatile_.end() && vit->second.batch == id) {
        volatile_.erase(vit);
        const auto fit = frames_.find(lpn / extent_pages_);
        if (fit == frames_.end()) continue;
        if (fit->second.dirty > 0) --fit->second.dirty;
        if (fit->second.dirty == 0) frames_.erase(fit);
      }
    }
    batches_.erase(it);
  }
  void abort_batch(std::uint64_t id) {
    const auto it = batches_.find(id);
    if (it == batches_.end()) return;
    for (const auto& [lpn, persisted] : it->second) {
      DirtyState& st = volatile_.at(lpn);
      if (st.batch == id) {
        st.batch = 0;
      } else {
        st.persisted = persisted;
      }
    }
    batches_.erase(it);
  }

  std::size_t committable_count() const {
    std::size_t n = 0;
    for (const auto& [lpn, st] : volatile_) n += st.batch == 0 && !withheld(lpn) ? 1 : 0;
    return n;
  }
  std::size_t volatile_count() const { return volatile_.size(); }
  bool entry_volatile(Lpn lpn) const { return volatile_.count(lpn) != 0; }
  std::vector<Lpn> batch_lpns(std::uint64_t id) const {
    std::vector<Lpn> out;
    const auto it = batches_.find(id);
    if (it != batches_.end()) {
      for (const auto& member : it->second) out.push_back(member.first);
    }
    return out;
  }
  std::size_t open_extents() const {
    std::size_t n = 0;
    for (const auto& [id, f] : frames_) n += !f.closed && f.touched >= min_extent_fill_ ? 1 : 0;
    return n;
  }
  std::uint64_t extents_closed_full() const { return extents_closed_full_; }

  /// Reverted updates as (lpn, dropped, restored), sorted by LPN.
  std::vector<std::tuple<Lpn, std::optional<Ppn>, std::optional<Ppn>>> on_power_lost() {
    std::vector<std::tuple<Lpn, std::optional<Ppn>, std::optional<Ppn>>> out;
    for (const auto& [lpn, st] : volatile_) {
      out.emplace_back(lpn, lookup(lpn), st.persisted);
      if (st.persisted.has_value()) {
        map_[lpn] = *st.persisted;
      } else {
        map_.erase(lpn);
      }
    }
    std::sort(out.begin(), out.end());
    volatile_.clear();
    batches_.clear();
    frames_.clear();
    return out;
  }

 private:
  struct DirtyState {
    std::optional<Ppn> persisted;
    std::uint64_t batch = 0;
  };
  struct Frame {
    std::uint32_t touched = 0;
    std::uint32_t dirty = 0;
    std::uint32_t at_last_cut = 0;
    bool closed = false;
  };

  void mark_dirty(Lpn lpn, std::optional<Ppn> old_value) {
    const auto it = volatile_.find(lpn);
    if (it == volatile_.end()) {
      volatile_.emplace(lpn, DirtyState{old_value, 0});
      if (policy_ == MappingPolicy::kHybridExtent) {
        Frame& f = frames_[lpn / extent_pages_];
        f.touched += 1;
        f.dirty += 1;
        f.closed = false;
      }
      return;
    }
    if (it->second.batch != 0) {
      it->second.persisted = old_value;
      it->second.batch = 0;
    }
  }
  bool withheld(Lpn lpn) const {
    if (policy_ != MappingPolicy::kHybridExtent) return false;
    const auto it = frames_.find(lpn / extent_pages_);
    return it != frames_.end() && !it->second.closed && it->second.touched >= min_extent_fill_;
  }

  MappingPolicy policy_;
  std::uint32_t extent_pages_;
  std::uint32_t min_extent_fill_;
  std::unordered_map<Lpn, Ppn> map_;
  std::unordered_map<Lpn, DirtyState> volatile_;
  std::unordered_map<std::uint64_t, std::vector<std::pair<Lpn, std::optional<Ppn>>>> batches_;
  std::uint64_t next_batch_ = 1;
  std::unordered_map<std::uint64_t, Frame> frames_;
  std::uint64_t extents_closed_full_ = 0;
};

void expect_agree(const MappingTable& map, const ReferenceMapping& ref, std::uint64_t batch,
                  Lpn lpn_span, int op) {
  ASSERT_EQ(map.committable_count(), ref.committable_count()) << "op " << op;
  ASSERT_EQ(map.volatile_count(), ref.volatile_count()) << "op " << op;
  ASSERT_EQ(map.open_extents(), ref.open_extents()) << "op " << op;
  ASSERT_EQ(map.extents_closed_full(), ref.extents_closed_full()) << "op " << op;
  ASSERT_EQ(map.batch_lpns(batch), ref.batch_lpns(batch)) << "op " << op;
  ASSERT_EQ(map.batch_size(batch), ref.batch_lpns(batch).size()) << "op " << op;
  for (Lpn lpn = 0; lpn < lpn_span; ++lpn) {
    ASSERT_EQ(map.entry_volatile(lpn), ref.entry_volatile(lpn)) << "op " << op << " lpn " << lpn;
    ASSERT_EQ(map.lookup(lpn), ref.lookup(lpn)) << "op " << op << " lpn " << lpn;
  }
}

// Random update/remove/sequential-run/cut/commit/abort/power-loss sequences
// against the reference, both policies, frames that do and do not align
// with the 64-LPN chunks. A twin table is re-copied from the live one now
// and then (a snapshot restore) and must evolve identically from there.
TEST(MappingTableFuzz, AgreesWithHashMapReference) {
  constexpr Lpn kSpan = 640;
  constexpr int kOps = 1500;
  const std::uint32_t frame_sizes[] = {64, 48, 100};
  const std::uint32_t fills[] = {8, 16, 40};
  std::size_t total_ops = 0;
  std::size_t cuts = 0, commits = 0, aborts = 0, losses = 0, redirty_in_flight = 0;
  std::size_t ops_with_open_extent = 0;
  std::uint64_t extents_closed_full = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Rng rng(seed);
    const MappingPolicy policy =
        seed % 2 == 0 ? MappingPolicy::kPageLevel : MappingPolicy::kHybridExtent;
    const std::uint32_t frame = frame_sizes[rng.below(3)];
    const std::uint32_t fill = fills[rng.below(3)];
    MappingTable map(policy, frame, fill, rng.chance(0.5) ? kSpan : 0);
    ReferenceMapping ref(policy, frame, fill);
    MappingTable twin = map;
    std::uint64_t batch = 0;  // in flight, 0 = none
    Ppn next_ppn = 1;
    for (int op = 0; op < kOps; ++op, ++total_ops) {
      const auto roll = rng.below(100);
      if (roll < 35) {
        const Lpn lpn = rng.below(kSpan);
        const auto& members = map.batch_lpns(batch);
        if (std::binary_search(members.begin(), members.end(), lpn)) ++redirty_in_flight;
        map.update(lpn, next_ppn);
        twin.update(lpn, next_ppn);
        ref.update(lpn, next_ppn++);
      } else if (roll < 45) {
        // Sequential run: what grows an extent.
        const Lpn base = rng.below(kSpan - 128);
        const Lpn len = 1 + rng.below(128);
        for (Lpn lpn = base; lpn < base + len; ++lpn) {
          map.update(lpn, next_ppn);
          twin.update(lpn, next_ppn);
          ref.update(lpn, next_ppn++);
        }
      } else if (roll < 53) {
        const Lpn lpn = rng.below(kSpan);
        map.remove(lpn);
        twin.remove(lpn);
        ref.remove(lpn);
      } else if (roll < 70) {
        const bool all = rng.chance(0.25);
        const std::uint64_t got = map.begin_persist_batch(all);
        ASSERT_EQ(twin.begin_persist_batch(all), got);
        if (batch != 0) {
          ASSERT_EQ(got, 0u) << "a second batch while one is in flight";
        } else {
          ASSERT_EQ(got, ref.begin_persist_batch(all)) << "op " << op;
          batch = got;
          cuts += got != 0 ? 1 : 0;
        }
      } else if (roll < 82) {
        map.commit_batch(batch);
        twin.commit_batch(batch);
        ref.commit_batch(batch);
        commits += batch != 0 ? 1 : 0;
        batch = 0;
      } else if (roll < 88) {
        map.abort_batch(batch);
        twin.abort_batch(batch);
        ref.abort_batch(batch);
        aborts += batch != 0 ? 1 : 0;
        batch = 0;
      } else if (roll < 90) {
        const auto got = map.on_power_lost();
        const auto twin_got = twin.on_power_lost();
        const auto want = ref.on_power_lost();
        ASSERT_EQ(got.size(), want.size());
        ASSERT_EQ(twin_got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(std::tie(got[i].lpn, got[i].dropped_ppn, got[i].restored_ppn), want[i])
              << "op " << op << " reverted #" << i;
          ASSERT_EQ(std::tie(twin_got[i].lpn, twin_got[i].dropped_ppn, twin_got[i].restored_ppn),
                    want[i]);
        }
        batch = 0;
        ++losses;
      } else if (roll < 92) {
        twin = map;  // snapshot restore
      }
      // Otherwise an idle step: nothing changes.
      expect_agree(map, ref, batch, kSpan, op);
      expect_agree(twin, ref, batch, kSpan, op);
      if (::testing::Test::HasFatalFailure()) return;
      ops_with_open_extent += map.open_extents() != 0 ? 1 : 0;
    }
    extents_closed_full += map.extents_closed_full();
  }
  EXPECT_GE(total_ops, 10000u);
  // The paths under test were all reached.
  EXPECT_GT(cuts, 100u);
  EXPECT_GT(commits, 100u);
  EXPECT_GT(aborts, 30u);
  EXPECT_GT(losses, 30u);
  EXPECT_GT(redirty_in_flight, 30u);
  EXPECT_GT(ops_with_open_extent, 1000u);
  EXPECT_GT(extents_closed_full, 10u);
}

}  // namespace
}  // namespace pofi::ftl
