#include "ssd/write_cache.hpp"

#include "nand/chip_array.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

namespace pofi::ssd {
namespace {

using ftl::Lpn;
using sim::Duration;
using sim::Simulator;

struct Harness {
  explicit Harness(WriteCache::Config cache_cfg = default_cache(), ftl::Ftl::Config ftl_cfg = fast_journal())
      : sim(11),
        chip(sim, nand::ChipArray::Config{1, chip_config()}),
        ftl(sim, chip, ftl_cfg),
        cache(sim, ftl, cache_cfg) {
    chip.on_power_good();
    ftl.on_power_good();
    cache.on_power_good();
  }

  static nand::NandChip::Config chip_config() {
    nand::NandChip::Config cfg;
    cfg.geometry.page_size_bytes = 4096;
    cfg.geometry.pages_per_block = 32;
    cfg.geometry.blocks_per_plane = 32;
    cfg.geometry.planes = 4;
    return cfg;
  }
  static WriteCache::Config default_cache() {
    WriteCache::Config cfg;
    cfg.capacity_pages = 64;
    cfg.hold_time = Duration::ms(50);
    cfg.flush_ways = 4;
    cfg.high_watermark = 0.75;
    cfg.flush_scramble_window = 8;
    return cfg;
  }
  static ftl::Ftl::Config fast_journal() {
    ftl::Ftl::Config cfg;
    cfg.journal_interval = Duration::ms(5);
    return cfg;
  }

  Simulator sim;
  nand::ChipArray chip;
  ftl::Ftl ftl;
  WriteCache cache;
};

TEST(WriteCache, InsertThenLookup) {
  Harness h;
  EXPECT_TRUE(h.cache.insert(10, 0xAA));
  EXPECT_EQ(h.cache.lookup(10), std::optional<std::uint64_t>(0xAA));
  EXPECT_FALSE(h.cache.lookup(11).has_value());
  EXPECT_EQ(h.cache.dirty_pages(), 1u);
}

TEST(WriteCache, OverwriteCoalesces) {
  Harness h;
  EXPECT_TRUE(h.cache.insert(10, 0xAA));
  EXPECT_TRUE(h.cache.insert(10, 0xBB));
  EXPECT_EQ(h.cache.lookup(10), std::optional<std::uint64_t>(0xBB));
  EXPECT_EQ(h.cache.dirty_pages(), 1u);  // still one dirty page
}

TEST(WriteCache, InsertFailsWhenUnpowered) {
  Harness h;
  h.cache.on_power_lost();
  EXPECT_FALSE(h.cache.insert(1, 2));
}

TEST(WriteCache, HoldTimeDelaysFlush) {
  Harness h;
  EXPECT_TRUE(h.cache.insert(10, 0xAA));
  h.sim.run_for(Duration::ms(20));  // < hold_time
  EXPECT_EQ(h.cache.dirty_pages(), 1u);
  EXPECT_EQ(h.cache.stats().flushes_completed, 0u);
  h.sim.run_for(Duration::ms(100));  // past hold_time + program
  EXPECT_EQ(h.cache.dirty_pages(), 0u);
  EXPECT_EQ(h.cache.stats().flushes_completed, 1u);
  // Flushed data is readable through the FTL.
  std::optional<std::uint64_t> seen;
  h.ftl.read(10, [&](nand::ReadResult r, bool) { seen = r.content; });
  while (!seen.has_value() && !h.sim.idle()) h.sim.run_all(1);
  EXPECT_EQ(seen, std::optional<std::uint64_t>(0xAA));
}

TEST(WriteCache, OldestDirtyAgeTracksHead) {
  Harness h;
  EXPECT_FALSE(h.cache.oldest_dirty_age().has_value());
  EXPECT_TRUE(h.cache.insert(10, 0xAA));
  h.sim.run_for(Duration::ms(10));
  const auto age = h.cache.oldest_dirty_age();
  ASSERT_TRUE(age.has_value());
  EXPECT_NEAR(age->to_ms(), 10.0, 0.1);
}

TEST(WriteCache, WatermarkForcesEagerFlush) {
  auto cfg = Harness::default_cache();
  cfg.hold_time = Duration::sec(100);  // hold would block flushing forever
  cfg.high_watermark = 0.5;            // 32 of 64 pages
  Harness h(cfg);
  for (Lpn lpn = 0; lpn < 40; ++lpn) ASSERT_TRUE(h.cache.insert(lpn, lpn));
  h.sim.run_for(Duration::ms(500));
  // Pressure flushed the backlog despite the huge hold time.
  EXPECT_LT(h.cache.dirty_pages(), 40u);
  EXPECT_GT(h.cache.stats().flushes_completed, 0u);
}

TEST(WriteCache, BackpressureWhenFullOfDirty) {
  auto cfg = Harness::default_cache();
  cfg.capacity_pages = 8;
  cfg.hold_time = Duration::sec(100);
  cfg.high_watermark = 2.0;  // never pressured: everything stays dirty
  Harness h(cfg);
  for (Lpn lpn = 0; lpn < 8; ++lpn) ASSERT_TRUE(h.cache.insert(lpn, lpn));
  EXPECT_FALSE(h.cache.insert(99, 99));
  EXPECT_GT(h.cache.stats().backpressure_stalls, 0u);
  // on_space fires once a flush frees room.
  bool notified = false;
  h.cache.on_space([&] { notified = true; });
  h.cache.flush_all([] {});
  h.sim.run_for(Duration::ms(200));
  EXPECT_TRUE(notified);
  EXPECT_TRUE(h.cache.insert(99, 99));
}

TEST(WriteCache, EmergencyFlushDrainsEverything) {
  auto cfg = Harness::default_cache();
  cfg.hold_time = Duration::sec(100);
  Harness h(cfg);
  for (Lpn lpn = 0; lpn < 20; ++lpn) ASSERT_TRUE(h.cache.insert(lpn, lpn + 1000));
  bool done = false;
  h.cache.flush_all([&] { done = true; });
  h.sim.run_for(Duration::ms(200));
  EXPECT_TRUE(done);
  EXPECT_EQ(h.cache.dirty_pages(), 0u);
}

TEST(WriteCache, EmergencyFlushOnEmptyCacheFiresImmediately) {
  Harness h;
  bool done = false;
  h.cache.flush_all([&] { done = true; });
  EXPECT_TRUE(done);
}

TEST(WriteCache, PowerLossDropsDirtyData) {
  Harness h;
  for (Lpn lpn = 0; lpn < 5; ++lpn) ASSERT_TRUE(h.cache.insert(lpn, lpn));
  const std::size_t lost = h.cache.on_power_lost();
  EXPECT_EQ(lost, 5u);
  EXPECT_EQ(h.cache.resident_pages(), 0u);
  EXPECT_EQ(h.cache.stats().dirty_lost_on_power_failure, 5u);
  h.cache.on_power_good();
  EXPECT_FALSE(h.cache.lookup(0).has_value());
}

TEST(WriteCache, RedirtyDuringFlushKeepsNewValue) {
  auto cfg = Harness::default_cache();
  cfg.hold_time = Duration::ms(1);
  Harness h(cfg);
  ASSERT_TRUE(h.cache.insert(10, 0xAA));
  h.sim.run_for(Duration::ms(2));  // flush of 0xAA now in flight
  ASSERT_TRUE(h.cache.insert(10, 0xBB));
  h.sim.run_for(Duration::ms(200));
  // The entry must not be marked clean with the stale value.
  EXPECT_EQ(h.cache.lookup(10), std::optional<std::uint64_t>(0xBB));
  // And the final flash state converges to 0xBB.
  std::optional<std::uint64_t> seen;
  h.ftl.read(10, [&](nand::ReadResult r, bool) { seen = r.content; });
  while (!seen.has_value() && !h.sim.idle()) h.sim.run_all(1);
  EXPECT_EQ(seen, std::optional<std::uint64_t>(0xBB));
}

TEST(WriteCache, CapacityNeverExceeded) {
  auto cfg = Harness::default_cache();
  cfg.capacity_pages = 16;
  cfg.hold_time = Duration::ms(1);
  Harness h(cfg);
  sim::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    (void)h.cache.insert(rng.below(64), i);
    h.sim.run_for(Duration::us(200));
    ASSERT_LE(h.cache.resident_pages(), 16u);
  }
}

TEST(WriteCache, ScrambleWindowOneIsStrictFifo) {
  auto cfg = Harness::default_cache();
  cfg.flush_scramble_window = 1;
  cfg.hold_time = Duration::ms(1);
  cfg.flush_ways = 1;
  Harness h(cfg);
  for (Lpn lpn = 0; lpn < 4; ++lpn) ASSERT_TRUE(h.cache.insert(lpn, lpn + 50));
  h.sim.run_for(Duration::sec(1));
  EXPECT_EQ(h.cache.stats().flushes_completed, 4u);
}

// LPNs on both sides of the slot index's 64-LPN chunk boundaries, plus one
// in a chunk of its own far beyond the rest.
const std::vector<Lpn> kSpread = {1, 63, 64, 65, 127, 128, 129, 4095};

std::vector<Lpn> sorted(std::vector<Lpn> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(WriteCache, DroppedSetEqualsDirtySet) {
  Harness h;  // hold time 50 ms
  // Flushed (clean) pages are resident but not lost on power failure.
  for (const Lpn lpn : {Lpn{2}, Lpn{64}, Lpn{127}, Lpn{3000}}) ASSERT_TRUE(h.cache.insert(lpn, lpn));
  h.sim.run_for(Duration::ms(200));
  ASSERT_EQ(h.cache.dirty_pages(), 0u);
  // Dirty: fresh pages across chunk boundaries plus re-dirtied clean ones.
  for (const Lpn lpn : kSpread) ASSERT_TRUE(h.cache.insert(lpn, lpn + 7));
  h.cache.invalidate(129);  // TRIMmed while dirty: gone, not lost
  std::vector<Lpn> dirty = kSpread;
  dirty.erase(std::find(dirty.begin(), dirty.end(), Lpn{129}));
  ASSERT_EQ(h.cache.dirty_pages(), dirty.size());
  EXPECT_EQ(h.cache.resident_pages(), dirty.size() + 2);  // + clean 2 and 3000

  EXPECT_EQ(h.cache.on_power_lost(), dirty.size());
  EXPECT_EQ(sorted(h.cache.last_dropped_lpns()), sorted(dirty));
  EXPECT_EQ(h.cache.resident_pages(), 0u);
  EXPECT_EQ(h.cache.dirty_pages(), 0u);
}

TEST(WriteCache, InsertAndLookupWorkAfterPowerLoss) {
  Harness h;  // hold time 50 ms, 4 flush ways
  for (const Lpn lpn : kSpread) ASSERT_TRUE(h.cache.insert(lpn, lpn));
  h.sim.run_for(Duration::ms(50) + Duration::us(10));  // first flushes in flight
  ASSERT_EQ(h.cache.stats().flushes_completed, 0u);
  ASSERT_FALSE(h.cache.quiescent());
  (void)h.cache.on_power_lost();
  h.cache.on_power_good();
  for (const Lpn lpn : kSpread) EXPECT_FALSE(h.cache.lookup(lpn).has_value()) << lpn;

  // The arena and index start over: same LPNs (in the same slots), new
  // values, and a new LPN.
  for (const Lpn lpn : kSpread) ASSERT_TRUE(h.cache.insert(lpn, lpn + 100));
  ASSERT_TRUE(h.cache.insert(512, 9));
  for (const Lpn lpn : kSpread) {
    EXPECT_EQ(h.cache.lookup(lpn), std::optional<std::uint64_t>(lpn + 100)) << lpn;
  }
  EXPECT_EQ(h.cache.lookup(512), std::optional<std::uint64_t>(9));
  EXPECT_FALSE(h.cache.lookup(0).has_value());
  EXPECT_EQ(h.cache.resident_pages(), kSpread.size() + 1);

  // The flushes issued before the loss complete now; they name reused slots
  // but an older dirtying, so nothing turns clean.
  h.sim.run_for(Duration::ms(20));
  EXPECT_EQ(h.cache.dirty_pages(), kSpread.size() + 1);
  EXPECT_EQ(h.cache.stats().flushes_completed, 0u);

  // The new pages flush normally.
  h.sim.run_for(Duration::ms(300));
  EXPECT_EQ(h.cache.dirty_pages(), 0u);
  EXPECT_EQ(h.cache.stats().flushes_completed, kSpread.size() + 1);
  EXPECT_EQ(h.cache.lookup(4095), std::optional<std::uint64_t>(4195));
}

TEST(WriteCache, SnapshotRestoreRoundTrip) {
  auto cfg = Harness::default_cache();
  cfg.hold_time = Duration::sec(100);  // nothing flushes: the cache stays quiescent
  cfg.high_watermark = 2.0;
  Harness h(cfg);
  for (const Lpn lpn : kSpread) ASSERT_TRUE(h.cache.insert(lpn, lpn * 3));
  h.cache.invalidate(65);  // leaves a free slot in the arena
  ASSERT_TRUE(h.cache.quiescent());

  sim::SimulatorImage sim_image;
  h.sim.snapshot(sim_image);
  WriteCache::StateImage image;
  h.cache.snapshot(image);
  const auto observe = [&h] {
    std::vector<std::optional<std::uint64_t>> seen;
    for (Lpn lpn = 0; lpn < 4100; ++lpn) seen.push_back(h.cache.lookup(lpn));
    return seen;
  };
  const auto before = observe();
  const std::size_t dirty = h.cache.dirty_pages();
  const std::size_t resident = h.cache.resident_pages();

  // Diverge: reuse the free slot, drop everything, start over.
  ASSERT_TRUE(h.cache.insert(66, 1));
  (void)h.cache.on_power_lost();
  h.cache.on_power_good();
  ASSERT_TRUE(h.cache.insert(65, 2));

  h.sim.restore(sim_image);
  sim::TimerRearmer rearm;
  h.cache.restore(image, rearm);
  rearm.execute();
  EXPECT_EQ(observe(), before);
  EXPECT_EQ(h.cache.dirty_pages(), dirty);
  EXPECT_EQ(h.cache.resident_pages(), resident);
  EXPECT_TRUE(h.cache.wake_timer_armed());

  // The restored cache keeps working: a new page takes the free slot, and a
  // power loss declares exactly the dirty set.
  ASSERT_TRUE(h.cache.insert(66, 5));
  EXPECT_EQ(h.cache.lookup(66), std::optional<std::uint64_t>(5));
  EXPECT_EQ(h.cache.resident_pages(), resident + 1);
  std::vector<Lpn> expect_dropped = {66};
  for (const Lpn lpn : kSpread) {
    if (lpn != 65) expect_dropped.push_back(lpn);
  }
  EXPECT_EQ(h.cache.on_power_lost(), expect_dropped.size());
  EXPECT_EQ(sorted(h.cache.last_dropped_lpns()), sorted(expect_dropped));
}

}  // namespace
}  // namespace pofi::ssd
