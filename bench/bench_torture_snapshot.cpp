// Crash-point sweep A/B: dense pilot checkpoints vs baseline-only restore.
//
// The sweep cost model motivating the snapshot protocol: replaying the
// schedule prefix for every lattice point makes a window of P points deep in
// a B-event schedule cost O(P x B). Every crash point restores the nearest
// pilot checkpoint and replays only the residual window, so a pilot that
// checkpoints every ~snapshot_interval quiescent boundaries serves the sweep
// in O(B + P x interval).
//
// Both sides here run the identical torture::explore() entry point on the
// identical config -- only torture.snapshot_interval differs: 256 against
// 1e9, where the pilot keeps just the post-mount baseline and the drained
// tail, so each point below the tail replays nearly the whole prefix. The
// verdict counters are cross-checked before the record is written, so the
// speedup is measured on provably equivalent work. The window sits just below
// that tail checkpoint (stride 1) because that is where the prefix replay is
// most expensive and where real sweeps spend their time; shallow boundaries
// amortise nothing and the restore copy can even lose.
//
// main() measures best-of-3 interleaved reps and merges a "torture_snapshot"
// record into $POFI_BENCH_DIR/BENCH_micro.json (read-modify-write via the
// spec JSON layer). scripts/bench_gate.py holds the floor.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "platform/test_platform.hpp"
#include "spec/value.hpp"
#include "ssd/presets.hpp"
#include "torture/explorer.hpp"
#include "torture/harness.hpp"
#include "torture/torture_spec.hpp"

namespace {

using namespace pofi;

constexpr std::uint64_t kWindowPoints = 32;
constexpr std::uint64_t kDenseInterval = 256;
constexpr std::uint64_t kBaselineOnlyInterval = 1'000'000'000;

/// The smoke-lattice shape scaled to a schedule long enough that the prefix
/// replay per point dominates the shared audit/recovery cost. The window is
/// filled in by place_window() once the tail checkpoint is known.
torture::TortureConfig sweep_config() {
  torture::TortureConfig cfg;
  cfg.name = "bench-torture-snapshot";
  cfg.seed = 7;
  ssd::PresetOptions opts;
  opts.capacity_override_gb = 1;
  cfg.drive = ssd::make_preset(ssd::VendorModel::kA, opts);
  cfg.drive.mount_delay = sim::Duration::ms(50);
  cfg.workload.wss_pages = 4096;
  cfg.workload.min_pages = 1;
  cfg.workload.max_pages = 16;
  cfg.workload.write_fraction = 0.8;
  cfg.requests = 512;
  cfg.pace_iops = 2000.0;
  cfg.stride = 1;
  cfg.window_count = kWindowPoints;
  cfg.shard_points = 8;
  cfg.shrink = false;
  cfg.snapshot_interval = kDenseInterval;
  cfg.runner.threads = 1;  // serial: the record measures the algorithm, not the pool
  return cfg;
}

/// Pilot the schedule once without intermediate checkpoints and park the
/// stride-1 window just below its deepest one (the drained tail) -- every
/// point then costs a near-full prefix replay on the baseline-only side.
void place_window(torture::TortureConfig& cfg) {
  platform::TestPlatform tp(cfg.drive, cfg.platform, cfg.seed);
  torture::CrashHarness harness(cfg);
  torture::SchedulePilot pilot;
  (void)harness.run_pilot(tp, pilot, kBaselineOnlyInterval);
  const std::uint64_t deepest = pilot.snapshots.back().boundary;
  cfg.window_first = deepest > kWindowPoints + 1 ? deepest - kWindowPoints - 1 : 1;
}

double timed_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void write_torture_snapshot_record() {
  constexpr int kReps = 3;

  torture::TortureConfig cfg = sweep_config();
  place_window(cfg);
  torture::TortureConfig baseline_only = cfg;
  baseline_only.snapshot_interval = kBaselineOnlyInterval;

  // Equivalence gate first (doubles as warmup): the two sides must agree on
  // every verdict counter or the speedup is measuring different work.
  const torture::ExploreReport a = torture::explore(cfg);
  const torture::ExploreReport b = torture::explore(baseline_only);
  const bool equivalent = a.schedule_events == b.schedule_events &&
                          a.points_explored == b.points_explored &&
                          a.points_injected == b.points_injected &&
                          a.total_violations == b.total_violations;
  if (!equivalent) {
    std::fprintf(stderr,
                 "torture_snapshot A/B DIVERGED: dense %llu/%llu/%llu vs "
                 "baseline-only %llu/%llu/%llu -- record not written\n",
                 static_cast<unsigned long long>(a.points_explored),
                 static_cast<unsigned long long>(a.points_injected),
                 static_cast<unsigned long long>(a.total_violations),
                 static_cast<unsigned long long>(b.points_explored),
                 static_cast<unsigned long long>(b.points_injected),
                 static_cast<unsigned long long>(b.total_violations));
    return;
  }

  // Interleave reps so shared-box slow phases hit both sides evenly.
  double best_dense = 1e30;
  double best_baseline_only = 1e30;
  for (int r = 0; r < kReps; ++r) {
    best_baseline_only = std::min(best_baseline_only, timed_seconds([&] {
      benchmark::DoNotOptimize(torture::explore(baseline_only));
    }));
    best_dense = std::min(best_dense, timed_seconds([&] {
      benchmark::DoNotOptimize(torture::explore(cfg));
    }));
  }

  const double speedup = best_baseline_only / best_dense;
  std::printf("\n-- torture sweep A/B (%llu stride-1 points at depth %llu of %llu events, "
              "best of %d) --\n",
              static_cast<unsigned long long>(a.points_explored),
              static_cast<unsigned long long>(cfg.window_first),
              static_cast<unsigned long long>(a.schedule_events), kReps);
  std::printf("baseline-only restore: %.3f s   dense restore: %.3f s   speedup: %.2fx"
              "   (floor >= 3x, target >= 5x)\n",
              best_baseline_only, best_dense, speedup);

  const char* dir = std::getenv("POFI_BENCH_DIR");
  const std::string path = std::string(dir == nullptr ? "." : dir) + "/BENCH_micro.json";
  spec::Value root;
  try {
    root = spec::parse_file(path);
  } catch (const spec::Error&) {
    root = spec::Value::object();  // no prior record: start fresh
  }
  spec::Value rec = spec::Value::object();
  rec.set("workload",
          "stride-1 crash-point sweep just below the drained-tail checkpoint, "
          "snapshot_interval 256 vs 1e9 (baseline-only restore) through "
          "torture::explore(), verdict-equivalence checked before timing");
  rec.set("schedule_events", static_cast<std::int64_t>(a.schedule_events));
  rec.set("window_first", static_cast<std::int64_t>(cfg.window_first));
  rec.set("points", static_cast<std::int64_t>(a.points_explored));
  rec.set("snapshot_interval", static_cast<std::int64_t>(cfg.snapshot_interval));
  rec.set("baseline_only_seconds", best_baseline_only);
  rec.set("dense_seconds", best_dense);
  rec.set("speedup", speedup);
  root.set("torture_snapshot", std::move(rec));

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BENCH_micro.json write FAILED: %s\n", path.c_str());
    return;
  }
  const std::string out = spec::dump(root);
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::printf("perf record merged: %s\n", path.c_str());
}

// Registered benchmarks for interactive profiling of either side; the
// committed record comes from write_torture_snapshot_record() below.
void BM_SweepSnapshot(benchmark::State& state) {
  torture::TortureConfig cfg = sweep_config();
  place_window(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(torture::explore(cfg));
  }
}
BENCHMARK(BM_SweepSnapshot)->Unit(benchmark::kMillisecond);

void BM_SweepBaselineOnly(benchmark::State& state) {
  torture::TortureConfig cfg = sweep_config();
  place_window(cfg);
  cfg.snapshot_interval = kBaselineOnlyInterval;
  for (auto _ : state) {
    benchmark::DoNotOptimize(torture::explore(cfg));
  }
}
BENCHMARK(BM_SweepBaselineOnly)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_torture_snapshot_record();
  return 0;
}
