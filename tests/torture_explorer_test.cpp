// End-to-end tests for the torture explorer: the acceptance loop of the
// crash-point subsystem. A deliberately broken recovery path (the FTL's
// kSkipLastJournalRecord torture fault) must be caught by the auditor,
// shrunk to a minimal repro, and the emitted repro spec must reproduce the
// identical violation at any runner thread count.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "platform/test_platform.hpp"
#include "runner/progress.hpp"
#include "spec/checkpoint.hpp"
#include "torture/explorer.hpp"
#include "torture/harness.hpp"
#include "torture/torture_spec.hpp"
#include "workload/checksum.hpp"

namespace pofi::torture {
namespace {

/// Temp-file path helper (same convention as the checkpoint tests).
[[nodiscard]] std::string temp_path(const char* stem) {
  return std::string(::testing::TempDir()) + stem;
}

/// The smallest configuration that exercises the full loop: a handful of
/// requests on the 1 GiB preset-A drive, a short boundary window right after
/// the first writes land.
[[nodiscard]] TortureConfig small_config() {
  TortureConfig cfg;
  cfg.name = "explorer-test";
  cfg.seed = 7;
  ssd::PresetOptions opts;
  opts.capacity_override_gb = 1;
  cfg.drive = ssd::make_preset(ssd::VendorModel::kA, opts);
  cfg.drive.mount_delay = sim::Duration::ms(50);
  cfg.workload.wss_pages = 4096;
  cfg.workload.min_pages = 1;
  cfg.workload.max_pages = 16;
  cfg.workload.write_fraction = 0.8;
  cfg.requests = 24;
  cfg.pace_iops = 2000.0;
  cfg.window_first = 8;
  cfg.window_count = 16;
  cfg.stride = 64;
  cfg.shard_points = 4;
  cfg.shrink = false;
  cfg.runner.threads = 2;
  return cfg;
}

// Intact recovery: every explored boundary audits clean.
TEST(TortureExplorer, IntactRecoveryAuditsClean) {
  const TortureConfig cfg = small_config();
  const ExploreReport report = explore(cfg);
  EXPECT_GT(report.schedule_events, 0u);
  EXPECT_EQ(report.points_planned, 16u);
  EXPECT_EQ(report.points_explored, 16u);
  EXPECT_EQ(report.points_injected, 16u);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.findings.empty());
  EXPECT_FALSE(report.shrunk);
}

// The seeded self-test: break recovery, catch it, shrink it. The repro must
// be small (≤ 10 requests, exactly one injection point) and carry a verbatim
// replay of the recorded prefix.
TEST(TortureExplorer, BrokenRecoveryIsCaughtAndShrunk) {
  TortureConfig cfg = small_config();
  cfg.break_recovery = true;
  cfg.shrink = true;

  const ExploreReport report = explore(cfg);
  ASSERT_FALSE(report.findings.empty());
  EXPECT_GT(report.total_violations, 0u);
  // Findings arrive sorted by boundary regardless of shard completion order.
  for (std::size_t i = 1; i < report.findings.size(); ++i) {
    EXPECT_LT(report.findings[i - 1].boundary, report.findings[i].boundary);
  }

  ASSERT_TRUE(report.shrunk);
  EXPECT_LE(report.repro_requests, 10u);

  const TortureConfig repro = load_torture(report.repro);
  EXPECT_EQ(repro.name, cfg.name + "-repro");
  EXPECT_EQ(repro.requests, report.repro_requests);
  EXPECT_EQ(repro.window_first, report.repro_boundary);
  EXPECT_EQ(repro.window_count, 1u);
  EXPECT_EQ(repro.stride, 1u);
  EXPECT_FALSE(repro.shrink);
  EXPECT_TRUE(repro.break_recovery);
  EXPECT_EQ(repro.workload.replay.size(), repro.requests);
}

// The emitted repro is self-contained and thread-count independent: explored
// at 1, 2 and 8 runner threads it reproduces the same violation kind at the
// same boundary.
TEST(TortureExplorer, ReproReproducesAtAnyThreadCount) {
  TortureConfig cfg = small_config();
  cfg.break_recovery = true;
  cfg.shrink = true;
  const ExploreReport first = explore(cfg);
  ASSERT_TRUE(first.shrunk);

  TortureConfig repro = load_torture(first.repro);
  const InvariantKind expected_kind =
      first.findings.front().report.violations.front().kind;

  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    repro.runner.threads = threads;
    const ExploreReport rerun = explore(repro);
    ASSERT_EQ(rerun.findings.size(), 1u) << "threads=" << threads;
    EXPECT_EQ(rerun.findings.front().boundary, first.repro_boundary)
        << "threads=" << threads;
    ASSERT_FALSE(rerun.findings.front().report.violations.empty());
    EXPECT_EQ(rerun.findings.front().report.violations.front().kind, expected_kind)
        << "threads=" << threads;
  }
}

// The runner section is execution shape, not content: changing it must not
// move the torture hash, while changing the schedule must.
TEST(TortureExplorer, HashExcludesRunnerSection) {
  TortureConfig a = small_config();
  TortureConfig b = small_config();
  b.runner.threads = 8;
  EXPECT_EQ(torture_hash(a), torture_hash(b));
  b.requests = 25;
  EXPECT_NE(torture_hash(a), torture_hash(b));
}

// Checkpoint/resume: a completed exploration restores every clean shard from
// the JSONL file; violating shards are never checkpointed and re-run, so the
// findings list repopulates identically.
TEST(TortureExplorer, ResumeRestoresCleanShardsAndRerunsViolating) {
  TortureConfig cfg = small_config();
  cfg.break_recovery = true;
  const std::string path = temp_path("torture_resume.jsonl");
  std::remove(path.c_str());

  ExploreOptions options;
  options.checkpoint_path = path;
  const ExploreReport first = explore(cfg, options);
  ASSERT_FALSE(first.findings.empty());
  const std::size_t clean_shards =
      spec::load_checkpoint(path).records.size();
  ASSERT_LT(clean_shards, 4u);  // at least one shard violated -> not recorded

  options.resume = true;
  spec::ResumeStats stats;
  options.resume_stats = &stats;
  const ExploreReport second = explore(cfg, options);
  EXPECT_EQ(stats.records_reused, clean_shards);
  EXPECT_EQ(second.points_explored, first.points_explored);
  EXPECT_EQ(second.total_violations, first.total_violations);
  ASSERT_EQ(second.findings.size(), first.findings.size());
  for (std::size_t i = 0; i < first.findings.size(); ++i) {
    EXPECT_EQ(second.findings[i].boundary, first.findings[i].boundary);
  }
  std::remove(path.c_str());
}

// Violating shards surface as audit-failed through the JSONL progress
// stream, distinguishable from crashes and timeouts in automation.
TEST(TortureExplorer, AuditFailedFlowsThroughJsonlProgress) {
  TortureConfig cfg = small_config();
  cfg.break_recovery = true;
  std::ostringstream out;
  runner::JsonlProgress sink(out);
  ExploreOptions options;
  options.sink = &sink;
  const ExploreReport report = explore(cfg, options);
  ASSERT_FALSE(report.findings.empty());
  EXPECT_NE(out.str().find("\"status\":\"audit-failed\""), std::string::npos);
}

/// Byte-level fingerprint of everything a sweep reports: verdict counters,
/// every violation, and the shrunk repro spec (when present).
[[nodiscard]] std::string fingerprint(const ExploreReport& r) {
  std::ostringstream s;
  s << r.schedule_events << '|' << r.points_planned << '|' << r.points_explored << '|'
    << r.points_injected << '|' << r.total_violations << '\n';
  for (const TortureFinding& f : r.findings) {
    s << f.boundary;
    for (const Violation& v : f.report.violations) {
      s << ' ' << to_string(v.kind) << ' ' << v.detail;
    }
    s << '\n';
  }
  s << r.shrunk << '|' << r.repro_requests << '|' << r.repro_boundary << '\n';
  if (r.shrunk) {
    // The repro inherits the parent's runner section and snapshot cadence —
    // execution shape, not content (torture_hash strips both). Normalise
    // them so the byte-level comparison covers every content field.
    TortureConfig repro = load_torture(r.repro);
    repro.runner = runner::RunnerConfig{};
    repro.snapshot_interval = 256;
    s << spec::dump(to_json(repro)) << '\n';
  }
  return s.str();
}

/// FNV-1a of a fingerprint, for pinning.
[[nodiscard]] std::uint64_t fingerprint_hash(const ExploreReport& r) {
  const std::string s = fingerprint(r);
  return workload::fnv1a64({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

// Frozen full-replay oracle: fingerprint hashes of small_config() explored
// by the former full-replay crash path (a fresh mount and a replay of the
// whole prefix per crash point) at one runner thread, captured before that
// path was deleted. Every crash point now restores a pilot checkpoint; these
// pin it to the verdicts, violations and shrunk repro the full replay gave.
constexpr std::uint64_t kFullReplayIntact = 0xbe5e3d2abd9099f7ULL;
constexpr std::uint64_t kFullReplayBrokenShrunk = 0x19e4410e39b85e86ULL;

// Tentpole acceptance: restored-snapshot sweeps reproduce the frozen
// full-replay fingerprints — same verdicts, same violation set, same shrunk
// repro spec — at 1, 2 and 8 runner threads, with recovery intact and broken.
TEST(TortureExplorer, SnapshotSweepMatchesFullReplayByteForByte) {
  for (const bool broken : {false, true}) {
    TortureConfig cfg = small_config();
    cfg.break_recovery = broken;
    cfg.shrink = broken;
    const std::uint64_t reference = broken ? kFullReplayBrokenShrunk : kFullReplayIntact;
    for (const std::uint32_t threads : {1u, 2u, 8u}) {
      cfg.runner.threads = threads;
      EXPECT_EQ(fingerprint_hash(explore(cfg)), reference)
          << "broken=" << broken << " threads=" << threads;
    }
  }
}

// Snapshot cadence is wall-clock shape, not content: any interval (including
// one sparse enough that only the baseline and tail checkpoints exist)
// produces the frozen full-replay verdicts, and the knob stays out of the
// content hash.
TEST(TortureExplorer, SnapshotIntervalNeverChangesVerdicts) {
  TortureConfig cfg = small_config();
  cfg.break_recovery = true;
  cfg.shrink = true;
  cfg.runner.threads = 1;
  const std::uint64_t base_hash = torture_hash(cfg);
  for (const std::uint64_t interval : {1ULL, 64ULL, 1'000'000'000ULL}) {
    cfg.snapshot_interval = interval;
    EXPECT_EQ(torture_hash(cfg), base_hash) << "interval=" << interval;
    EXPECT_EQ(fingerprint_hash(explore(cfg)), kFullReplayBrokenShrunk)
        << "interval=" << interval;
  }
}

// The baseline checkpoint is an invariant: on every preset, with the POR
// scan off and on, the pilot's first checkpoint sits at boundary 0, so every
// crash point has one to restore. Each such sweep (broken recovery, so the
// fingerprint carries violations) matches across cadences and the frozen
// full-replay hash captured alongside kFullReplay*.
TEST(TortureExplorer, BaselineCheckpointOnEveryPreset) {
  struct Case {
    ssd::VendorModel model;
    std::uint64_t full_replay;
  };
  for (const Case c : {Case{ssd::VendorModel::kA, 0x8941e9a6966fd4ddULL},
                       Case{ssd::VendorModel::kB, 0x8941e9a6966fd4ddULL},
                       Case{ssd::VendorModel::kC, 0x1c69e8def047519cULL}}) {
    for (const bool por_scan : {false, true}) {
      TortureConfig cfg = small_config();
      ssd::PresetOptions opts;
      opts.capacity_override_gb = 1;
      opts.por_scan = por_scan;
      cfg.drive = ssd::make_preset(c.model, opts);
      cfg.drive.mount_delay = sim::Duration::ms(50);
      cfg.break_recovery = true;
      cfg.runner.threads = 1;

      CrashHarness harness(cfg);
      SchedulePilot pilot;
      platform::TestPlatform tp(cfg.drive, cfg.platform, cfg.seed);
      (void)harness.run_pilot(tp, pilot, cfg.snapshot_interval);
      ASSERT_FALSE(pilot.snapshots.empty());
      EXPECT_EQ(pilot.snapshots.front().boundary, 0u)
          << ssd::to_string(c.model) << " por_scan=" << por_scan;

      for (const std::uint64_t interval : {64ULL, 256ULL, 1'000'000'000ULL}) {
        cfg.snapshot_interval = interval;
        EXPECT_EQ(fingerprint_hash(explore(cfg)), c.full_replay)
            << ssd::to_string(c.model) << " por_scan=" << por_scan << " interval=" << interval;
      }
    }
  }
}

// audit-failed is part of the status taxonomy: round-trips through the
// string codec and stays out of is_success (so it is never checkpointed).
TEST(TortureExplorer, AuditFailedStatusTaxonomy) {
  EXPECT_STREQ(runner::to_string(runner::CampaignStatus::kAuditFailed), "audit-failed");
  runner::CampaignStatus parsed{};
  ASSERT_TRUE(runner::status_from_string("audit-failed", parsed));
  EXPECT_EQ(parsed, runner::CampaignStatus::kAuditFailed);
  EXPECT_FALSE(runner::is_success(runner::CampaignStatus::kAuditFailed));
}

}  // namespace
}  // namespace pofi::torture
