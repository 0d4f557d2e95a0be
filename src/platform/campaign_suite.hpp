// CampaignSuite: run a batch of fault-injection campaigns and aggregate the
// results — the workhorse behind parameter sweeps (one entry per figure
// point) and fleet studies (one entry per drive).
//
// Each entry runs on a just-constructed-equivalent TestPlatform (campaigns
// must not share device history): by default a pooled per-worker stack reset
// in place between entries (RunnerConfig::session_reuse), with a fresh build
// per entry as the fallback/baseline. The suite renders a comparison table /
// CSV at the end.
//
// Execution is delegated to runner::CampaignRunner: the default run_all()
// uses one thread (bit-identical to the historical sequential loop), and the
// RunnerConfig overload fans entries out over a worker pool. Results are
// deterministic at any thread count because every entry's seed is fixed at
// add() time, never at execution time.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "platform/experiment.hpp"
#include "platform/test_platform.hpp"
#include "runner/campaign_runner.hpp"
#include "stats/csv.hpp"

namespace pofi::platform {

class CampaignSuite {
 public:
  /// `master_seed` shards per-entry seeds for entries whose spec leaves
  /// ExperimentSpec::seed at its default (see add()).
  explicit CampaignSuite(PlatformConfig platform_config = {},
                         std::uint64_t master_seed = 42)
      : platform_config_(platform_config), master_seed_(master_seed) {}

  /// Queue one campaign. `label` names the row in the summary.
  ///
  /// Seed policy: a spec whose seed was left at the ExperimentSpec default
  /// receives sim::derive_seed(master_seed, entry_index) instead — without
  /// this, every defaulted entry would share seed 42 and fleet rows would be
  /// accidentally correlated. Set spec.seed explicitly (to anything, even
  /// the default value via a distinct master) to pin it.
  CampaignSuite& add(std::string label, ssd::SsdConfig drive, ExperimentSpec spec);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  struct Row {
    std::string label;
    ExperimentResult result;
  };

  /// Execute every queued campaign sequentially on the calling thread
  /// (equivalent to run_all({.threads = 1})).
  [[nodiscard]] std::vector<Row> run_all();

  /// Execute on a worker pool per `config`, reporting progress to `sink`
  /// (may be null). Rows come back in submission order and are bit-identical
  /// at any thread count. Throws std::runtime_error if a campaign failed;
  /// entries cancelled by fail-fast are omitted from the rows. Use
  /// run_outcomes() to inspect per-campaign statuses instead.
  [[nodiscard]] std::vector<Row> run_all(const runner::RunnerConfig& config,
                                         runner::ProgressSink* sink = nullptr);

  /// Fold a run's outcomes into rows, in order: each successful entry
  /// (is_success) gives a row, an entry that fail-fast or cancellation
  /// stopped gives none, and a failed, quarantined or audit-failed entry
  /// throws std::runtime_error naming its label.
  [[nodiscard]] static std::vector<Row> rows_from(
      std::vector<runner::CampaignRunner::Outcome> outcomes);

  /// Like run_all(config, sink) but never throws on campaign failure:
  /// returns the full per-campaign outcome vector (status, wall time, error).
  [[nodiscard]] std::vector<runner::CampaignRunner::Outcome> run_outcomes(
      const runner::RunnerConfig& config, runner::ProgressSink* sink = nullptr);

  /// Render rows as an aligned comparison table.
  [[nodiscard]] static std::string summary_table(const std::vector<Row>& rows);

  /// Export rows as CSV (one row per campaign).
  [[nodiscard]] static stats::CsvWriter to_csv(const std::vector<Row>& rows);

 private:
  struct Entry {
    std::string label;
    ssd::SsdConfig drive;
    ExperimentSpec spec;
  };
  PlatformConfig platform_config_;
  std::uint64_t master_seed_;
  std::vector<Entry> entries_;
};

}  // namespace pofi::platform
