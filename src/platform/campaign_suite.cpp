#include "platform/campaign_suite.hpp"

#include <stdexcept>

#include "runner/experiment_session.hpp"
#include "sim/rng.hpp"
#include "stats/table.hpp"

namespace pofi::platform {

CampaignSuite& CampaignSuite::add(std::string label, ssd::SsdConfig drive,
                                  ExperimentSpec spec) {
  if (spec.seed == ExperimentSpec{}.seed) {
    spec.seed = sim::derive_seed(master_seed_, entries_.size());
  }
  entries_.push_back(Entry{std::move(label), std::move(drive), std::move(spec)});
  return *this;
}

std::vector<CampaignSuite::Row> CampaignSuite::run_all() {
  runner::RunnerConfig sequential;
  sequential.threads = 1;
  return run_all(sequential);
}

std::vector<runner::CampaignRunner::Outcome> CampaignSuite::run_outcomes(
    const runner::RunnerConfig& config, runner::ProgressSink* sink) {
  runner::CampaignRunner engine(config, sink);
  for (const Entry& e : entries_) {
    if (config.session_reuse) {
      // Pooled path: one device stack per worker, reset in place between
      // entries (rebuilt automatically when an entry's drive differs).
      // Bit-identical to the build-per-entry path below.
      engine.add(e.label, [this, &e](runner::SessionSlot& slot) {
        TestPlatform& platform = runner::ExperimentSession::acquire(
            slot, e.drive, platform_config_, e.spec.seed);
        return platform.run(e.spec);
      });
    } else {
      engine.add(e.label, [this, &e] {
        TestPlatform platform(e.drive, platform_config_, e.spec.seed);
        return platform.run(e.spec);
      });
    }
  }
  return engine.run();
}

std::vector<CampaignSuite::Row> CampaignSuite::run_all(const runner::RunnerConfig& config,
                                                       runner::ProgressSink* sink) {
  return rows_from(run_outcomes(config, sink));
}

std::vector<CampaignSuite::Row> CampaignSuite::rows_from(
    std::vector<runner::CampaignRunner::Outcome> outcomes) {
  std::vector<Row> rows;
  rows.reserve(outcomes.size());
  for (auto& o : outcomes) {
    switch (o.status) {
      case runner::CampaignStatus::kOk:
      case runner::CampaignStatus::kRetriedOk:
      case runner::CampaignStatus::kTimedOut:
      case runner::CampaignStatus::kSkippedCached:
        rows.push_back(Row{std::move(o.label), std::move(o.result)});
        break;
      case runner::CampaignStatus::kFailed:
        throw std::runtime_error("campaign '" + o.label + "' failed: " + o.error);
      case runner::CampaignStatus::kQuarantined:
        throw std::runtime_error("campaign '" + o.label + "' quarantined after " +
                                 std::to_string(o.attempts) + " attempt(s): " + o.error);
      case runner::CampaignStatus::kAuditFailed:
        // The result is a bug report, not a measurement: never a row.
        throw std::runtime_error("campaign '" + o.label + "' failed its recovery audit: " +
                                 o.error);
      case runner::CampaignStatus::kCancelled:
      case runner::CampaignStatus::kSkipped:
      case runner::CampaignStatus::kPending:
        break;  // fail-fast or cancellation stopped it before it finished
    }
  }
  return rows;
}

std::string CampaignSuite::summary_table(const std::vector<Row>& rows) {
  stats::Table table({"campaign", "faults", "requests", "data failures", "FWA", "IO errors",
                      "loss/fault", "mean Q2C us"});
  for (const Row& row : rows) {
    const ExperimentResult& r = row.result;
    table.add_row({row.label, stats::Table::fmt(std::uint64_t{r.faults_injected}),
                   stats::Table::fmt(r.requests_submitted), stats::Table::fmt(r.data_failures),
                   stats::Table::fmt(r.fwa_failures), stats::Table::fmt(r.io_errors),
                   stats::Table::fmt(r.data_failures_per_fault(), 2),
                   stats::Table::fmt(r.mean_latency_us, 0)});
  }
  return table.render();
}

stats::CsvWriter CampaignSuite::to_csv(const std::vector<Row>& rows) {
  stats::CsvWriter csv({"campaign", "faults", "requests", "write_acks", "data_failures",
                        "fwa", "io_errors", "verified_ok", "loss_per_fault",
                        "mean_latency_us", "sim_seconds"});
  for (const Row& row : rows) {
    const ExperimentResult& r = row.result;
    csv.add_row({row.label, stats::Table::fmt(std::uint64_t{r.faults_injected}),
                 stats::Table::fmt(r.requests_submitted), stats::Table::fmt(r.write_acks),
                 stats::Table::fmt(r.data_failures), stats::Table::fmt(r.fwa_failures),
                 stats::Table::fmt(r.io_errors), stats::Table::fmt(r.verified_ok),
                 stats::Table::fmt(r.data_failures_per_fault(), 4),
                 stats::Table::fmt(r.mean_latency_us, 1),
                 stats::Table::fmt(r.sim_seconds, 2)});
  }
  return csv;
}

}  // namespace pofi::platform
