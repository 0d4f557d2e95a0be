#include "platform/campaign_suite.hpp"

#include <gtest/gtest.h>

#include "ssd/presets.hpp"

namespace pofi::platform {
namespace {

ssd::SsdConfig tiny_drive(bool plp = false) {
  ssd::PresetOptions opts;
  opts.capacity_override_gb = 1;
  opts.plp = plp;
  auto cfg = ssd::make_preset(ssd::VendorModel::kA, opts);
  cfg.mount_delay = sim::Duration::ms(50);
  return cfg;
}

ExperimentSpec tiny_spec(std::uint64_t seed) {
  ExperimentSpec spec;
  spec.name = "suite-entry";
  spec.workload.wss_pages = (256ULL << 20) / 4096;
  spec.workload.min_pages = 1;
  spec.workload.max_pages = 16;
  spec.total_requests = 200;
  spec.faults = 4;
  spec.pace_iops = 40.0;
  spec.seed = seed;
  return spec;
}

TEST(CampaignSuite, RunsEveryEntry) {
  CampaignSuite suite;
  suite.add("commodity", tiny_drive(false), tiny_spec(1))
      .add("plp", tiny_drive(true), tiny_spec(1));
  EXPECT_EQ(suite.size(), 2u);
  const auto rows = suite.run_all();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].label, "commodity");
  EXPECT_EQ(rows[1].label, "plp");
  for (const auto& row : rows) {
    EXPECT_EQ(row.result.faults_injected, 4u);
    EXPECT_GT(row.result.requests_submitted, 0u);
  }
  // Same workload, same faults: the commodity drive loses, the PLP doesn't.
  EXPECT_GT(rows[0].result.total_data_loss(), 0u);
  EXPECT_EQ(rows[1].result.total_data_loss(), 0u);
}

TEST(CampaignSuite, EntriesAreIndependent) {
  // Two identical entries must produce identical results: the suite gives
  // each its own fresh platform (no shared device history).
  CampaignSuite suite;
  suite.add("a", tiny_drive(), tiny_spec(7)).add("b", tiny_drive(), tiny_spec(7));
  const auto rows = suite.run_all();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].result.data_failures, rows[1].result.data_failures);
  EXPECT_EQ(rows[0].result.fwa_failures, rows[1].result.fwa_failures);
  EXPECT_EQ(rows[0].result.requests_submitted, rows[1].result.requests_submitted);
  EXPECT_DOUBLE_EQ(rows[0].result.sim_seconds, rows[1].result.sim_seconds);
}

TEST(CampaignSuite, SummaryTableAndCsvContainEveryRow) {
  CampaignSuite suite;
  suite.add("row-one", tiny_drive(), tiny_spec(2)).add("row-two", tiny_drive(true), tiny_spec(3));
  const auto rows = suite.run_all();
  const std::string table = CampaignSuite::summary_table(rows);
  EXPECT_NE(table.find("row-one"), std::string::npos);
  EXPECT_NE(table.find("row-two"), std::string::npos);
  EXPECT_NE(table.find("loss/fault"), std::string::npos);

  const auto csv = CampaignSuite::to_csv(rows);
  EXPECT_EQ(csv.rows(), 2u);
  const std::string rendered = csv.render();
  EXPECT_NE(rendered.find("campaign,faults"), std::string::npos);
  EXPECT_NE(rendered.find("row-one"), std::string::npos);
}

TEST(CampaignSuite, EmptySuiteIsFine) {
  CampaignSuite suite;
  const auto rows = suite.run_all();
  EXPECT_TRUE(rows.empty());
  EXPECT_NE(CampaignSuite::summary_table(rows).find("campaign"), std::string::npos);
}

TEST(CampaignSuite, ParallelRowsMatchSequentialRows) {
  const auto build = [] {
    CampaignSuite suite;
    suite.add("one", tiny_drive(), tiny_spec(11))
        .add("two", tiny_drive(true), tiny_spec(12))
        .add("three", tiny_drive(), tiny_spec(13));
    return suite;
  };
  auto sequential_suite = build();
  auto parallel_suite = build();
  const auto seq = sequential_suite.run_all();
  runner::RunnerConfig config;
  config.threads = 3;
  const auto par = parallel_suite.run_all(config);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].label, par[i].label);
    EXPECT_EQ(seq[i].result.data_failures, par[i].result.data_failures);
    EXPECT_EQ(seq[i].result.fwa_failures, par[i].result.fwa_failures);
    EXPECT_EQ(seq[i].result.requests_submitted, par[i].result.requests_submitted);
    EXPECT_DOUBLE_EQ(seq[i].result.sim_seconds, par[i].result.sim_seconds);
  }
}

TEST(CampaignSuite, RunOutcomesReportsPerCampaignStatus) {
  CampaignSuite suite;
  suite.add("solo", tiny_drive(), tiny_spec(21));
  const auto outcomes = suite.run_outcomes(runner::RunnerConfig{});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].label, "solo");
  EXPECT_EQ(outcomes[0].status, runner::CampaignStatus::kOk);
  EXPECT_GT(outcomes[0].wall_seconds, 0.0);
  EXPECT_EQ(outcomes[0].result.faults_injected, 4u);
}

// The outcome -> rows fold on a synthetic outcome of every status: no
// campaign path produces kAuditFailed today, so only this test reaches it.
TEST(CampaignSuite, RowsFromFoldsEveryStatus) {
  using runner::CampaignStatus;
  for (const CampaignStatus status : runner::kCampaignStatuses) {
    SCOPED_TRACE(runner::to_string(status));
    std::vector<runner::CampaignRunner::Outcome> outcomes(2);
    outcomes[0].label = "clean";
    outcomes[0].status = CampaignStatus::kOk;
    outcomes[0].result.name = "clean";
    outcomes[1].label = "probe";
    outcomes[1].status = status;
    outcomes[1].result.name = "probe";
    outcomes[1].error = "boom";

    const bool throws = status == CampaignStatus::kFailed ||
                        status == CampaignStatus::kQuarantined ||
                        status == CampaignStatus::kAuditFailed;
    if (throws) {
      try {
        (void)CampaignSuite::rows_from(std::move(outcomes));
        FAIL() << "expected std::runtime_error";
      } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'probe'"), std::string::npos) << what;
        EXPECT_NE(what.find("boom"), std::string::npos) << what;
      }
      continue;
    }
    const auto rows = CampaignSuite::rows_from(std::move(outcomes));
    const std::size_t want = runner::is_success(status) ? 2 : 1;
    ASSERT_EQ(rows.size(), want);
    EXPECT_EQ(rows[0].label, "clean");
    if (want == 2) {
      EXPECT_EQ(rows[1].label, "probe");
      EXPECT_EQ(rows[1].result.name, "probe");
    }
  }
}

}  // namespace
}  // namespace pofi::platform
