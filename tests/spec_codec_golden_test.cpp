// Byte-level pin of the JSON codecs' output.
//
// The goldens in determinism_golden_test pin what the simulator computes;
// this file pins what the codecs *write*: every to_json() byte that reaches a
// content hash, a checkpoint line or a repro spec. Each constant is the FNV-1a
// hash of canonical JSON, so a renamed key, a reordered enum string, a
// changed duration unit or a dropped omitted-when-default rule flips it.
//
//   * every committed campaign spec: each resolved entry's platform, drive
//     and experiment (folded over the entries in order) and the runner;
//   * every committed torture spec: torture_hash and the full to_json;
//   * the golden campaign's result and its canonical checkpoint line;
//   * hand-built values for the keys the committed specs never emit
//     (a pinned seed, a replay list, audit violations, metrics).
//
// Regenerate only for an intentional format change, via
//   POFI_PRINT_GOLDEN=1 ./spec_codec_golden_test
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "spec/campaign.hpp"
#include "spec/checkpoint.hpp"
#include "spec/codec.hpp"
#include "torture/torture_spec.hpp"
#include "workload/checksum.hpp"

namespace pofi::spec {
namespace {

std::string spec_dir() {
  const char* dir = std::getenv("POFI_SPEC_DIR");
  return dir == nullptr ? POFI_SPEC_DIR : dir;
}

bool printing() { return std::getenv("POFI_PRINT_GOLDEN") != nullptr; }

std::uint64_t hash_str(const std::string& s) {
  return workload::fnv1a64({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

struct CampaignPin {
  const char* file;
  std::uint64_t platform;
  std::uint64_t drive;
  std::uint64_t experiment;
  std::uint64_t runner;
};

const CampaignPin kCampaignPins[] = {
    {"quickstart.json", 0x7587B8A54DC7C068ULL, 0x75130672E686A175ULL,
     0x8831D9F5217D5E46ULL, 0xA0B2BCE0F0D4570DULL},
    {"vendor_qualification.json", 0xCAC591760DDF0641ULL, 0x062247D98366AF5FULL,
     0xEB5D02CB4266D361ULL, 0xA0B2BCE0F0D4570DULL},
    {"fig5_request_type.json", 0x454E9A2B82DCF9D4ULL, 0x70672083FC73492DULL,
     0xC8A0DE12C1C33FF6ULL, 0xA0B2BCE0F0D4570DULL},
    {"fig6_wss.json", 0xCFA187D09AC7EE33ULL, 0x8D5F7A059BECB595ULL,
     0xD0A15DB10C991CA9ULL, 0xA0B2BCE0F0D4570DULL},
    {"fig7_request_size.json", 0x454E9A2B82DCF9D4ULL, 0x70672083FC73492DULL,
     0xE19CF5FFD8F3F67AULL, 0xA0B2BCE0F0D4570DULL},
    {"fig8_iops.json", 0x8CD6410AF4673472ULL, 0x9BD8BB38E8843C5DULL,
     0x56FA21874D31DCD9ULL, 0xA0B2BCE0F0D4570DULL},
    {"fig9_sequences.json", 0xCAC591760DDF0641ULL, 0x07A438A8BF3F2445ULL,
     0xC83062F715CBA37BULL, 0xA0B2BCE0F0D4570DULL},
    {"secIVA_post_ack_interval.json", 0xF84E40CFEFAE3C11ULL, 0x57B7B0084E9A753BULL,
     0x080581AE3F3719E5ULL, 0xA0B2BCE0F0D4570DULL},
    {"secIVD_access_pattern.json", 0x272365B079C9FFEBULL, 0x018627EB4CCB62D5ULL,
     0xE32C2A52BCA6AA02ULL, 0xA0B2BCE0F0D4570DULL},
    {"table1_smoke.json", 0xD072DB2F306D7926ULL, 0x95E7C8769A50F912ULL,
     0xBCE8C33C3F766591ULL, 0xA0B2BCE0F0D4570DULL},
    {"golden.json", 0x54DF15FCDFD8DA97ULL, 0x08DE5B10D499853FULL,
     0x6F1906386782DEF8ULL, 0xA0B2BCE0F0D4570DULL},
    {"large_drive.json", 0x7587B8A54DC7C068ULL, 0x1A506EAD0032E43DULL,
     0xB19710E99E8F36FAULL, 0xA0B2BCE0F0D4570DULL},
};

struct TorturePin {
  const char* file;
  std::uint64_t torture_hash;
  std::uint64_t document;
};

const TorturePin kTorturePins[] = {
    {"torture_smoke.json", 0xAFDB85E45EF2ADA7ULL, 0x0048F5D2CB96EDA5ULL},
};

TEST(SpecCodecGolden, CommittedCampaignSpecsEncodeIdentically) {
  for (const CampaignPin& pin : kCampaignPins) {
    SCOPED_TRACE(pin.file);
    const CampaignSpec spec = load_campaign_file(spec_dir() + "/" + pin.file);
    // One canonical line per entry, in entry order, hashed per section.
    std::string platform;
    std::string drive;
    std::string experiment;
    for (const CampaignEntry& e : spec.entries) {
      platform += canonical(to_json(e.platform)) + '\n';
      drive += canonical(to_json(e.drive)) + '\n';
      experiment += canonical(to_json(e.experiment)) + '\n';
    }
    const CampaignPin got{pin.file, hash_str(platform), hash_str(drive),
                          hash_str(experiment), content_hash(to_json(spec.runner))};
    if (printing()) {
      std::printf("    {\"%s\", 0x%016" PRIX64 "ULL, 0x%016" PRIX64 "ULL,\n     0x%016" PRIX64
                  "ULL, 0x%016" PRIX64 "ULL},\n",
                  pin.file, got.platform, got.drive, got.experiment, got.runner);
      continue;
    }
    EXPECT_EQ(got.platform, pin.platform) << "platform codec output drifted";
    EXPECT_EQ(got.drive, pin.drive) << "drive codec output drifted";
    EXPECT_EQ(got.experiment, pin.experiment) << "experiment codec output drifted";
    EXPECT_EQ(got.runner, pin.runner) << "runner codec output drifted";
  }
}

TEST(SpecCodecGolden, CommittedTortureSpecsEncodeIdentically) {
  for (const TorturePin& pin : kTorturePins) {
    SCOPED_TRACE(pin.file);
    const auto cfg = torture::load_torture_file(spec_dir() + "/" + pin.file);
    const TorturePin got{pin.file, torture::torture_hash(cfg), content_hash(torture::to_json(cfg))};
    if (printing()) {
      std::printf("    {\"%s\", 0x%016" PRIX64 "ULL, 0x%016" PRIX64 "ULL},\n", pin.file,
                  got.torture_hash, got.document);
      continue;
    }
    EXPECT_EQ(got.torture_hash, pin.torture_hash) << "torture_hash drifted";
    EXPECT_EQ(got.document, pin.document) << "torture codec output drifted";
  }
}

void expect_pin(const char* what, std::uint64_t got, std::uint64_t want) {
  if (printing()) {
    std::printf("%s = 0x%016" PRIX64 "ULL\n", what, got);
    return;
  }
  EXPECT_EQ(got, want) << what << " drifted; rerun with POFI_PRINT_GOLDEN=1";
}

// The golden campaign's result through the result codec, and the checkpoint
// line that carries it (wall time fixed: the only field that varies by run).
constexpr std::uint64_t kGoldenResult = 0x186FE74313D6A956ULL;
constexpr std::uint64_t kGoldenCheckpointLine = 0x4912A453B6BDCC81ULL;

TEST(SpecCodecGolden, GoldenResultAndCheckpointLineEncodeIdentically) {
  const CampaignSpec spec = load_campaign_file(spec_dir() + "/golden.json");
  const auto outcomes = run_campaign(spec);
  ASSERT_EQ(outcomes.size(), 1U);
  ASSERT_EQ(outcomes[0].status, runner::CampaignStatus::kOk);

  CheckpointRecord rec;
  rec.spec_hash = spec.hash;
  rec.entry_index = 0;
  rec.seed = spec.entries[0].experiment.seed;
  rec.label = outcomes[0].label;
  rec.status = outcomes[0].status;
  rec.attempts = outcomes[0].attempts;
  rec.wall_seconds = 0.5;
  rec.result = outcomes[0].result;

  expect_pin("kGoldenResult", content_hash(to_json(rec.result)), kGoldenResult);
  expect_pin("kGoldenCheckpointLine", hash_str(canonical(to_json(rec))),
             kGoldenCheckpointLine);
}

// Keys no committed spec emits: a pinned seed and a replay list on the
// experiment side; audit violations and metrics on the result side.
constexpr std::uint64_t kPinnedSeedReplayExperiment = 0x9AE5B905151AC8B4ULL;
constexpr std::uint64_t kAuditedRecord = 0x74FE1769F4F31EC3ULL;

TEST(SpecCodecGolden, OmittedWhenDefaultKeysEncodeIdentically) {
  platform::ExperimentSpec exp;
  exp.seed = 7;
  exp.mode = platform::FaultMode::kFixedDelayAfterAck;
  exp.workload.replay = {{workload::OpType::kRead, 12, 3}, {workload::OpType::kWrite, 0, 1}};
  expect_pin("kPinnedSeedReplayExperiment", content_hash(to_json(exp)),
             kPinnedSeedReplayExperiment);

  CheckpointRecord rec;
  rec.spec_hash = 0x0123456789ABCDEFULL;
  rec.entry_index = 3;
  rec.seed = 99;
  rec.label = "torture-shard3";
  rec.status = runner::CampaignStatus::kAuditFailed;
  rec.attempts = 2;
  rec.wall_seconds = 1.25;
  rec.result.name = "audited";
  rec.result.audit_violations = 2;
  rec.result.requested_iops = 0.1;
  platform::FailureRecord f;
  f.packet_id = 5;
  f.type = platform::FailureType::kFwa;
  f.ack_to_fault_ms = -1.0;
  f.op = workload::OpType::kRead;
  rec.result.failures = {f};
  rec.result.metrics.counters = {{"ssd.cache.dirty_lost", 4}};
  rec.result.metrics.gauges = {{"sim.queue_depth", 3, 9}};
  expect_pin("kAuditedRecord", hash_str(canonical(to_json(rec))), kAuditedRecord);
}

}  // namespace
}  // namespace pofi::spec
