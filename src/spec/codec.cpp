#include "spec/codec.hpp"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <string_view>

#include "spec/fields.hpp"

namespace pofi::spec {

namespace {

[[noreturn]] void fail(const Value& v, const std::string& key, const std::string& msg) {
  throw Error(msg, v.line, v.col, key);
}

// Largest duration (in ms) that stays exactly representable through the
// double <-> ns round trip: ~2^53 ns ≈ 104 simulated days.
constexpr double kMaxDurationMs = 9.0e9;

void check_thresholds(const ssd::SsdConfig& cfg, const Value& v) {
  if (cfg.brownout_volts < cfg.cutoff_volts) {
    fail(v, "brownout_volts", "brownout threshold must not be below the cutoff voltage");
  }
}

}  // namespace

// --- typed readers ----------------------------------------------------------

void for_each_member(const Value& v, const std::string& context,
                     const std::function<bool(const std::string&, const Value&)>& handler) {
  if (!v.is_object()) {
    throw Error("expected an object", v.line, v.col, context);
  }
  for (const auto& [key, member] : v.members()) {
    if (!handler(key, member)) {
      throw Error("unknown key in " + context, member.line, member.col, key);
    }
  }
}

bool read_bool(const Value& v, const std::string& key) {
  if (!v.is_bool()) fail(v, key, "expected true or false");
  return v.as_bool();
}

std::uint64_t read_u64(const Value& v, const std::string& key, std::uint64_t lo,
                       std::uint64_t hi) {
  if (v.kind() != Value::Kind::kUInt) {
    fail(v, key, "expected a non-negative integer");
  }
  const std::uint64_t u = v.as_uint();
  if (u < lo || u > hi) {
    fail(v, key,
         "value " + std::to_string(u) + " out of range [" + std::to_string(lo) + ", " +
             std::to_string(hi) + "]");
  }
  return u;
}

std::uint32_t read_u32(const Value& v, const std::string& key, std::uint64_t lo,
                       std::uint64_t hi) {
  return static_cast<std::uint32_t>(read_u64(v, key, lo, hi));
}

double read_double(const Value& v, const std::string& key, double lo, double hi) {
  if (!v.is_number()) fail(v, key, "expected a number");
  const double d = v.as_double();
  if (std::isnan(d) || d < lo || d > hi) {
    fail(v, key,
         "value " + std::to_string(d) + " out of range [" + std::to_string(lo) + ", " +
             std::to_string(hi) + "]");
  }
  return d;
}

std::string read_string(const Value& v, const std::string& key) {
  if (!v.is_string()) fail(v, key, "expected a string");
  return v.as_string();
}

sim::Duration read_duration_ms(const Value& v, const std::string& key) {
  const double ms = read_double(v, key, 0.0, kMaxDurationMs);
  return sim::Duration::ns(std::llround(ms * 1e6));
}

sim::Duration read_duration_us(const Value& v, const std::string& key) {
  const double us = read_double(v, key, 0.0, kMaxDurationMs * 1e3);
  return sim::Duration::ns(std::llround(us * 1e3));
}

std::uint64_t read_content_hash(const Value& v, const std::string& key) {
  const std::string s = read_string(v, key);
  constexpr std::string_view kPrefix = "fnv1a:";
  if (s.size() != kPrefix.size() + 16 || s.rfind(kPrefix, 0) != 0) {
    fail(v, key, "expected a \"fnv1a:<16 hex>\" content hash");
  }
  char* end = nullptr;
  const std::uint64_t hash = std::strtoull(s.c_str() + kPrefix.size(), &end, 16);
  if (end == nullptr || *end != '\0') fail(v, key, "malformed content hash \"" + s + "\"");
  return hash;
}

double duration_to_ms(sim::Duration d) {
  return static_cast<double>(d.count_ns()) / 1e6;
}

double duration_to_us(sim::Duration d) {
  return static_cast<double>(d.count_ns()) / 1e3;
}

// --- field lists ------------------------------------------------------------

const std::uint64_t kDefaultSeed = platform::ExperimentSpec{}.seed;

constexpr ftl::MappingPolicy kMappingPolicies[] = {ftl::MappingPolicy::kPageLevel,
                                                   ftl::MappingPolicy::kHybridExtent};

template <>
struct Fields<workload::RequestSpec> {
  static constexpr const char* kContext = "replay entry";
  static void list(auto& r, auto& f) {
    f.choice("op", r.op, {workload::OpType::kRead, workload::OpType::kWrite});
    f.uint("lpn", r.lpn);
    f.uint("pages", r.pages, 1);
  }
};

template <>
struct Fields<workload::WorkloadConfig> {
  static constexpr const char* kContext = "workload config";
  static void list(auto& c, auto& f) {
    f.text("name", c.name);
    f.uint("wss_pages", c.wss_pages, 1);
    f.uint("base_lpn", c.base_lpn);
    f.uint("min_pages", c.min_pages, 1);
    f.uint("max_pages", c.max_pages, 1);
    f.real("write_fraction", c.write_fraction, 0.0, 1.0);
    f.choice("pattern", c.pattern,
             {workload::AccessPattern::kUniformRandom, workload::AccessPattern::kSequential});
    f.choice("sequence", c.sequence,
             {workload::SequenceMode::kNone, workload::SequenceMode::kRAR,
              workload::SequenceMode::kRAW, workload::SequenceMode::kWAR,
              workload::SequenceMode::kWAW});
    f.real("target_iops", c.target_iops, 0.0, 1e9);
    f.omit_if(c.replay.empty()).list("replay", c.replay);
  }
};

template <>
struct Fields<nand::Geometry> {
  static constexpr const char* kContext = "nand geometry";
  static void list(auto& g, auto& f) {
    f.uint("page_size_bytes", g.page_size_bytes, 512);
    f.uint("pages_per_block", g.pages_per_block, 1);
    f.uint("blocks_per_plane", g.blocks_per_plane, 1);
    f.uint("planes", g.planes, 1, 64);
  }
};

template <>
struct Fields<nand::NandChip::Config> {
  static constexpr const char* kContext = "nand chip config";
  static void list(auto& c, auto& f) {
    f.nested("geometry", c.geometry);
    f.choice("tech", c.tech, {nand::CellTech::kSlc, nand::CellTech::kMlc, nand::CellTech::kTlc});
    f.choice("ecc", c.ecc, {nand::EccKind::kNone, nand::EccKind::kBch, nand::EccKind::kLdpc});
    f.uint("endurance_pe_cycles", c.endurance_pe_cycles, 1);
    f.uint("initial_pe_cycles", c.initial_pe_cycles);
    f.flag("enforce_program_order", c.enforce_program_order);
  }
};

template <>
struct Fields<ftl::Ftl::Config> {
  static constexpr const char* kContext = "ftl config";
  static void list(auto& c, auto& f) {
    f.choice("mapping_policy", c.mapping_policy, kMappingPolicies);
    f.ms("journal_interval_ms", c.journal_interval);
    f.uint("journal_batch_threshold", c.journal_batch_threshold, 1);
    f.uint("gc_low_watermark", c.gc_low_watermark, 1);
    f.uint("extent_frame_pages", c.extent_frame_pages, 1);
    f.uint("extent_min_fill", c.extent_min_fill, 1);
    f.flag("map_update_on_issue", c.map_update_on_issue);
    f.uint("lpn_capacity", c.lpn_capacity);
    f.flag("por_scan", c.por_scan);
  }
};

template <>
struct Fields<ssd::WriteCache::Config> {
  static constexpr const char* kContext = "write cache config";
  static void list(auto& c, auto& f) {
    f.uint("capacity_pages", c.capacity_pages, 1);
    f.ms("hold_time_ms", c.hold_time);
    f.uint("flush_ways", c.flush_ways, 1);
    f.real("high_watermark", c.high_watermark, 0.01, 1.0);
    f.uint("flush_scramble_window", c.flush_scramble_window, 1);
  }
};

template <>
struct Fields<ssd::SsdConfig> {
  static constexpr const char* kContext = "ssd config";
  static void list(auto& c, auto& f) {
    f.text("model", c.model);
    f.uint("channels", c.channels, 1, 64);
    f.nested("chip", c.chip);
    f.nested("ftl", c.ftl);
    f.nested("cache", c.cache);
    f.flag("cache_enabled", c.cache_enabled);
    f.flag("plp", c.plp);
    f.ms("plp_hold_ms", c.plp_hold);
    f.real("load_amps", c.load_amps, 0.001, 100.0);
    f.real("cutoff_volts", c.cutoff_volts, 0.0, 12.0);
    f.real("brownout_volts", c.brownout_volts, 0.0, 12.0);
    f.uint("queue_depth", c.queue_depth, 1, 4096);
    f.real("link_mb_per_s", c.link_mb_per_s, 0.1, 1e6);
    f.us("command_overhead_us", c.command_overhead);
    f.ms("mount_delay_ms", c.mount_delay);
    f.uint("capacity_gb", c.capacity_gb, 1);
    f.text("interface", c.interface_name);
    f.uint("release_year", c.release_year, 0, 3000);
  }
};

/// The preset-only knobs of the drive's preset form (see drive_from_json).
template <>
struct Fields<ssd::PresetOptions> {
  static constexpr const char* kContext = "drive preset";
  static void list(auto& o, auto& f) {
    f.flag("cache_enabled", o.cache_enabled);
    f.flag("plp", o.plp);
    f.flag("por_scan", o.por_scan);
    f.uint("preage_pe_cycles", o.preage_pe_cycles);
    f.choice("mapping_policy", o.mapping_policy, kMappingPolicies);
    f.uint("capacity_gb", o.capacity_override_gb, 1);
  }
};

template <>
struct Fields<psu::PowerSupply::Params> {
  static constexpr const char* kContext = "psu params";
  static void list(auto& p, auto& f) {
    f.real("nominal_volts", p.nominal_volts, 0.1, 48.0);
    f.ms("rise_time_ms", p.rise_time);
  }
};

template <>
struct Fields<psu::ArduinoBridge::Params> {
  static constexpr const char* kContext = "arduino params";
  static void list(auto& p, auto& f) {
    f.us("command_latency_us", p.command_latency);
    f.us("jitter_us", p.jitter);
  }
};

template <>
struct Fields<blk::BlockQueue::Config> {
  static constexpr const char* kContext = "block queue config";
  static void list(auto& c, auto& f) {
    f.uint("max_pages_per_subrequest", c.max_pages_per_subrequest, 1);
    f.ms("request_timeout_ms", c.request_timeout);
  }
};

template <>
struct Fields<platform::PlatformConfig> {
  static constexpr const char* kContext = "platform config";
  static void list(auto& c, auto& f) {
    f.choice("discharge", c.discharge,
             {psu::DischargeKind::kPowerLaw, psu::DischargeKind::kExponential,
              psu::DischargeKind::kInstant});
    f.nested("psu", c.psu);
    f.nested("arduino", c.arduino);
    f.nested("block_queue", c.block_queue);
    f.ms("post_fault_dwell_ms", c.post_fault_dwell);
    f.uint("closed_loop_depth", c.closed_loop_depth, 1, 4096);
    f.us("think_time_us", c.think_time);
    f.flag("trace_enabled", c.trace_enabled);
    f.flag("metrics", c.metrics);
    f.uint("max_sim_events", c.max_sim_events);
  }
};

template <>
struct Fields<platform::ExperimentSpec> {
  static constexpr const char* kContext = "experiment spec";
  static void list(auto& s, auto& f) {
    f.text("name", s.name);
    f.nested("workload", s.workload);
    f.uint("total_requests", s.total_requests, 1);
    f.uint("faults", s.faults, 1);
    f.choice("mode", s.mode,
             {platform::FaultMode::kRandomDuringWorkload,
              platform::FaultMode::kFixedDelayAfterAck});
    f.ms("post_ack_delay_ms", s.post_ack_delay);
    f.ms("fault_jitter_ms", s.fault_jitter);
    f.real("pace_iops", s.pace_iops, 0.0, 1e9);
    // Omitted at the default so a dumped campaign keeps per-entry seed
    // derivation instead of freezing the shared default (see codec.hpp).
    f.omit_if(s.seed == kDefaultSeed).uint("seed", s.seed);
  }
};

template <>
struct Fields<runner::RunnerConfig> {
  static constexpr const char* kContext = "runner config";
  static void list(auto& c, auto& f) {
    f.uint("threads", c.threads, 0, 1024);
    f.flag("fail_fast", c.fail_fast);
    f.real("campaign_timeout_seconds", c.campaign_timeout_seconds, 0.0, 1e9);
    f.uint("retry_limit", c.retry_limit, 0, 1000);
    f.real("retry_backoff_ms", c.retry_backoff_ms, 0.0, 1e9);
    f.real("retry_backoff_max_ms", c.retry_backoff_max_ms, 0.0, 1e9);
    f.uint("retry_jitter_seed", c.retry_jitter_seed);
    f.flag("session_reuse", c.session_reuse);
  }
};

// --- public codecs ----------------------------------------------------------

Value to_json(const workload::WorkloadConfig& cfg) { return write_fields(cfg); }

void apply_json(workload::WorkloadConfig& cfg, const Value& v) {
  apply_fields(cfg, v);
  if (cfg.max_pages < cfg.min_pages) {
    fail(v, "max_pages",
         "max_pages (" + std::to_string(cfg.max_pages) + ") is below min_pages (" +
             std::to_string(cfg.min_pages) + ")");
  }
  if (cfg.wss_pages < cfg.max_pages) {
    fail(v, "wss_pages",
         "working-set size (" + std::to_string(cfg.wss_pages) +
             " pages) cannot hold a max-sized request (" + std::to_string(cfg.max_pages) +
             " pages)");
  }
}

Value to_json(const nand::Geometry& g) { return write_fields(g); }
void apply_json(nand::Geometry& g, const Value& v) { apply_fields(g, v); }
Value to_json(const nand::NandChip::Config& cfg) { return write_fields(cfg); }
void apply_json(nand::NandChip::Config& cfg, const Value& v) { apply_fields(cfg, v); }
Value to_json(const ftl::Ftl::Config& cfg) { return write_fields(cfg); }
void apply_json(ftl::Ftl::Config& cfg, const Value& v) { apply_fields(cfg, v); }
Value to_json(const ssd::WriteCache::Config& cfg) { return write_fields(cfg); }
void apply_json(ssd::WriteCache::Config& cfg, const Value& v) { apply_fields(cfg, v); }
Value to_json(const ssd::SsdConfig& cfg) { return write_fields(cfg); }

void apply_json(ssd::SsdConfig& cfg, const Value& v) {
  apply_fields(cfg, v);
  check_thresholds(cfg, v);
}

ssd::SsdConfig drive_from_json(const Value& v) {
  if (!v.is_object()) {
    throw Error("expected an object", v.line, v.col, "drive");
  }
  const std::string preset_key = "preset";
  const auto& members = v.members();
  std::size_t at = 0;
  while (at < members.size() && members[at].first != preset_key) ++at;
  if (at == members.size()) {
    ssd::SsdConfig cfg;
    apply_json(cfg, v);
    return cfg;
  }
  const auto model = read_enum(members[at].second, preset_key,
                               {ssd::VendorModel::kA, ssd::VendorModel::kB, ssd::VendorModel::kC});
  // Keys that PresetOptions lists shape the preset itself; every other key
  // then overrides the built preset's SsdConfig, as in the full form.
  ssd::PresetOptions opts;
  FieldReader knobs(v, Fields<ssd::PresetOptions>::kContext,
                    at < 64 ? std::uint64_t{1} << at : 0);
  Fields<ssd::PresetOptions>::list(opts, knobs);
  ssd::SsdConfig cfg = ssd::make_preset(model, opts);
  if (static_cast<std::size_t>(std::popcount(knobs.seen())) == members.size()) {
    return cfg;  // no overrides: the preset stands as built
  }
  FieldReader overrides(v, Fields<ssd::SsdConfig>::kContext, knobs.seen());
  Fields<ssd::SsdConfig>::list(cfg, overrides);
  overrides.reject_unread();
  check_thresholds(cfg, v);
  return cfg;
}

Value to_json(const psu::PowerSupply::Params& p) { return write_fields(p); }
void apply_json(psu::PowerSupply::Params& p, const Value& v) { apply_fields(p, v); }
Value to_json(const psu::ArduinoBridge::Params& p) { return write_fields(p); }
void apply_json(psu::ArduinoBridge::Params& p, const Value& v) { apply_fields(p, v); }
Value to_json(const blk::BlockQueue::Config& cfg) { return write_fields(cfg); }
void apply_json(blk::BlockQueue::Config& cfg, const Value& v) { apply_fields(cfg, v); }
Value to_json(const platform::PlatformConfig& cfg) { return write_fields(cfg); }
void apply_json(platform::PlatformConfig& cfg, const Value& v) { apply_fields(cfg, v); }
Value to_json(const platform::ExperimentSpec& spec) { return write_fields(spec); }
void apply_json(platform::ExperimentSpec& spec, const Value& v) { apply_fields(spec, v); }
Value to_json(const runner::RunnerConfig& cfg) { return write_fields(cfg); }
void apply_json(runner::RunnerConfig& cfg, const Value& v) { apply_fields(cfg, v); }

}  // namespace pofi::spec
