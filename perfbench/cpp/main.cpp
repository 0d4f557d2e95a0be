// perfbench benchmark binary: runs one workload through the same public path
// pofi_run uses and prints one JSON object of raw measurements.
//
//   perfbench --spec FILE --kind campaign|torture [--set PATH=VALUE]...
//             [--entries I,J,...] [--seed N] [--passes P] [--seconds S]
//             [--metrics 0|1] [--spans FILE]
//
// Set-up (timed once, cold, as pofi_run pays it): parse the spec, apply the
// overrides, expand it (spec::load_campaign / torture::load_torture) and
// build the first device stack. Then P passes run back to back —
// spec::run_campaign for a campaign, torture::explore for a crash sweep;
// --passes 0 only times the set-up. --seconds S runs those P passes in
// rounds, in the same order, for about S seconds: at least two rounds, and a
// further round only while the time spent so far plus the last round's time
// stays within S. Each input is thus timed at points spread over the run, so
// a host slowdown shorter than the run misses at least one of them; the host
// sets how many rounds fit, never which inputs run. Without --seconds, one
// round. Every pass digests its simulated results so the caller can check
// them, and a repeated input must reproduce its first digest.
//
// --seed 0 runs every pass on the spec's own seeds. Any other seed N gives
// pass k (in every round) the seed S = sim::derive_seed(N, k); entry i of
// the spec then runs on sim::derive_seed(S, i), and a crash sweep on S. A
// run thus covers P input sets, and the same (N, P) always gives the same
// inputs.
// --metrics turns on per-entry telemetry so obs counters can be reported
// (campaigns only: the torture explorer exports no per-shard telemetry).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "platform/test_platform.hpp"
#include "runner/progress.hpp"
#include "sim/rng.hpp"
#include "spec/campaign.hpp"
#include "spec/checkpoint.hpp"
#include "spec/value.hpp"
#include "torture/explorer.hpp"
#include "torture/torture_spec.hpp"
#include "trace.hpp"

namespace {

using namespace pofi;
using perfbench::trace::Layer;
using perfbench::trace::Span;

// Rounds a timed run (--seconds) makes at the least: each input is timed
// twice or more.
constexpr std::uint32_t kMinRounds = 2;

struct Options {
  std::string spec_path;
  bool torture = false;
  std::vector<std::string> sets;
  std::vector<std::size_t> entries;  // empty keeps every entry
  std::uint64_t seed = 0;
  std::uint32_t passes = 1;
  double seconds = 0.0;  // 0: one round
  bool metrics = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::exit(2);
}

std::vector<std::size_t> parse_list(const std::string& s) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = std::min(s.find(',', pos), s.size());
    out.push_back(std::stoul(s.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return out;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--spec") o.spec_path = v;
    else if (a == "--kind") o.torture = v == "torture";
    else if (a == "--set") o.sets.push_back(v);
    else if (a == "--entries") o.entries = parse_list(v);
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--passes") o.passes = static_cast<std::uint32_t>(std::stoul(v));
    else if (a == "--seconds") o.seconds = std::stod(v);
    else if (a == "--metrics") o.metrics = v == "1";
    else if (a == "--spans") o.spans_path = v;
    else usage(("unknown flag " + a).c_str());
  }
  if (o.spec_path.empty()) usage("--spec is required");
  if (!(o.seconds >= 0.0)) usage("--seconds must be non-negative");
  return o;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// --set PATH=VALUE, parsed like pofi_run's: JSON when it parses, else a
/// bare string.
void apply_set(spec::Value& doc, const std::string& kv) {
  const auto eq = kv.find('=');
  if (eq == std::string::npos || eq == 0) usage(("--set expects PATH=VALUE: " + kv).c_str());
  spec::Value value;
  try {
    value = spec::parse(kv.substr(eq + 1));
  } catch (const spec::Error&) {
    value = spec::Value(kv.substr(eq + 1));
  }
  doc.set_path(kv.substr(0, eq), std::move(value));
}

/// The loaded workload: exactly one of campaign/sweep is set.
struct Workload {
  std::optional<spec::CampaignSpec> campaign;
  std::vector<std::size_t> entry_index;  // position of each kept entry in the spec
  std::optional<torture::TortureConfig> sweep;
};

Workload load(const Options& o) {
  spec::Value doc = spec::parse_file(o.spec_path);
  for (const auto& kv : o.sets) apply_set(doc, kv);
  Workload w;
  if (o.torture) {
    torture::TortureConfig cfg = torture::load_torture(doc);
    cfg.runner.threads = 1;
    w.sweep = std::move(cfg);
    return w;
  }
  spec::CampaignSpec campaign = spec::load_campaign(doc);
  if (o.entries.empty()) {
    for (std::size_t i = 0; i < campaign.entries.size(); ++i) w.entry_index.push_back(i);
  } else {
    std::vector<spec::CampaignEntry> kept;
    for (const std::size_t i : o.entries) {
      if (i >= campaign.entries.size()) usage("--entries index out of range");
      kept.push_back(campaign.entries[i]);
    }
    campaign.entries = std::move(kept);
    w.entry_index = o.entries;
  }
  campaign.runner.threads = 1;
  w.campaign = std::move(campaign);
  return w;
}

/// Seeds of pass `pass` (see the header comment); seed 0 keeps the spec's.
void seed_pass(Workload& w, std::uint64_t seed, std::uint32_t pass) {
  if (seed == 0) return;
  const std::uint64_t pass_seed = sim::derive_seed(seed, pass);
  if (w.sweep) {
    w.sweep->seed = pass_seed;
    return;
  }
  for (std::size_t j = 0; j < w.campaign->entries.size(); ++j) {
    w.campaign->entries[j].experiment.seed = sim::derive_seed(pass_seed, w.entry_index[j]);
  }
}

/// First device stack the workload builds.
std::unique_ptr<platform::TestPlatform> build_stack(const Workload& w) {
  if (w.sweep) {
    return std::make_unique<platform::TestPlatform>(w.sweep->drive, w.sweep->platform,
                                                    w.sweep->seed);
  }
  const spec::CampaignEntry& e = w.campaign->entries.front();
  return std::make_unique<platform::TestPlatform>(e.drive, e.platform, e.experiment.seed);
}

std::string result_digest(platform::ExperimentResult r) {
  r.metrics = {};  // telemetry is passive and excluded from the digest
  return spec::hash_string(spec::content_hash(spec::to_json(r)));
}

void add_counters(spec::Value& into, const obs::Snapshot& snap) {
  for (const auto& c : snap.counters) {
    const spec::Value* have = into.find(c.name);
    into.set(c.name, (have != nullptr ? have->as_uint() : 0) + c.value);
  }
}

spec::Value layers_json(const perfbench::trace::Table& table) {
  spec::Value out = spec::Value::object();
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto& t = table[i];
    if (t.calls == 0) continue;
    spec::Value v = spec::Value::object();
    v.set("calls", t.calls);
    v.set("self_s", static_cast<double>(t.self_ns) * 1e-9);
    out.set(perfbench::trace::name(static_cast<Layer>(i)), std::move(v));
  }
  return out;
}

spec::Value run_campaign_pass(const spec::CampaignSpec& campaign, bool metrics) {
  spec::RunCampaignOptions opt;
  opt.collect_metrics = metrics;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<runner::CampaignRunner::Outcome> outcomes;
  {
    const Span span(Layer::kRunnerCampaign);
    outcomes = spec::run_campaign(campaign, opt);
  }
  const double wall = seconds_since(t0);

  spec::Value pass = spec::Value::object();
  spec::Value digests = spec::Value::array();
  spec::Value counters = spec::Value::object();
  std::uint64_t faults = 0;
  std::uint64_t failed = 0;
  std::uint64_t attempts = 0;
  double entry_wall = 0.0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& out = outcomes[i];
    const bool finished = runner::is_success(out.status);
    // An entry fails unless it finished and injected every fault it asked for.
    if (!finished || out.result.faults_injected != campaign.entries[i].experiment.faults) {
      ++failed;
    }
    attempts += out.attempts;
    entry_wall += out.wall_seconds;
    if (finished) faults += out.result.faults_injected;
    digests.push_back(finished ? result_digest(out.result) : runner::to_string(out.status));
    add_counters(counters, out.result.metrics);
  }
  pass.set("wall_s", wall);
  pass.set("ops", static_cast<std::uint64_t>(outcomes.size()));
  pass.set("failed", failed);
  pass.set("faults", faults);
  pass.set("attempts", attempts);
  pass.set("runner_overhead_s", wall - entry_wall);
  pass.set("digest", spec::hash_string(spec::content_hash(digests)));
  pass.set("op_digests", std::move(digests));
  pass.set("counters", std::move(counters));
  return pass;
}

spec::Value run_sweep_pass(const torture::TortureConfig& cfg) {
  const auto t0 = std::chrono::steady_clock::now();
  std::optional<torture::ExploreReport> report;
  {
    const Span span(Layer::kTortureExplore);
    report = torture::explore(cfg);
  }
  const double wall = seconds_since(t0);

  // Failed crash points: each boundary with a violation (the sweep is run
  // with intact recovery, so the verdict must be clean), plus every point
  // of a shard that did not finish.
  std::uint64_t failed = report->findings.size();
  std::uint64_t attempts = 0;
  double shard_wall = 0.0;
  spec::Value shards = spec::Value::array();
  for (const auto& out : report->outcomes) {
    attempts += out.attempts;
    shard_wall += out.wall_seconds;
    if (!runner::is_success(out.status) && out.status != runner::CampaignStatus::kAuditFailed) {
      failed += cfg.shard_points;
    }
    shards.push_back(std::string(runner::to_string(out.status)) + ":" +
                     result_digest(out.result));
  }
  failed = std::min(failed, std::max<std::uint64_t>(report->points_explored, 1));

  spec::Value verdict = spec::Value::object();
  verdict.set("schedule_events", report->schedule_events);
  verdict.set("points_planned", report->points_planned);
  verdict.set("points_explored", report->points_explored);
  verdict.set("points_injected", report->points_injected);
  verdict.set("total_violations", report->total_violations);
  spec::Value findings = spec::Value::array();
  for (const auto& f : report->findings) {
    for (const auto& v : f.report.violations) {
      spec::Value fv = spec::Value::object();
      fv.set("boundary", f.boundary);
      fv.set("kind", torture::to_string(v.kind));
      fv.set("lpn", v.lpn);
      fv.set("ppn", v.ppn);
      fv.set("block", v.block);
      fv.set("detail", v.detail);
      findings.push_back(std::move(fv));
    }
  }
  verdict.set("findings", std::move(findings));
  verdict.set("shards", std::move(shards));

  spec::Value pass = spec::Value::object();
  pass.set("wall_s", wall);
  pass.set("ops", report->points_explored);
  pass.set("failed", failed);
  pass.set("faults", report->points_injected);
  pass.set("attempts", attempts);
  pass.set("runner_overhead_s", wall - shard_wall);
  pass.set("digest", spec::hash_string(spec::content_hash(verdict)));
  pass.set("schedule_events", report->schedule_events);
  pass.set("points_planned", report->points_planned);
  return pass;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    Workload w;
    const auto t0 = std::chrono::steady_clock::now();
    {
      const Span span(Layer::kSpecLoad);
      w = load(o);
    }
    const double load_s = seconds_since(t0);
    double setup_s = 0.0;
    {
      const auto stack = build_stack(w);
      setup_s = seconds_since(t0);  // the stack's teardown is not set-up
    }

    spec::Value out = spec::Value::object();
    out.set("setup_s", setup_s);
    out.set("spec_load_s", load_s);
    // Spans and counters of the set-up phase are not reported.
    (void)perfbench::trace::take();
    (void)perfbench::trace::take_counters();

    spec::Value passes = spec::Value::array();
    // One round; with --seconds, kMinRounds and then one more while the time
    // spent plus the last round's time stays within it.
    const auto run_start = std::chrono::steady_clock::now();
    double round_s = 0.0;
    for (std::uint32_t r = 0; o.passes > 0; ++r) {
      if (r > 0 && (o.seconds == 0.0 ||
                    (r >= kMinRounds && seconds_since(run_start) + round_s > o.seconds))) {
        break;
      }
      const auto round_start = std::chrono::steady_clock::now();
      for (std::uint32_t n = 0; n < o.passes; ++n) {
        seed_pass(w, o.seed, n);
        const std::uint64_t allocs0 = perfbench::allocations();
        spec::Value pass =
            w.sweep ? run_sweep_pass(*w.sweep) : run_campaign_pass(*w.campaign, o.metrics);
        pass.set("input", n);
        pass.set("allocs", perfbench::allocations() - allocs0);
        pass.set("layers", layers_json(perfbench::trace::take()));
        const auto counters = perfbench::trace::take_counters();
        pass.set("events", counters.events);
        pass.set("nand_programs", counters.nand_programs);
        pass.set("host_pages_written", counters.host_pages_written);
        pass.set("por_oob_reads", counters.por_oob_reads);
        passes.push_back(std::move(pass));
      }
      round_s = seconds_since(round_start);
    }
    out.set("passes", std::move(passes));
    out.set("peak_rss_mib", peak_rss_mib());
    if (!o.spans_path.empty() && !perfbench::trace::write_raw_spans(o.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", o.spans_path.c_str());
      return 1;
    }
    std::printf("%s\n", spec::dump(out).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
