#include "spec/checkpoint.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>

#include "spec/fields.hpp"

namespace pofi::spec {

namespace {

constexpr double kDoubleLo = -1e300;
constexpr double kDoubleHi = 1e300;

}  // namespace

template <>
struct Fields<platform::FailureRecord> {
  static constexpr const char* kContext = "failure record";
  static void list(auto& r, auto& f) {
    f.uint("packet_id", r.packet_id);
    f.choice("type", r.type,
             {platform::FailureType::kDataFailure, platform::FailureType::kFwa,
              platform::FailureType::kIoError});
    f.uint("fault_index", r.fault_index);
    f.real("ack_to_fault_ms", r.ack_to_fault_ms, kDoubleLo, kDoubleHi);
    f.uint("pages_garbage", r.pages_garbage);
    f.uint("pages_reverted", r.pages_reverted);
    f.choice("op", r.op, {workload::OpType::kRead, workload::OpType::kWrite});
  }
};

template <>
struct Fields<platform::ExperimentResult> {
  static constexpr const char* kContext = "experiment result";
  static void list(auto& r, auto& f) {
    f.text("name", r.name);
    f.uint("requests_submitted", r.requests_submitted);
    f.uint("write_acks", r.write_acks);
    f.uint("reads_completed", r.reads_completed);
    f.uint("faults_injected", r.faults_injected);
    f.uint("data_failures", r.data_failures);
    f.uint("fwa_failures", r.fwa_failures);
    f.uint("io_errors", r.io_errors);
    f.uint("verified_ok", r.verified_ok);
    f.uint("read_mismatches", r.read_mismatches);
    f.real("requested_iops", r.requested_iops, kDoubleLo, kDoubleHi);
    f.real("responded_iops", r.responded_iops, kDoubleLo, kDoubleHi);
    f.real("mean_latency_us", r.mean_latency_us, kDoubleLo, kDoubleHi);
    f.real("max_latency_us", r.max_latency_us, kDoubleLo, kDoubleHi);
    f.real("active_seconds", r.active_seconds, kDoubleLo, kDoubleHi);
    f.real("sim_seconds", r.sim_seconds, kDoubleLo, kDoubleHi);
    f.uint("cache_dirty_lost", r.cache_dirty_lost);
    f.uint("interrupted_programs", r.interrupted_programs);
    f.uint("paired_page_upsets", r.paired_page_upsets);
    f.uint("map_updates_reverted", r.map_updates_reverted);
    f.uint("uncorrectable_reads", r.uncorrectable_reads);
    // Only torture runs produce violations; omitting the zero keeps ordinary
    // checkpoints byte-identical to pre-torture ones.
    f.omit_if(r.audit_violations == 0).uint("audit_violations", r.audit_violations);
    f.list("failures", r.failures);
    // Telemetry rides along only when collected: metrics-off checkpoints stay
    // byte-identical to pre-obs ones, and resume across the two modes works.
    f.omit_if(r.metrics.empty()).nested("metrics", r.metrics, snapshot_from_json);
  }
};

template <>
struct Fields<CheckpointRecord> {
  static constexpr const char* kContext = "checkpoint record";
  static void list(auto& r, auto& f) {
    f.hash("spec", r.spec_hash);
    f.uint("entry", r.entry_index);
    f.uint("seed", r.seed);
    f.text("label", r.label);
    f.choice("status", r.status, runner::kCampaignStatuses);
    f.uint("attempts", r.attempts);
    f.real("wall_seconds", r.wall_seconds, 0.0, kDoubleHi);
    f.required().nested("result", r.result, result_from_json);
  }
};

Value to_json(const platform::ExperimentResult& r) { return write_fields(r); }

platform::ExperimentResult result_from_json(const Value& v) {
  platform::ExperimentResult r;
  apply_fields(r, v);
  return r;
}

Value to_json(const CheckpointRecord& rec) { return write_fields(rec); }

CheckpointRecord checkpoint_record_from_json(const Value& v) {
  CheckpointRecord rec;
  apply_fields(rec, v);
  return rec;
}

CheckpointFile load_checkpoint(const std::string& path) {
  CheckpointFile out;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    if (errno == ENOENT) return out;  // first run: nothing checkpointed yet
    throw Error("cannot read checkpoint file " + path + ": " + std::strerror(errno), 0, 0);
  }
  std::string line;
  std::size_t line_no = 0;
  std::size_t last_bad = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      out.records.push_back(checkpoint_record_from_json(parse(line)));
    } catch (const Error& e) {
      ++out.malformed_lines;
      last_bad = line_no;
      std::fprintf(stderr,
                   "[checkpoint] warning: %s:%zu unparseable record (%s); entry will re-run\n",
                   path.c_str(), line_no, e.what());
    }
  }
  out.truncated_tail = out.malformed_lines > 0 && last_bad == line_no;
  return out;
}

CheckpointWriter::CheckpointWriter(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    throw Error("cannot open checkpoint file " + path + ": " + std::strerror(errno), 0, 0);
  }
}

CheckpointWriter::~CheckpointWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void CheckpointWriter::append(const CheckpointRecord& rec) {
  // Render first, then hand the OS the whole line at once: a concurrent
  // reader (or a kill between appends) sees only whole records plus at most
  // one truncated tail — never an interleaving.
  const std::string line = canonical(to_json(rec)) + "\n";
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0) {
    throw Error("checkpoint append failed for " + path_ + ": " + std::strerror(errno), 0, 0);
  }
}

}  // namespace pofi::spec
