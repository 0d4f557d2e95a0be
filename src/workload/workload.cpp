#include "workload/workload.hpp"

#include <algorithm>
#include <cassert>

namespace pofi::workload {

WorkloadGenerator::WorkloadGenerator(WorkloadConfig config, sim::Rng rng)
    : config_(std::move(config)), state_{.rng = rng, .seq_cursor = config_.base_lpn} {
  if (config_.replay.empty()) {
    assert(config_.min_pages >= 1 && config_.min_pages <= config_.max_pages);
    assert(config_.wss_pages >= config_.max_pages);
  }
}

std::uint32_t WorkloadGenerator::pick_pages() {
  if (config_.min_pages == config_.max_pages) return config_.min_pages;
  return static_cast<std::uint32_t>(
      state_.rng.range(config_.min_pages, config_.max_pages));
}

ftl::Lpn WorkloadGenerator::pick_lpn(std::uint32_t pages) {
  switch (config_.pattern) {
    case AccessPattern::kUniformRandom: {
      const std::uint64_t span = config_.wss_pages - pages + 1;
      return config_.base_lpn + state_.rng.below(span);
    }
    case AccessPattern::kSequential: {
      if (state_.seq_cursor + pages > config_.base_lpn + config_.wss_pages) {
        state_.seq_cursor = config_.base_lpn;  // wrap at the end of the working set
      }
      const ftl::Lpn lpn = state_.seq_cursor;
      state_.seq_cursor += pages;
      return lpn;
    }
  }
  return config_.base_lpn;
}

RequestSpec WorkloadGenerator::next() {
  ++state_.generated;
  if (!config_.replay.empty()) {
    // Trace replay: cycle through the recorded stream verbatim.
    return config_.replay[(state_.generated - 1) % config_.replay.size()];
  }
  if (state_.pair_pending) {
    state_.pair_pending = false;
    return state_.pair_second;
  }

  RequestSpec spec;
  spec.pages = pick_pages();
  spec.lpn = pick_lpn(spec.pages);

  if (config_.sequence != SequenceMode::kNone) {
    // First access of a dependent pair; the second hits the same address.
    OpType first = OpType::kRead;
    OpType second = OpType::kRead;
    switch (config_.sequence) {
      case SequenceMode::kRAR: first = OpType::kRead;  second = OpType::kRead;  break;
      case SequenceMode::kRAW: first = OpType::kWrite; second = OpType::kRead;  break;
      case SequenceMode::kWAR: first = OpType::kRead;  second = OpType::kWrite; break;
      case SequenceMode::kWAW: first = OpType::kWrite; second = OpType::kWrite; break;
      case SequenceMode::kNone: break;
    }
    spec.op = first;
    state_.pair_second = RequestSpec{second, spec.lpn, spec.pages};
    state_.pair_pending = true;
    return spec;
  }

  spec.op = state_.rng.chance(config_.write_fraction) ? OpType::kWrite : OpType::kRead;
  return spec;
}

}  // namespace pofi::workload
