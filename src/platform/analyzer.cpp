#include "platform/analyzer.hpp"

#include <utility>

#include "sim/log.hpp"

namespace pofi::platform {

Analyzer::Analyzer(sim::Simulator& simulator, blk::BlockQueue& queue, ShadowStore& shadow)
    : sim_(simulator), queue_(queue), shadow_(shadow) {}

void Analyzer::note_acked_write(workload::DataPacket packet) {
  packet.modified = true;
  state_.pending.push_back(std::move(packet));
}

void Analyzer::note_io_error(const workload::DataPacket& packet) {
  ++state_.counters.io_errors;
  FailureRecord rec;
  rec.packet_id = packet.packet_id;
  rec.type = FailureType::kIoError;
  rec.fault_index = state_.fault_index;
  rec.op = packet.op;
  state_.failures.push_back(rec);
}

void Analyzer::note_read_result(const workload::DataPacket& packet,
                                std::span<const std::uint64_t> observed) {
  for (std::size_t i = 0; i < observed.size(); ++i) {
    if (!shadow_.acceptable(packet.address + i, observed[i])) {
      ++state_.counters.read_mismatches;
      return;
    }
  }
}

void Analyzer::verify_pending(sim::TimePoint fault_time, std::uint32_t fault_index,
                              std::function<void()> done) {
  state_.fault_time = fault_time;
  state_.fault_index = fault_index;
  done_ = std::move(done);
  verifying_ = true;
  verify_next();
}

void Analyzer::verify_next() {
  // Skip packets that were superseded by later ACKed writes: their payload
  // is legitimately gone and cannot be verified any more.
  while (!state_.pending.empty()) {
    const workload::DataPacket& p = state_.pending.front();
    bool superseded = false;
    for (std::size_t i = 0; i < p.page_tags.size(); ++i) {
      if (shadow_.expected(p.address + i) != p.page_tags[i]) {
        superseded = true;
        break;
      }
    }
    if (!superseded) break;
    ++state_.counters.superseded_skipped;
    state_.pending.pop_front();
  }

  if (state_.pending.empty()) {
    verifying_ = false;
    if (done_) {
      auto cb = std::move(done_);
      done_ = nullptr;
      cb();
    }
    return;
  }

  workload::DataPacket packet = std::move(state_.pending.front());
  state_.pending.pop_front();
  queue_.submit_read(
      packet.address, packet.size_pages,
      [this, packet = std::move(packet)](blk::RequestOutcome out) {
        if (out.status == blk::IoStatus::kOk) {
          classify(packet, out.read_contents);
        } else {
          // Device fell over during verification (should not happen in a
          // normal campaign); count it as an IO error and move on.
          note_io_error(packet);
        }
        verify_next();
      });
}

void Analyzer::classify(const workload::DataPacket& packet,
                        std::span<const std::uint64_t> observed) {
  std::uint32_t garbage = 0;
  std::uint32_t reverted = 0;
  std::uint32_t intact = 0;
  for (std::size_t i = 0; i < packet.size_pages && i < observed.size(); ++i) {
    const std::uint64_t seen = observed[i];
    if (seen == packet.page_tags[i]) {  // durable and correct
      ++intact;
      continue;
    }
    if (seen == packet.initial_page_tags[i]) {
      ++reverted;
    } else {
      ++garbage;
    }
    shadow_.observe(packet.address + i, seen);
  }

  const double delta_ms = (state_.fault_time - packet.complete_time).to_ms();
  // Request-level classification, as the paper's checksum triple does it:
  // the read-back checksum equals the payload (ok), equals the pre-request
  // contents (FWA / notApplied), or equals neither — including *partially
  // applied* requests — which is a data failure.
  if (garbage > 0 || (reverted > 0 && intact > 0)) {
    ++state_.counters.data_failures;
    FailureRecord rec;
    rec.packet_id = packet.packet_id;
    rec.type = FailureType::kDataFailure;
    rec.fault_index = state_.fault_index;
    rec.ack_to_fault_ms = delta_ms;
    rec.pages_garbage = garbage;
    rec.pages_reverted = reverted;
    rec.op = packet.op;
    state_.failures.push_back(rec);
  } else if (reverted > 0) {
    ++state_.counters.fwa_failures;
    FailureRecord rec;
    rec.packet_id = packet.packet_id;
    rec.type = FailureType::kFwa;
    rec.fault_index = state_.fault_index;
    rec.ack_to_fault_ms = delta_ms;
    rec.pages_reverted = reverted;
    rec.op = packet.op;
    state_.failures.push_back(rec);
  } else {
    ++state_.counters.verified_ok;
  }
}

}  // namespace pofi::platform
