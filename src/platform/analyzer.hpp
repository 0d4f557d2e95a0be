// The Analyzer of the paper's software part.
//
// Consumes request outcomes from the IO generator, keeps the set of
// ACKed-but-not-yet-verified write packets, and after every power cycle
// reads each of them back through the full device stack, comparing content
// tags against the shadow store. Classification follows §III-B exactly:
//
//   completed=1, notApplied=1  ->  FWA   (old data still at the address)
//   completed=1, notApplied=0, checksum mismatch -> data failure
//   completed=0                ->  IO error
//
// A packet with any page that is neither its payload nor the pre-request
// contents is a data failure; all-pages-reverted is an FWA.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "blk/queue.hpp"
#include "platform/shadow_store.hpp"
#include "sim/simulator.hpp"
#include "workload/data_packet.hpp"

namespace pofi::platform {

enum class FailureType : std::uint8_t { kDataFailure, kFwa, kIoError };

[[nodiscard]] constexpr const char* to_string(FailureType t) {
  switch (t) {
    case FailureType::kDataFailure: return "data-failure";
    case FailureType::kFwa: return "FWA";
    case FailureType::kIoError: return "io-error";
  }
  return "?";
}

struct FailureRecord {
  std::uint64_t packet_id = 0;
  FailureType type = FailureType::kDataFailure;
  std::uint32_t fault_index = 0;
  /// ACK-to-fault interval (ms); negative when the packet never ACKed.
  double ack_to_fault_ms = -1.0;
  std::uint32_t pages_garbage = 0;
  std::uint32_t pages_reverted = 0;
  workload::OpType op = workload::OpType::kWrite;
};

struct AnalyzerCounters {
  std::uint64_t data_failures = 0;
  std::uint64_t fwa_failures = 0;
  std::uint64_t io_errors = 0;
  std::uint64_t verified_ok = 0;
  std::uint64_t superseded_skipped = 0;
  std::uint64_t read_mismatches = 0;  ///< live reads that saw wrong data
};

class Analyzer {
 public:
  Analyzer(sim::Simulator& simulator, blk::BlockQueue& queue, ShadowStore& shadow);

  // --- Fed by the IO generator ----------------------------------------------
  /// A write was ACKed; packet enters the pending-verification set.
  void note_acked_write(workload::DataPacket packet);
  /// A request failed (device unavailable / timeout): IO error.
  void note_io_error(const workload::DataPacket& packet);
  /// A live read returned data; cross-check against the shadow store.
  void note_read_result(const workload::DataPacket& packet,
                        std::span<const std::uint64_t> observed);

  // --- Post-power-cycle verification ----------------------------------------
  /// Read back every pending packet and classify. The device must be ready.
  /// `done` fires when the whole pending set has been processed.
  void verify_pending(sim::TimePoint fault_time, std::uint32_t fault_index,
                      std::function<void()> done);
  [[nodiscard]] bool verification_running() const { return verifying_; }

  [[nodiscard]] const AnalyzerCounters& counters() const { return state_.counters; }
  [[nodiscard]] const std::vector<FailureRecord>& failures() const { return state_.failures; }
  [[nodiscard]] std::size_t pending_packets() const { return state_.pending.size(); }

  /// Snapshot precondition: no verification pass in flight.
  [[nodiscard]] bool quiescent() const { return !verifying_; }

  struct StateImage {
    std::deque<workload::DataPacket> pending;  ///< ACKed, not yet verified
    sim::TimePoint fault_time;
    std::uint32_t fault_index = 0;
    AnalyzerCounters counters;
    std::vector<FailureRecord> failures;
  };
  void snapshot(StateImage& out) const { out = state_; }
  void restore(const StateImage& image) {
    state_ = image;
    verifying_ = false;
    done_ = nullptr;
  }
  /// Session reset: drop pending packets, verification state, counters and
  /// the failure log; container capacities are retained.
  void reset() {
    state_ = pristine_;
    verifying_ = false;
    done_ = nullptr;
  }

 private:
  void verify_next();
  void classify(const workload::DataPacket& packet, std::span<const std::uint64_t> observed);

  sim::Simulator& sim_;
  blk::BlockQueue& queue_;
  ShadowStore& shadow_;

  StateImage state_;
  const StateImage pristine_;  ///< see sim/state_image.hpp
  bool verifying_ = false;
  std::function<void()> done_;
};

}  // namespace pofi::platform
