#include "nand/chip.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "sim/log.hpp"

namespace pofi::nand {

NandChip::NandChip(sim::Simulator& simulator, Config config, std::string_view rng_label)
    : sim_(simulator),
      config_(config),
      timing_(timing_for(config.tech)),
      errors_(error_model_for(config.tech)),
      ecc_(make_ecc(config.ecc)),
      rng_label_(rng_label),
      planes_(config.geometry.planes) {
  pristine_.arena = BlockArena(config_.geometry, config_.initial_pe_cycles);
  reset();
  if (auto* m = sim_.metrics()) {
    obs_ispp_started_ = m->counter("nand.ispp.started");
    obs_ispp_interrupted_ = m->counter("nand.ispp.interrupted");
    obs_erase_interrupted_ = m->counter("nand.erase.interrupted");
    obs_bit_errors_ = m->counter("nand.read.bit_errors");
    obs_ecc_corrected_ = m->counter("nand.ecc.corrected");
    obs_ecc_uncorrectable_ = m->counter("nand.ecc.uncorrectable");
    obs_paired_upsets_ = m->counter("nand.paired_page.upsets");
    obs_blocks_retired_ = m->counter("nand.block.retired");
  }
}

void NandChip::clear_planes() {
  for (Plane& p : planes_) {
    p.busy.reset();
    p.queue.clear();
  }
}

void NandChip::reset() {
  state_ = pristine_;
  state_.rng = sim_.fork_rng(rng_label_);
  clear_planes();
}

double NandChip::wear_severity(BlockArena::Slot slot) const {
  // Worn cells have wider threshold-voltage distributions: the same
  // interruption or paired-page upset lands more raw errors near end of
  // life. Superlinear in wear (distribution tails fatten late in life),
  // quadrupling the damage at the endurance limit.
  const double ratio = static_cast<double>(state_.arena.erase_count(slot)) /
                       std::max(1u, config_.endurance_pe_cycles);
  return 1.0 + 3.0 * ratio * ratio;
}

const Page* NandChip::peek(Ppn ppn) const {
  const BlockArena::Slot slot = state_.arena.find(config_.geometry.block_of(ppn));
  if (slot == BlockArena::kNoSlot) return nullptr;
  peek_scratch_ = state_.arena.snapshot(slot, config_.geometry.page_in_block(ppn));
  return &peek_scratch_;
}

std::uint32_t NandChip::erase_count(BlockId b) const {
  const BlockArena::Slot slot = state_.arena.find(b);
  return slot == BlockArena::kNoSlot ? 0 : state_.arena.erase_count(slot);
}

bool NandChip::is_bad(BlockId b) const {
  const BlockArena::Slot slot = state_.arena.find(b);
  return slot != BlockArena::kNoSlot && state_.arena.bad(slot);
}

// ------------------------------------------------------------- submission

void NandChip::read(Ppn ppn, ReadCallback cb) {
  if (!state_.powered) {
    cb(ReadResult{ReadResult::Status::kPowerLost, kErasedContent, 0, 0});
    return;
  }
  InFlight op;
  op.kind = InFlight::Kind::kRead;
  op.ppn = ppn;
  op.block = config_.geometry.block_of(ppn);
  op.duration = timing_.read_page;
  op.read_cb = std::move(cb);
  enqueue(config_.geometry.plane_of(ppn), std::move(op));
}

void NandChip::program(Ppn ppn, std::uint64_t content, Oob oob, OpCallback cb) {
  if (!state_.powered) {
    cb(OpResult{OpResult::Status::kPowerLost});
    return;
  }
  InFlight op;
  op.kind = InFlight::Kind::kProgram;
  op.ppn = ppn;
  op.block = config_.geometry.block_of(ppn);
  op.content = content;
  op.oob = oob;
  const PageRole role = page_role(config_.tech, config_.geometry.page_in_block(ppn));
  op.duration = timing_.program_time(role);
  op.op_cb = std::move(cb);
  if (auto* m = sim_.metrics()) m->add(obs_ispp_started_);
  enqueue(config_.geometry.plane_of(ppn), std::move(op));
}

void NandChip::read_oob(Ppn ppn, OobCallback cb) {
  if (!state_.powered) {
    cb(OobResult{});
    return;
  }
  InFlight op;
  op.kind = InFlight::Kind::kReadOob;
  op.ppn = ppn;
  op.block = config_.geometry.block_of(ppn);
  op.duration = timing_.read_page;
  op.oob_cb = std::move(cb);
  enqueue(config_.geometry.plane_of(ppn), std::move(op));
}

void NandChip::erase(BlockId block, OpCallback cb) {
  if (!state_.powered) {
    cb(OpResult{OpResult::Status::kPowerLost});
    return;
  }
  InFlight op;
  op.kind = InFlight::Kind::kErase;
  op.block = block;
  op.ppn = config_.geometry.first_page(block);
  op.duration = timing_.erase_block;
  op.op_cb = std::move(cb);
  enqueue(static_cast<std::uint32_t>(block % config_.geometry.planes), std::move(op));
}

void NandChip::enqueue(std::uint32_t plane_idx, InFlight op) {
  Plane& plane = planes_[plane_idx];
  plane.queue.push_back(std::move(op));
  if (!plane.busy.has_value()) start_next(plane_idx);
}

void NandChip::start_next(std::uint32_t plane_idx) {
  Plane& plane = planes_[plane_idx];
  if (plane.busy.has_value() || plane.queue.empty() || !state_.powered) return;
  plane.busy = plane.queue.pop_front();
  InFlight& op = *plane.busy;
  op.start = sim_.now();
  op.completion = sim_.after(op.duration, [this, plane_idx] { complete(plane_idx); });
}

void NandChip::complete(std::uint32_t plane_idx) {
  Plane& plane = planes_[plane_idx];
  assert(plane.busy.has_value());
  InFlight op = std::move(*plane.busy);
  plane.busy.reset();
  switch (op.kind) {
    case InFlight::Kind::kRead: finish_read(op); break;
    case InFlight::Kind::kReadOob: finish_read_oob(op); break;
    case InFlight::Kind::kProgram: finish_program(op); break;
    case InFlight::Kind::kErase: finish_erase(op); break;
  }
  start_next(plane_idx);
}

// -------------------------------------------------------------- completion

std::uint64_t NandChip::raw_errors_for(BlockArena::Slot slot, std::uint32_t pib) {
  const double bits = static_cast<double>(config_.geometry.page_bits());
  const bool partially_erased = state_.arena.partially_erased(slot);
  double ber = 0.0;
  switch (state_.arena.status(slot, pib)) {
    case PageStatus::kErased:
      // A clean erased page has no errors to read; but inside a partially-
      // erased block even "erased" cells sit at unstable thresholds.
      if (!partially_erased) return state_.arena.upset_errors(slot, pib);
      break;  // fall through to the partially_erased bump below
    case PageStatus::kValid:
      ber = errors_.base_ber + errors_.ber_per_pe_cycle * state_.arena.erase_count(slot) +
            errors_.read_disturb_ber * state_.arena.reads_since_erase(slot) +
            errors_.program_disturb_ber * state_.arena.programs_since_erase(slot);
      break;
    case PageStatus::kPartial: {
      const double incomplete = 1.0 - static_cast<double>(state_.arena.progress(slot, pib));
      ber = 0.5 * std::pow(incomplete, errors_.interrupt_shape) * wear_severity(slot) +
            errors_.base_ber;
      break;
    }
    case PageStatus::kCorrupt:
      // Undefined cell states: a quarter of the bits read wrong.
      return static_cast<std::uint64_t>(bits / 4.0) + state_.arena.upset_errors(slot, pib);
  }
  if (partially_erased) ber += 0.05;  // unstable threshold voltages
  const double lambda = ber * bits;
  return state_.rng.poisson(lambda) + state_.arena.upset_errors(slot, pib);
}

ReadResult NandChip::read_through_ecc(Ppn ppn) {
  const BlockArena::Slot slot = state_.arena.touch(config_.geometry.block_of(ppn));
  const std::uint32_t pib = config_.geometry.page_in_block(ppn);
  state_.arena.bump_reads_since_erase(slot);

  ReadResult result;
  result.raw_errors = raw_errors_for(slot, pib);
  const DecodeOutcome out =
      ecc_->decode(config_.geometry.page_bits(), result.raw_errors, state_.rng);
  result.soft_retries = out.soft_retries;
  const std::uint64_t content = state_.arena.content(slot, pib);
  if (out.correctable) {
    result.status = ReadResult::Status::kOk;
    result.content = content;
  } else {
    result.status = ReadResult::Status::kUncorrectable;
    // Deterministic garbage distinct from any allocated tag.
    result.content = content ^ (0x9e3779b97f4a7c15ULL * (result.raw_errors | 1ULL));
    ++state_.stats.uncorrectable_reads;
  }
  if (auto* m = sim_.metrics()) {
    m->add(obs_bit_errors_, result.raw_errors);
    if (out.correctable && result.raw_errors > 0) {
      m->add(obs_ecc_corrected_, result.raw_errors);
    } else if (!out.correctable) {
      m->add(obs_ecc_uncorrectable_);
    }
  }
  return result;
}

void NandChip::finish_read(InFlight& op) {
  ++state_.stats.reads;
  ReadResult result = read_through_ecc(op.ppn);
  if (op.read_cb) op.read_cb(result);
}

void NandChip::finish_read_oob(InFlight& op) {
  ++state_.stats.reads;
  // The spare area is covered by the same codewords as the data: its
  // readability shares the page's ECC fate.
  const ReadResult page = read_through_ecc(op.ppn);
  OobResult result;
  if (page.ok()) {
    const BlockArena::Slot slot = state_.arena.find(op.block);
    const std::uint32_t pib = config_.geometry.page_in_block(op.ppn);
    if (slot != BlockArena::kNoSlot &&
        state_.arena.status(slot, pib) != PageStatus::kErased) {
      result.ok = true;
      result.oob = state_.arena.oob(slot, pib);
    }
  }
  if (op.oob_cb) op.oob_cb(result);
}

ReadResult NandChip::read_now(Ppn ppn) {
  ++state_.stats.reads;
  return read_through_ecc(ppn);
}

void NandChip::finish_program(InFlight& op) {
  const BlockArena::Slot slot = state_.arena.touch(op.block);
  const std::uint32_t pib = config_.geometry.page_in_block(op.ppn);
  if (state_.arena.bad(slot)) {
    if (op.op_cb) op.op_cb(OpResult{OpResult::Status::kBadBlock});
    return;
  }
  if (config_.enforce_program_order && pib != state_.arena.next_program_page(slot)) {
    ++state_.stats.order_violations;
    if (op.op_cb) op.op_cb(OpResult{OpResult::Status::kOrderViolation});
    return;
  }
  state_.arena.set_programmed(slot, pib, op.content, op.oob);
  if (state_.arena.has_upsets(slot)) state_.arena.set_upset_errors(slot, pib, 0);
  state_.arena.bump_programs_since_erase(slot);
  state_.arena.set_next_program_page(slot, pib + 1);
  ++state_.stats.programs;
  if (op.op_cb) op.op_cb(OpResult{OpResult::Status::kOk});
}

void NandChip::finish_erase(InFlight& op) {
  const BlockArena::Slot slot = state_.arena.touch(op.block);
  if (state_.arena.erase_count(slot) >= config_.endurance_pe_cycles) {
    state_.arena.set_bad(slot);
    if (auto* m = sim_.metrics()) m->add(obs_blocks_retired_);
    if (op.op_cb) op.op_cb(OpResult{OpResult::Status::kBadBlock});
    return;
  }
  state_.arena.erase_block(slot);
  state_.arena.set_erase_count(slot, state_.arena.erase_count(slot) + 1);
  ++state_.stats.erases;
  if (op.op_cb) op.op_cb(OpResult{OpResult::Status::kOk});
}

// -------------------------------------------------------------- power loss

void NandChip::on_power_lost() {
  if (!state_.powered) return;
  state_.powered = false;
  for (auto& plane : planes_) {
    state_.stats.dropped_queued_ops += plane.queue.size();
    plane.queue.clear();
    if (!plane.busy.has_value()) continue;
    InFlight& op = *plane.busy;
    sim_.cancel(op.completion);
    switch (op.kind) {
      case InFlight::Kind::kRead:
      case InFlight::Kind::kReadOob:
        break;  // reads leave no trace on the array
      case InFlight::Kind::kProgram:
        interrupt_program(op);
        break;
      case InFlight::Kind::kErase:
        interrupt_erase(op);
        break;
    }
    // No callbacks: the controller that issued these just lost power too.
    plane.busy.reset();
  }
}

void NandChip::on_power_good() { state_.powered = true; }

void NandChip::interrupt_program(InFlight& op) {
  ++state_.stats.interrupted_programs;
  if (auto* m = sim_.metrics()) m->add(obs_ispp_interrupted_);
  const BlockArena::Slot slot = state_.arena.touch(op.block);
  const std::uint32_t pib = config_.geometry.page_in_block(op.ppn);
  const PageRole role = page_role(config_.tech, pib);
  const std::uint32_t steps = timing_.ispp_steps(role);

  const double frac = std::clamp(
      (sim_.now() - op.start).to_sec() / std::max(1e-12, op.duration.to_sec()), 0.0, 1.0);
  // Interruption lands on an ISPP step boundary: completed pulses stick.
  const double progress =
      std::floor(frac * static_cast<double>(steps)) / static_cast<double>(steps);

  if (progress >= 1.0) {
    // All pulses and the final verify finished; effectively a completed
    // program whose ACK never made it out of the die.
    state_.arena.set_programmed(slot, pib, op.content, op.oob);
    state_.arena.bump_programs_since_erase(slot);
    state_.arena.set_next_program_page(slot, pib + 1);
    return;
  }
  state_.arena.set_partial(slot, pib, static_cast<float>(progress), op.content, op.oob);
  state_.arena.bump_programs_since_erase(slot);
  state_.arena.set_next_program_page(slot, pib + 1);  // the cursor burned this page either way

  // Interrupting a later pass on a shared wordline shifts charge under the
  // partners that were already programmed and ACKed (the paper's corruption
  // of previously-written data, present even with the DRAM cache off).
  if (role != PageRole::kLower) {
    apply_paired_page_damage(op.block, pib, 1.0 - progress);
  }
}

void NandChip::apply_paired_page_damage(BlockId block_id, std::uint32_t page_in_block,
                                        double severity) {
  if (errors_.paired_page_upset_ber <= 0.0) return;
  const BlockArena::Slot slot = state_.arena.touch(block_id);
  const std::uint32_t base = wordline_base(config_.tech, page_in_block);
  const double bits = static_cast<double>(config_.geometry.page_bits());
  const std::uint32_t pages_per_block = config_.geometry.pages_per_block;
  for (std::uint32_t p = base; p < page_in_block && p < pages_per_block; ++p) {
    if (state_.arena.status(slot, p) != PageStatus::kValid) continue;
    const double lambda =
        errors_.paired_page_upset_ber * severity * wear_severity(slot) * bits;
    const std::uint64_t upset = state_.rng.poisson(lambda);
    if (upset == 0) continue;
    const std::uint32_t current = state_.arena.upset_errors(slot, p);
    state_.arena.set_upset_errors(
        slot, p,
        current + static_cast<std::uint32_t>(std::min<std::uint64_t>(
                      upset, std::numeric_limits<std::uint32_t>::max() - current)));
    ++state_.stats.paired_page_upsets;
    if (auto* m = sim_.metrics()) m->add(obs_paired_upsets_);
  }
}

void NandChip::interrupt_erase(InFlight& op) {
  ++state_.stats.interrupted_erases;
  if (auto* m = sim_.metrics()) m->add(obs_erase_interrupted_);
  const BlockArena::Slot slot = state_.arena.touch(op.block);
  const double frac = std::clamp(
      (sim_.now() - op.start).to_sec() / std::max(1e-12, op.duration.to_sec()), 0.0, 1.0);
  if (frac >= 1.0) {
    // Completed under dying power; treat as a normal erase.
    state_.arena.erase_block(slot);
    state_.arena.set_erase_count(slot, state_.arena.erase_count(slot) + 1);
    return;
  }
  // Cells are somewhere between their old states and erased: every page that
  // held data is now undefined, and the whole block reads unstably until a
  // clean erase completes.
  for (std::uint32_t p = 0; p < config_.geometry.pages_per_block; ++p) {
    const PageStatus st = state_.arena.status(slot, p);
    if (st == PageStatus::kValid || st == PageStatus::kPartial) {
      state_.arena.corrupt_page(slot, p);
    }
  }
  state_.arena.set_partially_erased(slot);
}

}  // namespace pofi::nand
