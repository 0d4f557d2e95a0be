#include "ftl/ftl.hpp"

#include <algorithm>
#include <cassert>

#include "ftl/dense.hpp"
#include "obs/metrics.hpp"
#include "sim/log.hpp"

namespace pofi::ftl {

namespace {
/// Content tags for journal pages live in a reserved namespace far above
/// anything the host-side shadow store allocates (its tags count up from 1),
/// yet inside 32 bits: the NAND arena then keeps them in its u32 content
/// lane, where a wider tag would cost a side-table node per journal page.
constexpr std::uint64_t kJournalTagBase = 0xF0000000ULL;
constexpr std::uint64_t kJournalTagMask = 0x0FFFFFFFULL;  ///< batch id bits kept
}  // namespace

Ftl::Ftl(sim::Simulator& simulator, nand::ChipArray& chips, Config config)
    : sim_(simulator),
      chip_(chips),
      config_(config) {
  pristine_.map = MappingTable(
      config_.mapping_policy, config_.extent_frame_pages, config_.extent_min_fill,
      config_.lpn_capacity != 0 ? config_.lpn_capacity : chips.geometry().total_pages());
  pristine_.alloc = BlockAllocator(chips.geometry());
  reset();
  if (auto* m = sim_.metrics()) {
    obs_gc_invocations_ = m->counter("ftl.gc.invocations");
    obs_journal_flushes_ = m->counter("ftl.journal.flushes");
    obs_journal_entries_ = m->counter("ftl.journal.entries_persisted");
    obs_por_pages_scanned_ = m->counter("ftl.por.pages_scanned");
    obs_por_recovered_ = m->counter("ftl.por.entries_recovered");
    obs_map_reverted_ = m->counter("ftl.map.updates_reverted");
    obs_failed_writes_ = m->counter("ftl.write.failed");
    obs_badblock_retired_ = m->counter("ftl.badblock.retired");
    obs_span_gc_ = m->trace().intern("ftl.gc");
    obs_span_journal_ = m->trace().intern("ftl.journal.flush");
    obs_span_por_ = m->trace().intern("ftl.por.scan");
  }
}

void Ftl::clear_in_flight() {
  gc_running_ = false;
  journal_in_flight_ = false;
  draining_ = false;
  drain_waiters_.clear();
  journal_event_ = {};
}

void Ftl::reset() {
  state_ = pristine_;
  state_.map.prefill_l2p();
  clear_in_flight();
}

void Ftl::snapshot(StateImage& out) const {
  assert(quiescent());
  out = state_;
  out.journal_timer = sim_.timer_image(journal_event_);
}

void Ftl::restore(const StateImage& image, sim::TimerRearmer& rearm) {
  state_ = image;
  clear_in_flight();
  rearm.enqueue(image.journal_timer, [this, deadline = image.journal_timer.deadline] {
    journal_event_ = sim_.at(deadline, [this] {
      if (!state_.powered) return;
      journal_tick();
      schedule_journal_tick();
    });
  });
}

void Ftl::obs_gc_span_end() {
  if (auto* m = sim_.metrics()) m->trace().end(obs_span_gc_, sim_.now());
}

// ------------------------------------------------------------- host writes

void Ftl::write(Lpn lpn, std::uint64_t content, WriteCallback cb) {
  if (!state_.powered) {
    ++state_.stats.failed_writes;
    if (auto* m = sim_.metrics()) m->add(obs_failed_writes_);
    cb(false);
    return;
  }
  const auto ppn = state_.alloc.alloc_page(Stream::kHost);
  if (!ppn.has_value()) {
    ++state_.stats.failed_writes;
    if (auto* m = sim_.metrics()) m->add(obs_failed_writes_);
    cb(false);
    return;
  }
  const nand::Oob oob{lpn, state_.write_seq++};
  mark_por_candidate(*ppn);
  if (config_.map_update_on_issue) {
    // Commodity behaviour: the L2P entry goes live (volatile) immediately;
    // the flash program races the next power fault.
    finish_host_write(lpn, *ppn, content);
    chip_.program(*ppn, content, oob, [this, cb = std::move(cb)](nand::OpResult r) {
      if (!r.ok()) {
        ++state_.stats.failed_writes;
        if (auto* m = sim_.metrics()) m->add(obs_failed_writes_);
      }
      cb(r.ok());
    });
    return;
  }
  chip_.program(*ppn, content, oob,
                [this, lpn, ppn = *ppn, content, cb = std::move(cb)](nand::OpResult r) {
                  if (!r.ok()) {
                    ++state_.stats.failed_writes;
                    if (auto* m = sim_.metrics()) m->add(obs_failed_writes_);
                    cb(false);
                    return;
                  }
                  finish_host_write(lpn, ppn, content);
                  cb(true);
                });
}

void Ftl::finish_host_write(Lpn lpn, Ppn ppn, std::uint64_t /*content*/) {
  ++state_.stats.host_writes;
  if (const auto old = state_.map.lookup(lpn); old.has_value()) invalidate(*old);
  state_.map.update(lpn, ppn);
  state_.stats.extents_coalesced = state_.map.extents_closed_full();
  make_valid(lpn, ppn);
  if (state_.map.committable_count() >= config_.journal_batch_threshold && !journal_in_flight_) {
    journal_tick();
  }
  maybe_start_gc();
}

void Ftl::invalidate(Ppn ppn) {
  if (ppn < state_.reverse_map.size()) state_.reverse_map[ppn] = kUnmappedLpn;
  const BlockId b = chip_.geometry().block_of(ppn);
  if (b < state_.valid_count.size() && state_.valid_count[b] > 0) --state_.valid_count[b];
}

void Ftl::mark_por_candidate(Ppn ppn) {
  if (!config_.por_scan) return;
  const BlockId b = chip_.geometry().block_of(ppn);
  grow_dense(state_.por_candidate, b, chip_.geometry().total_blocks(), std::uint8_t{0});
  if (state_.por_candidate[b] != 0) return;
  state_.por_candidate[b] = 1;
  ++state_.por_candidates;
}

void Ftl::make_valid(Lpn lpn, Ppn ppn) {
  grow_dense(state_.reverse_map, ppn, chip_.geometry().total_pages(), kUnmappedLpn);
  state_.reverse_map[ppn] = lpn;
  const BlockId b = chip_.geometry().block_of(ppn);
  grow_dense(state_.valid_count, b, chip_.geometry().total_blocks(), 0U);
  ++state_.valid_count[b];
}

// -------------------------------------------------------------- host reads

void Ftl::read(Lpn lpn, ReadCallback cb) {
  ++state_.stats.host_reads;
  const auto ppn = state_.map.lookup(lpn);
  if (!ppn.has_value()) {
    nand::ReadResult r;
    r.status =
        state_.powered ? nand::ReadResult::Status::kOk : nand::ReadResult::Status::kPowerLost;
    r.content = nand::kErasedContent;
    cb(r, false);
    return;
  }
  chip_.read(*ppn, [cb = std::move(cb)](nand::ReadResult r) { cb(r, true); });
}

void Ftl::trim(Lpn lpn) {
  const auto ppn = state_.map.lookup(lpn);
  if (!ppn.has_value()) return;
  invalidate(*ppn);
  state_.map.remove(lpn);
}

// ----------------------------------------------------------------- journal

void Ftl::schedule_journal_tick() {
  journal_event_ = sim_.after(config_.journal_interval, [this] {
    if (!state_.powered) return;
    journal_tick();
    schedule_journal_tick();
  });
}

void Ftl::journal_tick() {
  if (journal_in_flight_ || !state_.powered) return;
  const std::uint64_t batch = state_.map.begin_persist_batch(state_.emergency || draining_);
  if (batch == 0) return;
  persist_batch(batch);
}

void Ftl::set_emergency(bool on) {
  state_.emergency = on;
  if (on) journal_tick();
}

void Ftl::flush_all(std::function<void()> done) {
  if (state_.map.volatile_count() == 0) {
    if (done) done();
    return;
  }
  drain_waiters_.push_back(std::move(done));
  draining_ = true;
  journal_tick();
}

void Ftl::persist_batch(std::uint64_t batch) {
  const auto ppn = state_.alloc.alloc_page(Stream::kJournal);
  if (!ppn.has_value()) {
    // No journal space: the entries stay volatile, dirty again, and a later
    // tick recuts them.
    state_.map.abort_batch(batch);
    return;
  }
  journal_in_flight_ = true;
  const std::size_t entries = state_.map.batch_size(batch);
  const std::uint64_t cut_seq = state_.write_seq - 1;
  if (auto* m = sim_.metrics()) m->trace().begin(obs_span_journal_, sim_.now());
  const std::uint64_t tag = kJournalTagBase | (batch & kJournalTagMask);
  chip_.program(*ppn, tag, [this, batch, entries, cut_seq](nand::OpResult r) {
    journal_in_flight_ = false;
    if (auto* m = sim_.metrics()) m->trace().end(obs_span_journal_, sim_.now());
    if (!r.ok()) {
      // The journal page failed: as above. After a power loss the batch is
      // already reverted, and the abort is a no-op.
      state_.map.abort_batch(batch);
      return;
    }
    // Batches commit in cut order (journal_in_flight_ serialises them), so
    // cut_seq is monotone and the horizon only advances. Record the newest
    // journaled LPN before the batch bookkeeping is consumed (fault hook).
    const auto& lpns = state_.map.batch_lpns(batch);
    if (!lpns.empty()) state_.last_committed_lpn = lpns.back();
    state_.map.commit_batch(batch);
    state_.journal_horizon = cut_seq;
    ++state_.stats.journal_flushes;
    state_.stats.journal_entries_persisted += entries;
    if (auto* m = sim_.metrics()) {
      m->add(obs_journal_flushes_);
      m->add(obs_journal_entries_, entries);
    }
    if (state_.map.volatile_count() == 0) {
      // Full checkpoint: everything stamped up to cut_seq is durable.
      state_.checkpoint_seq = cut_seq;
      if (state_.por_candidates != 0) {
        std::fill(state_.por_candidate.begin(), state_.por_candidate.end(), std::uint8_t{0});
        state_.por_candidates = 0;
      }
    }
    // PLP/FLUSH drain: chase the map to fully-persisted.
    if ((state_.emergency || draining_) && state_.powered) journal_tick();
    if (draining_ && state_.map.volatile_count() == 0) {
      draining_ = false;
      auto waiters = std::move(drain_waiters_);
      drain_waiters_.clear();
      for (auto& w : waiters) w();
    }
  });
}

void Ftl::flush_journal_now() { journal_tick(); }

// --------------------------------------------------------------------- GC

void Ftl::maybe_start_gc() {
  if (gc_running_ || !state_.powered) return;
  if (state_.alloc.free_blocks() >= config_.gc_low_watermark) return;
  // Greedy victim: sealed block with the fewest valid pages.
  const auto& sealed = state_.alloc.sealed_blocks();
  if (sealed.empty()) return;
  BlockId victim = sealed.front();
  std::uint32_t best_valid = ~0U;
  for (const BlockId b : sealed) {
    const std::uint32_t v = b < state_.valid_count.size() ? state_.valid_count[b] : 0;
    if (v < best_valid) {
      best_valid = v;
      victim = b;
    }
  }
  gc_running_ = true;
  if (auto* m = sim_.metrics()) {
    m->add(obs_gc_invocations_);
    m->trace().begin(obs_span_gc_, sim_.now());
  }
  state_.alloc.unseal(victim);
  gc_relocate_next(victim, 0);
}

void Ftl::gc_relocate_next(BlockId victim, std::uint32_t page_index) {
  if (!state_.powered) {
    gc_running_ = false;
    obs_gc_span_end();
    return;
  }
  const auto& geom = chip_.geometry();
  if (page_index >= geom.pages_per_block) {
    gc_erase_victim(victim);
    return;
  }
  const Ppn ppn = geom.first_page(victim) + page_index;
  const Lpn lpn = ppn < state_.reverse_map.size() ? state_.reverse_map[ppn] : kUnmappedLpn;
  if (lpn == kUnmappedLpn || state_.map.lookup(lpn) != std::optional<Ppn>(ppn)) {
    gc_relocate_next(victim, page_index + 1);  // page is stale
    return;
  }
  chip_.read(ppn, [this, victim, page_index, lpn, ppn](nand::ReadResult r) {
    if (!state_.powered) {
      gc_running_ = false;
      obs_gc_span_end();
      return;
    }
    if (r.status == nand::ReadResult::Status::kPowerLost) {
      gc_running_ = false;
      obs_gc_span_end();
      return;
    }
    // Relocate whatever the array returned — if ECC failed, the corruption
    // propagates, exactly as on a real drive.
    const auto dst = state_.alloc.alloc_page(Stream::kGc);
    if (!dst.has_value()) {
      gc_running_ = false;
      obs_gc_span_end();
      return;
    }
    const nand::Oob oob{lpn, state_.write_seq++};
    mark_por_candidate(*dst);
    chip_.program(*dst, r.content, oob, [this, victim, page_index, lpn, ppn,
                                         dst = *dst](nand::OpResult pr) {
      if (!state_.powered || !pr.ok()) {
        gc_running_ = false;
        obs_gc_span_end();
        return;
      }
      if (state_.map.lookup(lpn) == std::optional<Ppn>(ppn)) {
        invalidate(ppn);
        state_.map.update(lpn, dst);
        make_valid(lpn, dst);
        ++state_.stats.gc_relocations;
      }
      gc_relocate_next(victim, page_index + 1);
    });
  });
}

void Ftl::gc_erase_victim(BlockId victim) {
  chip_.erase(victim, [this, victim](nand::OpResult r) {
    gc_running_ = false;
    obs_gc_span_end();
    if (!state_.powered) return;
    if (r.ok()) {
      if (victim < state_.valid_count.size()) state_.valid_count[victim] = 0;
      state_.alloc.on_block_erased(victim);
      ++state_.stats.gc_erases;
    } else if (r.status == nand::OpResult::Status::kBadBlock) {
      // The victim wore out under us: it never returns to the free pool —
      // the array-level equivalent of a bad-block remap.
      if (auto* m = sim_.metrics()) m->add(obs_badblock_retired_);
    }
    maybe_start_gc();
  });
}

// ------------------------------------------------------------------- power

void Ftl::on_power_lost() {
  state_.powered = false;
  sim_.cancel(journal_event_);
  journal_in_flight_ = false;
  gc_running_ = false;
  if (auto* m = sim_.metrics()) {
    // Close whatever the fault interrupted; unmatched ends are no-ops.
    m->trace().end(obs_span_journal_, sim_.now());
    m->trace().end(obs_span_gc_, sim_.now());
    m->trace().end(obs_span_por_, sim_.now());
  }
  state_.emergency = false;
  draining_ = false;
  drain_waiters_.clear();

  const auto reverted = state_.map.on_power_lost();
  state_.stats.map_updates_reverted += reverted.size();
  if (auto* m = sim_.metrics()) m->add(obs_map_reverted_, reverted.size());
  state_.last_reverted_lpns.clear();
  for (const auto& r : reverted) {
    if (r.dropped_ppn.has_value()) invalidate(*r.dropped_ppn);
    if (r.restored_ppn.has_value()) make_valid(r.lpn, *r.restored_ppn);
    state_.last_reverted_lpns.push_back(r.lpn);  // ascending: the table reverts in LPN order
  }

  // Deliberately broken recovery (torture self-tests): forget the newest
  // durably-journaled mapping without repairing valid counts or the reverse
  // map — the footprint of a replay that skipped its last record.
  if (state_.torture_fault == TortureFault::kSkipLastJournalRecord &&
      state_.last_committed_lpn.has_value() &&
      state_.map.lookup(*state_.last_committed_lpn).has_value()) {
    state_.map.debug_clear_slot(*state_.last_committed_lpn);
  }
}

void Ftl::on_power_good() {
  state_.powered = true;
  state_.alloc.abandon_active_blocks();
  schedule_journal_tick();
}

// --------------------------------------------------------- power-on recovery

void Ftl::recover_por(std::function<void()> done) {
  if (!config_.por_scan || state_.por_candidates == 0) {
    if (done) done();
    return;
  }
  // Gather every page of every candidate block, in block order; the scan
  // reads their spare areas through the normal chip path, so mount time
  // grows realistically with the amount of unjournaled data.
  auto pages = std::make_shared<std::vector<Ppn>>();
  for (BlockId b = 0; b < state_.por_candidate.size(); ++b) {
    if (state_.por_candidate[b] == 0) continue;
    for (std::uint32_t p = 0; p < chip_.geometry().pages_per_block; ++p) {
      pages->push_back(chip_.geometry().first_page(b) + p);
    }
  }
  auto hits = std::make_shared<std::unordered_map<Lpn, PorHit>>();
  if (auto* m = sim_.metrics()) m->trace().begin(obs_span_por_, sim_.now());
  por_scan_next(std::move(pages), 0, std::move(hits), std::move(done));
}

void Ftl::por_scan_next(std::shared_ptr<std::vector<Ppn>> pages, std::size_t index,
                        std::shared_ptr<std::unordered_map<Lpn, PorHit>> hits,
                        std::function<void()> done) {
  if (!state_.powered) return;  // a second fault killed the scan; next mount retries
  if (index >= pages->size()) {
    por_apply(*hits, std::move(done));
    return;
  }
  const Ppn ppn = (*pages)[index];
  chip_.read_oob(ppn, [this, pages = std::move(pages), index, hits = std::move(hits),
                       done = std::move(done), ppn](nand::NandChip::OobResult r) mutable {
    ++state_.stats.por_pages_scanned;
    if (auto* m = sim_.metrics()) m->add(obs_por_pages_scanned_);
    if (r.ok && r.oob.valid() && r.oob.seq > state_.checkpoint_seq) {
      auto& hit = (*hits)[r.oob.lpn];
      if (r.oob.seq > hit.seq) hit = PorHit{ppn, r.oob.seq};
    }
    por_scan_next(std::move(pages), index + 1, std::move(hits), std::move(done));
  });
}

void Ftl::por_apply(const std::unordered_map<Lpn, PorHit>& hits, std::function<void()> done) {
  // Apply hits one at a time; each may need an extra OOB read to compare
  // sequence numbers with the currently-mapped copy. The continuation is an
  // explicit member function (like por_scan_next) rather than a
  // self-capturing std::function — a function owning the shared_ptr to
  // itself never reaches refcount zero.
  auto remaining = std::make_shared<std::vector<std::pair<Lpn, PorHit>>>(hits.begin(),
                                                                         hits.end());
  // Apply in LPN order: hit-map iteration order is hash-table history, and
  // the apply order shapes the mount's event stream (one read per apply).
  std::sort(remaining->begin(), remaining->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  por_apply_next(std::move(remaining), std::move(done));
}

void Ftl::por_apply_next(std::shared_ptr<std::vector<std::pair<Lpn, PorHit>>> remaining,
                         std::function<void()> done) {
  if (!state_.powered) return;  // a second fault killed the recovery; next mount retries
  if (remaining->empty()) {
    if (auto* m = sim_.metrics()) m->trace().end(obs_span_por_, sim_.now());
    // Checkpoint the recovered map so the next crash starts clean.
    flush_all([done = std::move(done)] {
      if (done) done();
    });
    return;
  }
  const auto [lpn, hit] = remaining->back();
  remaining->pop_back();
  const auto current = state_.map.lookup(lpn);
  if (!current.has_value()) {
    install_por_hit(lpn, hit, current);
    por_apply_next(std::move(remaining), std::move(done));
    return;
  }
  if (*current == hit.ppn) {  // already mapped to the recovered copy
    por_apply_next(std::move(remaining), std::move(done));
    return;
  }
  // Compare against the mapped copy's stamp; only newer data wins.
  chip_.read_oob(*current, [this, lpn = lpn, hit = hit, current, remaining = std::move(remaining),
                            done = std::move(done)](nand::NandChip::OobResult r) mutable {
    if (!state_.powered) return;
    if (!r.ok || !r.oob.valid() || r.oob.seq < hit.seq) {
      install_por_hit(lpn, hit, current);
    }
    por_apply_next(std::move(remaining), std::move(done));
  });
}

void Ftl::install_por_hit(Lpn lpn, const PorHit& hit, std::optional<Ppn> current) {
  if (current.has_value()) invalidate(*current);
  state_.map.update(lpn, hit.ppn);
  make_valid(lpn, hit.ppn);
  ++state_.stats.por_entries_recovered;
  if (auto* m = sim_.metrics()) m->add(obs_por_recovered_);
}

}  // namespace pofi::ftl
