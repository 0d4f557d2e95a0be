// Link-time wrappers for the traced binary (perfbench_traced only).
//
// Each WRAP(sym) below is linked with -Wl,--wrap=sym (CMakeLists.txt collects
// the names from this file), so every call to `sym` from another object file
// lands in the wrapper, which opens a span and forwards to REAL(sym), the
// original definition. Calls inside the defining object file, and calls the
// compiler inlined, are not redirected; the chosen entry points are
// out-of-line functions that one layer calls on another.
//
// Each wrapper is declared with the exact C++ parameter and return types of
// the member function it stands for, with `this` as the first parameter, so
// the calling convention is the one the caller already uses. A by-value
// parameter is moved into the forwarded call. The spans time only the
// synchronous part of a call; completions run later from event callbacks.
// The one exception is read_oob, whose completions are the body of the FTL's
// power-on recovery: its callback is wrapped so that they count as
// ftl.recover_por time.
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "blk/queue.hpp"
#include "ftl/ftl.hpp"
#include "ftl/mapping.hpp"
#include "nand/chip_array.hpp"
#include "platform/shadow_store.hpp"
#include "platform/test_platform.hpp"
#include "psu/power_supply.hpp"
#include "sim/event_queue.hpp"
#include "ssd/ssd.hpp"
#include "ssd/write_cache.hpp"
#include "torture/auditor.hpp"
#include "torture/harness.hpp"
#include "trace.hpp"
#include "workload/workload.hpp"

#define PB_CAT(a, b) a##b
#define REAL(sym) PB_CAT(__real_, sym)
#define WRAP(sym) PB_CAT(__wrap_, sym)

using namespace pofi;
using perfbench::trace::Layer;
using perfbench::trace::Span;

extern "C" {

// --- platform: ShadowStore public API ---------------------------------------

std::vector<std::uint64_t> REAL(_ZN4pofi8platform11ShadowStore13allocate_tagsEj)(
    platform::ShadowStore* self, std::uint32_t n);
std::vector<std::uint64_t> WRAP(_ZN4pofi8platform11ShadowStore13allocate_tagsEj)(
    platform::ShadowStore* self, std::uint32_t n) {
  const Span span(Layer::kPlatformShadow);
  return REAL(_ZN4pofi8platform11ShadowStore13allocate_tagsEj)(self, n);
}

std::uint64_t REAL(_ZNK4pofi8platform11ShadowStore8expectedEm)(const platform::ShadowStore* self,
                                                               ftl::Lpn lpn);
std::uint64_t WRAP(_ZNK4pofi8platform11ShadowStore8expectedEm)(const platform::ShadowStore* self,
                                                               ftl::Lpn lpn) {
  const Span span(Layer::kPlatformShadow);
  return REAL(_ZNK4pofi8platform11ShadowStore8expectedEm)(self, lpn);
}

bool REAL(_ZNK4pofi8platform11ShadowStore10acceptableEmm)(const platform::ShadowStore* self,
                                                          ftl::Lpn lpn, std::uint64_t tag);
bool WRAP(_ZNK4pofi8platform11ShadowStore10acceptableEmm)(const platform::ShadowStore* self,
                                                          ftl::Lpn lpn, std::uint64_t tag) {
  const Span span(Layer::kPlatformShadow);
  return REAL(_ZNK4pofi8platform11ShadowStore10acceptableEmm)(self, lpn, tag);
}

void REAL(_ZN4pofi8platform11ShadowStore12commit_writeEmSt4spanIKmLm18446744073709551615EE)(
    platform::ShadowStore* self, ftl::Lpn lpn, std::span<const std::uint64_t> tags);
void WRAP(_ZN4pofi8platform11ShadowStore12commit_writeEmSt4spanIKmLm18446744073709551615EE)(
    platform::ShadowStore* self, ftl::Lpn lpn, std::span<const std::uint64_t> tags) {
  const Span span(Layer::kPlatformShadow);
  REAL(_ZN4pofi8platform11ShadowStore12commit_writeEmSt4spanIKmLm18446744073709551615EE)(
      self, lpn, tags);
}

void REAL(_ZN4pofi8platform11ShadowStore18mark_indeterminateEmSt4spanIKmLm18446744073709551615EE)(
    platform::ShadowStore* self, ftl::Lpn lpn, std::span<const std::uint64_t> tags);
void WRAP(_ZN4pofi8platform11ShadowStore18mark_indeterminateEmSt4spanIKmLm18446744073709551615EE)(
    platform::ShadowStore* self, ftl::Lpn lpn, std::span<const std::uint64_t> tags) {
  const Span span(Layer::kPlatformShadow);
  REAL(_ZN4pofi8platform11ShadowStore18mark_indeterminateEmSt4spanIKmLm18446744073709551615EE)(
      self, lpn, tags);
}

void REAL(_ZN4pofi8platform11ShadowStore7observeEmm)(platform::ShadowStore* self, ftl::Lpn lpn,
                                                     std::uint64_t tag);
void WRAP(_ZN4pofi8platform11ShadowStore7observeEmm)(platform::ShadowStore* self, ftl::Lpn lpn,
                                                     std::uint64_t tag) {
  const Span span(Layer::kPlatformShadow);
  REAL(_ZN4pofi8platform11ShadowStore7observeEmm)(self, lpn, tag);
}

// --- platform: stack construction, session reset, campaign run --------------

void REAL(_ZN4pofi8platform12TestPlatformC1ENS_3ssd9SsdConfigENS0_14PlatformConfigEm)(
    platform::TestPlatform* self, ssd::SsdConfig drive, platform::PlatformConfig pc,
    std::uint64_t seed);
void WRAP(_ZN4pofi8platform12TestPlatformC1ENS_3ssd9SsdConfigENS0_14PlatformConfigEm)(
    platform::TestPlatform* self, ssd::SsdConfig drive, platform::PlatformConfig pc,
    std::uint64_t seed) {
  const Span span(Layer::kPlatformConstruct);
  REAL(_ZN4pofi8platform12TestPlatformC1ENS_3ssd9SsdConfigENS0_14PlatformConfigEm)(
      self, std::move(drive), std::move(pc), seed);
}

void REAL(_ZN4pofi8platform12TestPlatform5resetERKNS0_14PlatformConfigEm)(
    platform::TestPlatform* self, const platform::PlatformConfig& pc, std::uint64_t seed);
void WRAP(_ZN4pofi8platform12TestPlatform5resetERKNS0_14PlatformConfigEm)(
    platform::TestPlatform* self, const platform::PlatformConfig& pc, std::uint64_t seed) {
  const Span span(Layer::kPlatformReset);
  REAL(_ZN4pofi8platform12TestPlatform5resetERKNS0_14PlatformConfigEm)(self, pc, seed);
}

platform::ExperimentResult REAL(_ZN4pofi8platform12TestPlatform3runERKNS0_14ExperimentSpecE)(
    platform::TestPlatform* self, const platform::ExperimentSpec& spec);
platform::ExperimentResult WRAP(_ZN4pofi8platform12TestPlatform3runERKNS0_14ExperimentSpecE)(
    platform::TestPlatform* self, const platform::ExperimentSpec& spec) {
  const Span span(Layer::kPlatformRun);
  return REAL(_ZN4pofi8platform12TestPlatform3runERKNS0_14ExperimentSpecE)(self, spec);
}

// --- ssd: write-cache power loss, command submission ------------------------

std::size_t REAL(_ZN4pofi3ssd10WriteCache13on_power_lostEv)(ssd::WriteCache* self);
std::size_t WRAP(_ZN4pofi3ssd10WriteCache13on_power_lostEv)(ssd::WriteCache* self) {
  const Span span(Layer::kCachePowerLost);
  return REAL(_ZN4pofi3ssd10WriteCache13on_power_lostEv)(self);
}

void REAL(_ZN4pofi3ssd3Ssd6submitENS0_7CommandE)(ssd::Ssd* self, ssd::Command cmd);
void WRAP(_ZN4pofi3ssd3Ssd6submitENS0_7CommandE)(ssd::Ssd* self, ssd::Command cmd) {
  const Span span(Layer::kSsdSubmit);
  REAL(_ZN4pofi3ssd3Ssd6submitENS0_7CommandE)(self, std::move(cmd));
}

// --- ftl: committable count, host IO, power-on recovery ---------------------

std::size_t REAL(_ZNK4pofi3ftl12MappingTable17committable_countEv)(const ftl::MappingTable* self);
std::size_t WRAP(_ZNK4pofi3ftl12MappingTable17committable_countEv)(
    const ftl::MappingTable* self) {
  const Span span(Layer::kFtlCommittable);
  return REAL(_ZNK4pofi3ftl12MappingTable17committable_countEv)(self);
}

void REAL(_ZN4pofi3ftl3Ftl5writeEmmSt8functionIFvbEE)(ftl::Ftl* self, ftl::Lpn lpn,
                                                      std::uint64_t content,
                                                      ftl::Ftl::WriteCallback cb);
void WRAP(_ZN4pofi3ftl3Ftl5writeEmmSt8functionIFvbEE)(ftl::Ftl* self, ftl::Lpn lpn,
                                                      std::uint64_t content,
                                                      ftl::Ftl::WriteCallback cb) {
  const Span span(Layer::kFtlIo);
  REAL(_ZN4pofi3ftl3Ftl5writeEmmSt8functionIFvbEE)(self, lpn, content, std::move(cb));
}

void REAL(_ZN4pofi3ftl3Ftl4readEmSt8functionIFvNS_4nand10ReadResultEbEE)(
    ftl::Ftl* self, ftl::Lpn lpn, ftl::Ftl::ReadCallback cb);
void WRAP(_ZN4pofi3ftl3Ftl4readEmSt8functionIFvNS_4nand10ReadResultEbEE)(
    ftl::Ftl* self, ftl::Lpn lpn, ftl::Ftl::ReadCallback cb) {
  const Span span(Layer::kFtlIo);
  REAL(_ZN4pofi3ftl3Ftl4readEmSt8functionIFvNS_4nand10ReadResultEbEE)(self, lpn, std::move(cb));
}

void REAL(_ZN4pofi3ftl3Ftl11recover_porESt8functionIFvvEE)(ftl::Ftl* self,
                                                           std::function<void()> done);
void WRAP(_ZN4pofi3ftl3Ftl11recover_porESt8functionIFvvEE)(ftl::Ftl* self,
                                                           std::function<void()> done) {
  const Span span(Layer::kFtlRecoverPor);
  REAL(_ZN4pofi3ftl3Ftl11recover_porESt8functionIFvvEE)(self, std::move(done));
}

// --- sim: event queue --------------------------------------------------------

sim::EventId REAL(_ZN4pofi3sim10EventQueue11schedule_atENS0_9TimePointENS0_15InplaceFunctionIFvvELm120EEE)(
    sim::EventQueue* self, sim::TimePoint at, sim::EventQueue::Callback cb);
sim::EventId WRAP(_ZN4pofi3sim10EventQueue11schedule_atENS0_9TimePointENS0_15InplaceFunctionIFvvELm120EEE)(
    sim::EventQueue* self, sim::TimePoint at, sim::EventQueue::Callback cb) {
  const Span span(Layer::kSimQueue);
  return REAL(_ZN4pofi3sim10EventQueue11schedule_atENS0_9TimePointENS0_15InplaceFunctionIFvvELm120EEE)(
      self, at, std::move(cb));
}

sim::EventQueue::Fired REAL(_ZN4pofi3sim10EventQueue3popEv)(sim::EventQueue* self);
sim::EventQueue::Fired WRAP(_ZN4pofi3sim10EventQueue3popEv)(sim::EventQueue* self) {
  perfbench::trace::count_event();
  const Span span(Layer::kSimQueue);
  return REAL(_ZN4pofi3sim10EventQueue3popEv)(self);
}

bool REAL(_ZN4pofi3sim10EventQueue6cancelENS0_7EventIdE)(sim::EventQueue* self, sim::EventId id);
bool WRAP(_ZN4pofi3sim10EventQueue6cancelENS0_7EventIdE)(sim::EventQueue* self, sim::EventId id) {
  const Span span(Layer::kSimQueue);
  return REAL(_ZN4pofi3sim10EventQueue6cancelENS0_7EventIdE)(self, id);
}

// --- nand: chip-array operations --------------------------------------------

void REAL(_ZN4pofi4nand9ChipArray4readEmNS_3sim15InplaceFunctionIFvNS0_10ReadResultEELm128EEE)(
    nand::ChipArray* self, nand::Ppn ppn, nand::NandChip::ReadCallback cb);
void WRAP(_ZN4pofi4nand9ChipArray4readEmNS_3sim15InplaceFunctionIFvNS0_10ReadResultEELm128EEE)(
    nand::ChipArray* self, nand::Ppn ppn, nand::NandChip::ReadCallback cb) {
  const Span span(Layer::kNandOp);
  REAL(_ZN4pofi4nand9ChipArray4readEmNS_3sim15InplaceFunctionIFvNS0_10ReadResultEELm128EEE)(
      self, ppn, std::move(cb));
}

void REAL(_ZN4pofi4nand9ChipArray7programEmmNS0_3OobENS_3sim15InplaceFunctionIFvNS0_8OpResultEELm128EEE)(
    nand::ChipArray* self, nand::Ppn ppn, std::uint64_t content, nand::Oob oob,
    nand::NandChip::OpCallback cb);
void WRAP(_ZN4pofi4nand9ChipArray7programEmmNS0_3OobENS_3sim15InplaceFunctionIFvNS0_8OpResultEELm128EEE)(
    nand::ChipArray* self, nand::Ppn ppn, std::uint64_t content, nand::Oob oob,
    nand::NandChip::OpCallback cb) {
  perfbench::trace::count_nand_program();
  const Span span(Layer::kNandOp);
  REAL(_ZN4pofi4nand9ChipArray7programEmmNS0_3OobENS_3sim15InplaceFunctionIFvNS0_8OpResultEELm128EEE)(
      self, ppn, content, oob, std::move(cb));
}

void REAL(_ZN4pofi4nand9ChipArray5eraseEmNS_3sim15InplaceFunctionIFvNS0_8OpResultEELm128EEE)(
    nand::ChipArray* self, nand::BlockId block, nand::NandChip::OpCallback cb);
void WRAP(_ZN4pofi4nand9ChipArray5eraseEmNS_3sim15InplaceFunctionIFvNS0_8OpResultEELm128EEE)(
    nand::ChipArray* self, nand::BlockId block, nand::NandChip::OpCallback cb) {
  const Span span(Layer::kNandOp);
  REAL(_ZN4pofi4nand9ChipArray5eraseEmNS_3sim15InplaceFunctionIFvNS0_8OpResultEELm128EEE)(
      self, block, std::move(cb));
}

void REAL(_ZN4pofi4nand9ChipArray8read_oobEmNS_3sim15InplaceFunctionIFvNS0_8NandChip9OobResultEELm128EEE)(
    nand::ChipArray* self, nand::Ppn ppn, nand::NandChip::OobCallback cb);
void WRAP(_ZN4pofi4nand9ChipArray8read_oobEmNS_3sim15InplaceFunctionIFvNS0_8NandChip9OobResultEELm128EEE)(
    nand::ChipArray* self, nand::Ppn ppn, nand::NandChip::OobCallback cb) {
  perfbench::trace::count_por_oob_read();
  const Span span(Layer::kNandOp);
  // The callback does not fit inline inside another of the same capacity,
  // so the wrapping callback holds it on the heap.
  auto inner = std::make_unique<nand::NandChip::OobCallback>(std::move(cb));
  REAL(_ZN4pofi4nand9ChipArray8read_oobEmNS_3sim15InplaceFunctionIFvNS0_8NandChip9OobResultEELm128EEE)(
      self, ppn, [inner = std::move(inner)](nand::NandChip::OobResult r) {
        const Span por(Layer::kFtlRecoverPor);
        (*inner)(r);
      });
}

// --- blk: host request submission -------------------------------------------

std::uint64_t REAL(_ZN4pofi3blk10BlockQueue12submit_writeEmSt6vectorImSaImEENS_3sim15InplaceFunctionIFvNS0_14RequestOutcomeEELm160EEE)(
    blk::BlockQueue* self, ftl::Lpn lpn, std::vector<std::uint64_t> contents,
    blk::BlockQueue::Completion done);
std::uint64_t WRAP(_ZN4pofi3blk10BlockQueue12submit_writeEmSt6vectorImSaImEENS_3sim15InplaceFunctionIFvNS0_14RequestOutcomeEELm160EEE)(
    blk::BlockQueue* self, ftl::Lpn lpn, std::vector<std::uint64_t> contents,
    blk::BlockQueue::Completion done) {
  perfbench::trace::count_host_pages(contents.size());
  const Span span(Layer::kBlkSubmit);
  return REAL(_ZN4pofi3blk10BlockQueue12submit_writeEmSt6vectorImSaImEENS_3sim15InplaceFunctionIFvNS0_14RequestOutcomeEELm160EEE)(
      self, lpn, std::move(contents), std::move(done));
}

std::uint64_t REAL(_ZN4pofi3blk10BlockQueue11submit_readEmjNS_3sim15InplaceFunctionIFvNS0_14RequestOutcomeEELm160EEE)(
    blk::BlockQueue* self, ftl::Lpn lpn, std::uint32_t pages, blk::BlockQueue::Completion done);
std::uint64_t WRAP(_ZN4pofi3blk10BlockQueue11submit_readEmjNS_3sim15InplaceFunctionIFvNS0_14RequestOutcomeEELm160EEE)(
    blk::BlockQueue* self, ftl::Lpn lpn, std::uint32_t pages, blk::BlockQueue::Completion done) {
  const Span span(Layer::kBlkSubmit);
  return REAL(_ZN4pofi3blk10BlockQueue11submit_readEmjNS_3sim15InplaceFunctionIFvNS0_14RequestOutcomeEELm160EEE)(
      self, lpn, pages, std::move(done));
}

std::uint64_t REAL(_ZN4pofi3blk10BlockQueue12submit_flushENS_3sim15InplaceFunctionIFvNS0_14RequestOutcomeEELm160EEE)(
    blk::BlockQueue* self, blk::BlockQueue::Completion done);
std::uint64_t WRAP(_ZN4pofi3blk10BlockQueue12submit_flushENS_3sim15InplaceFunctionIFvNS0_14RequestOutcomeEELm160EEE)(
    blk::BlockQueue* self, blk::BlockQueue::Completion done) {
  const Span span(Layer::kBlkSubmit);
  return REAL(_ZN4pofi3blk10BlockQueue12submit_flushENS_3sim15InplaceFunctionIFvNS0_14RequestOutcomeEELm160EEE)(
      self, std::move(done));
}

// --- torture: crash points and audits ---------------------------------------

torture::CrashOutcome REAL(_ZN4pofi7torture12CrashHarness15run_crash_pointERNS_8platform12TestPlatformEm)(
    torture::CrashHarness* self, platform::TestPlatform& tp, std::uint64_t boundary);
torture::CrashOutcome WRAP(_ZN4pofi7torture12CrashHarness15run_crash_pointERNS_8platform12TestPlatformEm)(
    torture::CrashHarness* self, platform::TestPlatform& tp, std::uint64_t boundary) {
  const Span span(Layer::kTortureCrashPoint);
  return REAL(_ZN4pofi7torture12CrashHarness15run_crash_pointERNS_8platform12TestPlatformEm)(
      self, tp, boundary);
}

torture::CrashOutcome REAL(_ZN4pofi7torture12CrashHarness20run_crash_point_fromERNS_8platform12TestPlatformERKNS0_13SchedulePilotERKNS0_15HarnessSnapshotEm)(
    torture::CrashHarness* self, platform::TestPlatform& tp, const torture::SchedulePilot& pilot,
    const torture::HarnessSnapshot& snap, std::uint64_t boundary);
torture::CrashOutcome WRAP(_ZN4pofi7torture12CrashHarness20run_crash_point_fromERNS_8platform12TestPlatformERKNS0_13SchedulePilotERKNS0_15HarnessSnapshotEm)(
    torture::CrashHarness* self, platform::TestPlatform& tp, const torture::SchedulePilot& pilot,
    const torture::HarnessSnapshot& snap, std::uint64_t boundary) {
  const Span span(Layer::kTortureCrashPoint);
  return REAL(_ZN4pofi7torture12CrashHarness20run_crash_point_fromERNS_8platform12TestPlatformERKNS0_13SchedulePilotERKNS0_15HarnessSnapshotEm)(
      self, tp, pilot, snap, boundary);
}

torture::AuditReport REAL(_ZN4pofi7torture16InvariantAuditor5auditERKNS_3ssd3SsdEPKNS_8platform11ShadowStoreE)(
    const ssd::Ssd& device, const platform::ShadowStore* shadow);
torture::AuditReport WRAP(_ZN4pofi7torture16InvariantAuditor5auditERKNS_3ssd3SsdEPKNS_8platform11ShadowStoreE)(
    const ssd::Ssd& device, const platform::ShadowStore* shadow) {
  const Span span(Layer::kTortureAudit);
  return REAL(_ZN4pofi7torture16InvariantAuditor5auditERKNS_3ssd3SsdEPKNS_8platform11ShadowStoreE)(
      device, shadow);
}

// --- workload, psu -----------------------------------------------------------

workload::RequestSpec REAL(_ZN4pofi8workload17WorkloadGenerator4nextEv)(
    workload::WorkloadGenerator* self);
workload::RequestSpec WRAP(_ZN4pofi8workload17WorkloadGenerator4nextEv)(
    workload::WorkloadGenerator* self) {
  const Span span(Layer::kWorkloadNext);
  return REAL(_ZN4pofi8workload17WorkloadGenerator4nextEv)(self);
}

void REAL(_ZN4pofi3psu11PowerSupply8power_onEv)(psu::PowerSupply* self);
void WRAP(_ZN4pofi3psu11PowerSupply8power_onEv)(psu::PowerSupply* self) {
  const Span span(Layer::kPsuPower);
  REAL(_ZN4pofi3psu11PowerSupply8power_onEv)(self);
}

void REAL(_ZN4pofi3psu11PowerSupply9power_offEv)(psu::PowerSupply* self);
void WRAP(_ZN4pofi3psu11PowerSupply9power_offEv)(psu::PowerSupply* self) {
  const Span span(Layer::kPsuPower);
  REAL(_ZN4pofi3psu11PowerSupply9power_offEv)(self);
}

}  // extern "C"
