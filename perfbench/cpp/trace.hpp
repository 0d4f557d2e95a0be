// In-memory host-time spans for the benchmark.
//
// A Span is opened around one call into a simulator layer, either by the
// benchmark binary around its own calls (spec load, runner, explorer) or by the
// link-time wrappers in wrap.cpp (traced binary only). Spans nest per
// thread: a span's self time is its duration minus the time its child spans
// cover. Per-layer totals accumulate in memory; the first kRawSpanCap raw
// spans are also kept so they can be written out when the run ends.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace perfbench::trace {

enum class Layer : std::uint8_t {
  kSpecLoad,
  // Containers enclose other layers' work; their self time is callback or
  // scheduling time that no wrapper covers.
  kRunnerCampaign,  // spec::run_campaign, main thread
  kTortureExplore,  // torture::explore, main thread
  kPlatformRun,     // TestPlatform::run
  kPlatformConstruct,
  kPlatformReset,
  kPlatformShadow,
  kCachePowerLost,
  kFtlCommittable,
  kSimQueue,
  kNandOp,
  kFtlIo,
  kBlkSubmit,
  kSsdSubmit,
  kFtlRecoverPor,  // Ftl::recover_por plus the POR read_oob completions
  kTortureCrashPoint,
  kTortureAudit,
  kWorkloadNext,
  kPsuPower,
  kCount,
};

/// Metric-style name of a layer ("ftl.committable_count", ...).
[[nodiscard]] const char* name(Layer layer);

struct Totals {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
};
using Table = std::array<Totals, static_cast<std::size_t>(Layer::kCount)>;

class Span {
 public:
  explicit Span(Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

/// Per-layer totals since the previous take(), then reset. Call only while
/// no span is open on any thread.
[[nodiscard]] Table take();

/// Side counters the wrappers keep beside the spans.
struct Counters {
  std::uint64_t events = 0;  ///< EventQueue::pop calls == events fired
  std::uint64_t nand_programs = 0;
  std::uint64_t host_pages_written = 0;
  /// ChipArray::read_oob calls. Only the FTL's power-on recovery reads OOB
  /// (scan of the candidate blocks plus one compare read per applied hit).
  std::uint64_t por_oob_reads = 0;
};
[[nodiscard]] Counters take_counters();
void count_event();
void count_nand_program();
void count_host_pages(std::uint64_t pages);
void count_por_oob_read();

/// Write the retained raw spans as JSON lines (layer, thread, parent index,
/// start/end ns since the first span). Returns false on an IO error.
bool write_raw_spans(const std::string& path);

}  // namespace perfbench::trace
