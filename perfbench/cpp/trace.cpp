#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench::trace {
namespace {

constexpr std::size_t kMaxDepth = 64;
constexpr std::uint64_t kRawSpanCap = 1u << 16;
constexpr std::uint32_t kNoRaw = ~0u;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RawSpan {
  Layer layer = Layer::kCount;
  std::uint32_t thread = 0;
  std::uint32_t parent = kNoRaw;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct Frame {
  Layer layer;
  std::uint32_t raw;
  std::int64_t start_ns;
  std::int64_t child_ns;
};

std::mutex g_mu;
Table g_retired{};  // totals of threads that have exited since the last take()
std::vector<struct ThreadState*> g_live;
std::atomic<std::uint32_t> g_thread_ids{0};

std::unique_ptr<RawSpan[]> g_raw(new RawSpan[kRawSpanCap]);
std::atomic<std::uint64_t> g_raw_next{0};

std::atomic<std::uint64_t> g_events{0};
std::atomic<std::uint64_t> g_nand_programs{0};
std::atomic<std::uint64_t> g_host_pages{0};
std::atomic<std::uint64_t> g_por_oob_reads{0};

void add(Table& into, const Table& from) {
  for (std::size_t i = 0; i < into.size(); ++i) {
    into[i].calls += from[i].calls;
    into[i].self_ns += from[i].self_ns;
  }
}

struct ThreadState {
  Frame stack[kMaxDepth];
  std::size_t depth = 0;
  std::uint32_t id = g_thread_ids.fetch_add(1, std::memory_order_relaxed);
  Table table{};

  ThreadState() {
    const std::lock_guard lock(g_mu);
    g_live.push_back(this);
  }
  ~ThreadState() {
    const std::lock_guard lock(g_mu);
    add(g_retired, table);
    std::erase(g_live, this);
  }
};

ThreadState& state() {
  thread_local ThreadState ts;
  return ts;
}

}  // namespace

const char* name(Layer layer) {
  switch (layer) {
    case Layer::kSpecLoad: return "spec.load";
    case Layer::kRunnerCampaign: return "runner.campaign";
    case Layer::kTortureExplore: return "torture.explore";
    case Layer::kPlatformRun: return "platform.run";
    case Layer::kPlatformConstruct: return "platform.construct";
    case Layer::kPlatformReset: return "platform.reset";
    case Layer::kPlatformShadow: return "platform.shadow";
    case Layer::kCachePowerLost: return "ssd.cache.power_lost";
    case Layer::kFtlCommittable: return "ftl.committable_count";
    case Layer::kSimQueue: return "sim.queue";
    case Layer::kNandOp: return "nand.op";
    case Layer::kFtlIo: return "ftl.io";
    case Layer::kBlkSubmit: return "blk.submit";
    case Layer::kSsdSubmit: return "ssd.submit";
    case Layer::kFtlRecoverPor: return "ftl.recover_por";
    case Layer::kTortureCrashPoint: return "torture.crash_point";
    case Layer::kTortureAudit: return "torture.audit";
    case Layer::kWorkloadNext: return "workload.next";
    case Layer::kPsuPower: return "psu.power";
    case Layer::kCount: break;
  }
  return "unknown";
}

Span::Span(Layer layer) {
  ThreadState& ts = state();
  std::uint32_t raw = kNoRaw;
  if (g_raw_next.load(std::memory_order_relaxed) < kRawSpanCap) {
    const std::uint64_t idx = g_raw_next.fetch_add(1, std::memory_order_relaxed);
    if (idx < kRawSpanCap) raw = static_cast<std::uint32_t>(idx);
  }
  const std::int64_t start = now_ns();
  if (raw != kNoRaw) {
    g_raw[raw] = RawSpan{layer, ts.id, ts.depth > 0 ? ts.stack[ts.depth - 1].raw : kNoRaw,
                         start, start};
  }
  // Deeper nesting than kMaxDepth is not expected; such spans are not
  // pushed and their time stays with the enclosing span.
  if (ts.depth < kMaxDepth) ts.stack[ts.depth] = Frame{layer, raw, start, 0};
  ++ts.depth;
}

Span::~Span() {
  const std::int64_t end = now_ns();
  ThreadState& ts = state();
  --ts.depth;
  if (ts.depth >= kMaxDepth) return;
  const Frame& f = ts.stack[ts.depth];
  const std::int64_t dur = end - f.start_ns;
  Totals& t = ts.table[static_cast<std::size_t>(f.layer)];
  ++t.calls;
  t.self_ns += dur - f.child_ns;
  if (ts.depth > 0) ts.stack[ts.depth - 1].child_ns += dur;
  if (f.raw != kNoRaw) g_raw[f.raw].end_ns = end;
}

Table take() {
  const std::lock_guard lock(g_mu);
  Table out = g_retired;
  g_retired = Table{};
  for (ThreadState* ts : g_live) {
    add(out, ts->table);
    ts->table = Table{};
  }
  return out;
}

Counters take_counters() {
  return Counters{g_events.exchange(0, std::memory_order_relaxed),
                  g_nand_programs.exchange(0, std::memory_order_relaxed),
                  g_host_pages.exchange(0, std::memory_order_relaxed),
                  g_por_oob_reads.exchange(0, std::memory_order_relaxed)};
}

void count_event() { g_events.fetch_add(1, std::memory_order_relaxed); }

void count_nand_program() { g_nand_programs.fetch_add(1, std::memory_order_relaxed); }

void count_host_pages(std::uint64_t pages) {
  g_host_pages.fetch_add(pages, std::memory_order_relaxed);
}

void count_por_oob_read() { g_por_oob_reads.fetch_add(1, std::memory_order_relaxed); }

bool write_raw_spans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t n = std::min(g_raw_next.load(), kRawSpanCap);
  const std::int64_t origin = n > 0 ? g_raw[0].start_ns : 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const RawSpan& s = g_raw[i];
    std::fprintf(f,
                 "{\"id\":%llu,\"name\":\"%s\",\"thread\":%u,\"parent\":%lld,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(i), name(s.layer), s.thread,
                 s.parent == kNoRaw ? -1LL : static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
