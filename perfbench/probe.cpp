#include "probe.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

constexpr std::size_t kMaxDepth = 64;

struct frame {
  layer l;
  std::uint64_t start_ns;
  std::uint64_t child_ns;
};

struct thread_block {
  totals acc;
  std::array<std::uint32_t, kLayers> open{};  ///< active spans per layer
  std::array<frame, kMaxDepth> stack{};
  std::size_t depth = 0;
  std::uint64_t last_commit_ns = 0;
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<thread_block>>& registry() {
  static std::vector<std::unique_ptr<thread_block>> blocks;
  return blocks;
}

std::atomic<bool> g_commit_gaps{false};

thread_block& block() {
  thread_local thread_block* tb = [] {
    auto owned = std::make_unique<thread_block>();
    thread_block* raw = owned.get();
    std::lock_guard lock(g_registry_mu);
    registry().push_back(std::move(owned));
    return raw;
  }();
  return *tb;
}

constexpr std::array<const char*, kLayers> kNames = {
    "util.sha256",       "util.md5",           "util.payload_gen",
    "compress.lzss_sizer", "chunking.signature", "chunking.delta",
    "dedup.analyze",     "pipeline.analyze",   "client.plan",
    "net.exchange",      "storage.put",        "storage.commit",
    "trace.generate",
};

}  // namespace

const char* layer_name(layer l) { return kNames[static_cast<std::size_t>(l)]; }

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#ifdef PERFBENCH_TRACED
span::span(layer l, std::uint64_t bytes) : active_(true) {
  thread_block& b = block();
  layer_totals& t = b.acc.layers[static_cast<std::size_t>(l)];
  ++t.calls;
  t.bytes += bytes;
  if (b.depth == kMaxDepth) {  // deeper than any real call chain: count only
    active_ = false;
    return;
  }
  ++b.open[static_cast<std::size_t>(l)];
  b.stack[b.depth++] = frame{l, now_ns(), 0};
}

span::~span() {
  if (!active_) return;
  const std::uint64_t end = now_ns();
  thread_block& b = block();
  const frame f = b.stack[--b.depth];
  const auto li = static_cast<std::size_t>(f.l);
  const std::uint64_t dur = end - f.start_ns;
  layer_totals& t = b.acc.layers[li];
  t.self_ns += dur - std::min(dur, f.child_ns);
  if (--b.open[li] == 0) t.inclusive_ns += dur;  // outermost of its layer
  if (b.depth == 0) {
    b.acc.top_level_ns += dur;
    b.acc.edge_ns[li][kLayers] += dur;
  } else {
    frame& parent = b.stack[b.depth - 1];
    parent.child_ns += dur;
    b.acc.edge_ns[li][static_cast<std::size_t>(parent.l)] += dur;
  }
}
#else
span::span(layer, std::uint64_t) : active_(false) {}
span::~span() = default;
#endif

void note_meter(cloudsync::direction dir, cloudsync::traffic_category cat,
                std::uint64_t bytes) {
  const std::size_t idx =
      static_cast<std::size_t>(dir) *
          static_cast<std::size_t>(cloudsync::traffic_category::kCount) +
      static_cast<std::size_t>(cat);
  if (idx < kMeterCells) block().acc.meter[idx] += bytes;
}

void note_commit() {
  if (!g_commit_gaps.load(std::memory_order_relaxed)) return;
  thread_block& b = block();
  const std::uint64_t now = now_ns();
  if (b.last_commit_ns != 0) b.acc.commit_gaps_ns.push_back(now - b.last_commit_ns);
  b.last_commit_ns = now;
}

void set_commit_gaps(bool on) {
  g_commit_gaps.store(on, std::memory_order_relaxed);
}

void reset() {
  std::lock_guard lock(g_registry_mu);
  for (auto& b : registry()) {
    b->acc = totals{};
    b->last_commit_ns = 0;
  }
}

totals snapshot() {
  totals sum;
  std::lock_guard lock(g_registry_mu);
  for (const auto& b : registry()) {
    for (std::size_t l = 0; l < kLayers; ++l) {
      const layer_totals& t = b->acc.layers[l];
      sum.layers[l].inclusive_ns += t.inclusive_ns;
      sum.layers[l].self_ns += t.self_ns;
      sum.layers[l].calls += t.calls;
      sum.layers[l].bytes += t.bytes;
      for (std::size_t p = 0; p <= kLayers; ++p) {
        sum.edge_ns[l][p] += b->acc.edge_ns[l][p];
      }
    }
    sum.top_level_ns += b->acc.top_level_ns;
    for (std::size_t i = 0; i < kMeterCells; ++i) sum.meter[i] += b->acc.meter[i];
    sum.commit_gaps_ns.insert(sum.commit_gaps_ns.end(),
                              b->acc.commit_gaps_ns.begin(),
                              b->acc.commit_gaps_ns.end());
  }
  return sum;
}

}  // namespace perfbench
