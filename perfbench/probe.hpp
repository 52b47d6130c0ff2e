// Measurement taps the benchmark links around the simulator's libraries.
//
// Two kinds, both fed by the -Wl,--wrap wrappers in wrap_*.cpp:
//   - output probes (both binaries): bytes recorded per (direction, category)
//     by every traffic_meter, and host time between consecutive metadata
//     commits on one thread (a fleet replay's per-transaction host latency);
//   - layer spans (traced binary only): inclusive/self ns, calls and bytes
//     per layer, plus the parent->child time matrix.
//
// Each thread writes only its own block; blocks live in a process-wide
// registry and are summed by snapshot() once the workers have joined.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/traffic_meter.hpp"

namespace perfbench {

enum class layer : std::uint8_t {
  sha256,
  md5,
  payload_gen,
  lzss_sizer,
  signature,
  delta,
  dedup_analyze,
  pipeline_analyze,
  client_plan,
  net_exchange,
  storage_put,
  storage_commit,
  trace_generate,
  kCount
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(layer::kCount);
inline constexpr std::size_t kMeterCells =
    2 * static_cast<std::size_t>(cloudsync::traffic_category::kCount);

/// Reported metric name of a layer ("util.sha256", ...).
const char* layer_name(layer l);

struct layer_totals {
  std::uint64_t inclusive_ns = 0;  ///< outermost spans of this layer only
  std::uint64_t self_ns = 0;       ///< span time not covered by child spans
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

struct totals {
  std::array<layer_totals, kLayers> layers{};
  /// edge_ns[child][parent]: inclusive time of `child` spans opened directly
  /// under `parent`; parent index kLayers is the root (no enclosing span).
  std::array<std::array<std::uint64_t, kLayers + 1>, kLayers> edge_ns{};
  std::uint64_t top_level_ns = 0;  ///< time under any span, counted once
  std::array<std::uint64_t, kMeterCells> meter{};  ///< [dir * kCount + cat]
  std::vector<std::uint64_t> commit_gaps_ns;
};

/// RAII span around one call into a layer. A no-op outside the traced binary
/// (PERFBENCH_TRACED).
class span {
 public:
  span(layer l, std::uint64_t bytes);
  ~span();
  span(const span&) = delete;
  span& operator=(const span&) = delete;

 private:
  bool active_;
};

std::uint64_t now_ns();

/// Output-probe hooks called from the wrappers.
void note_meter(cloudsync::direction dir, cloudsync::traffic_category cat,
                std::uint64_t bytes);
void note_commit();
/// Commit-gap sampling is off until the sample turns it on.
void set_commit_gaps(bool on);

/// Zero every thread's accumulators. Call only while no other thread is
/// inside a wrapped function (before the timed phase starts).
void reset();
/// Sum of all threads' blocks. Same quiescence rule as reset().
totals snapshot();

}  // namespace perfbench
