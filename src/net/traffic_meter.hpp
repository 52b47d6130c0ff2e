// The simulation's Wireshark: every byte that crosses the client↔cloud
// boundary is recorded here, tagged by direction and category.
//
// TUE (paper Eq. 1) is computed from these counters:
//   TUE = (total sync traffic, all categories) / (data update size).
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace cloudsync {

enum class direction : std::uint8_t { up, down };  // up = client → cloud

enum class traffic_category : std::uint8_t {
  payload,       ///< file content (possibly compressed / delta-encoded)
  metadata,      ///< indexes, signatures, fingerprints, manifests
  transport,     ///< TCP/IP + TLS framing and handshakes
  notification,  ///< sync notifications, status, acknowledgements
  retry,         ///< bytes wasted on failed attempts and re-sent after faults
  resume,        ///< resumable-transfer control: session handshakes, chunk
                 ///< acks, recovery queries (see client/sync_journal.hpp)
  redundancy,    ///< proactive redundancy of the parallel transfer scheduler:
                 ///< FEC parity shards and hedged duplicate dispatches (see
                 ///< net/transfer_scheduler.hpp) — bytes spent to cut tail
                 ///< delay rather than recover from a fault already seen
  rehydrate,     ///< miss-driven block re-hydration of the client cache tier
                 ///< (see cache/block_cache.hpp): ranged fetches of evicted
                 ///< blocks from the cloud copy of the last-synced version —
                 ///< bytes a full-replica client would never transfer
  kCount
};

const char* to_string(traffic_category c);

class traffic_meter {
 public:
  void record(direction dir, traffic_category cat, std::uint64_t bytes);

  std::uint64_t total() const;
  std::uint64_t total(direction dir) const;
  std::uint64_t by_category(traffic_category cat) const;
  std::uint64_t get(direction dir, traffic_category cat) const;

  /// Everything except payload — the paper's "overhead traffic".
  std::uint64_t overhead() const;

  void reset();

  /// Fold another meter's counters into this one. The crash-recovery harness
  /// uses this to retire a crashed client incarnation's traffic into a
  /// run-level aggregate before the incarnation is destroyed.
  void add(const traffic_meter& other);

  /// Snapshot/delta support for measuring a single operation inside a longer
  /// run: capture before, subtract after.
  struct snapshot {
    std::array<std::uint64_t,
               2 * static_cast<std::size_t>(traffic_category::kCount)>
        counters{};
  };
  snapshot snap() const;
  /// The bytes accumulated since `snap`, per (direction, category). A
  /// snapshot taken before a reset() is stale: each counter delta is clamped
  /// at zero rather than wrapping to ~2^64.
  traffic_meter since(const snapshot& snap) const;
  /// Total bytes accumulated since `snap` (all categories/directions).
  std::uint64_t total_since(const snapshot& snap) const {
    return since(snap).total();
  }

  bool operator==(const traffic_meter&) const = default;

  std::string summary() const;

 private:
  static std::size_t idx(direction dir, traffic_category cat) {
    return static_cast<std::size_t>(dir) *
               static_cast<std::size_t>(traffic_category::kCount) +
           static_cast<std::size_t>(cat);
  }

  std::array<std::uint64_t,
             2 * static_cast<std::size_t>(traffic_category::kCount)>
      counters_{};
};

}  // namespace cloudsync
