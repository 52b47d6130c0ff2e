// Fault-adaptive parallel transfer scheduler.
//
// Sits between the sync engine's resumable upload sessions and
// tcp_connection. A transfer's chunk ranges are striped across K parallel
// connections — each attached to an independent fault domain of the
// environment's injector (fault_injector::domain) — and each stripe is
// optionally extended with R systematic parity shards (net/fec.hpp) so any
// K of the K+R shard completions reconstruct the stripe without waiting on
// a faulted flow. Shards that fault, or that are still in flight past an
// adaptive percentile timeout, are hedged: duplicate-dispatched on the
// earliest-free other connection with first-completion-wins accounting (the
// loser's payload bytes are metered as redundancy, never as payload).
//
// An adaptive controller observes the main connection's per-exchange
// outcomes (fed by the sync engine's retry loop) over a sliding window and
// picks (K, R, hedge timeout) from a small policy lattice. On a clean link
// the observed fault rate stays zero, the decision stays (K=1, R=0), and
// the sync engine falls through to its legacy single-connection serial
// loop — the scheduler draws no RNG and meters no bytes, so enabling it is
// byte-invisible until faults actually appear. Parity and hedge-duplicate
// bytes are metered under traffic_category::redundancy, making the
// redundancy level an explicit cost the TUE reports can trade against tail
// delay (TOFEC's throughput–delay frontier).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/tcp_model.hpp"
#include "net/traffic_meter.hpp"
#include "util/sim_time.hpp"

namespace cloudsync {

class fault_injector;

/// One point of the policy lattice: how the next striped transfer runs.
struct transfer_decision {
  int connections = 1;     ///< K parallel flows
  int parity = 0;          ///< R parity shards per stripe
  sim_time hedge_timeout{};  ///< zero = hedging off

  bool striped() const { return connections > 1; }
};

/// Controller configuration. The escalate thresholds are observed fault
/// rates (faulted exchanges / window) above which the controller moves to
/// the next lattice point: (1,0) → (2,1) → (3,1) → (4,2).
struct transfer_policy {
  bool enabled = false;

  int max_connections = 4;
  int max_parity = 2;

  std::size_t observe_window = 64;  ///< sliding window of exchange outcomes
  std::size_t min_samples = 8;      ///< stay single-connection below this

  double escalate2 = 0.02;  ///< fault rate → (2,1)
  double escalate3 = 0.08;  ///< fault rate → (3,1)
  double escalate4 = 0.20;  ///< fault rate → (4,2)

  /// Hedge timeout = hedge_quantile of observed successful shard durations
  /// times hedge_multiplier, floored at hedge_floor; hedging stays off until
  /// min_samples successes have been seen.
  double hedge_quantile = 0.95;
  double hedge_multiplier = 2.0;
  sim_time hedge_floor = sim_time::from_msec(250);

  /// Pin the decision (bench sweeps): the controller always returns `pin`
  /// (clamped to max_connections/max_parity) regardless of observations.
  bool pinned = false;
  transfer_decision pin{};
};

/// Backoff parameters for the scheduler's recovery rounds — mirrors the
/// fields of the sync engine's retry_policy (client/sync_engine.hpp), which
/// the net layer cannot include; the sync engine copies them over.
struct shard_retry_policy {
  int max_attempts = 6;
  sim_time base_backoff = sim_time::from_msec(500);
  double backoff_multiplier = 2.0;
  sim_time max_backoff = sim_time::from_sec(30);
  double jitter = 0.2;
};

/// Per-shard wire framing, mirroring what the sync engine's serial chunk
/// loop meters per exchange: session chunk control/ack records (metered as
/// `resume`) and HTTP headers (metered as `notification`).
struct shard_wire_costs {
  std::uint64_t control_up = 0;
  std::uint64_t ack_down = 0;
  std::uint64_t http_request_up = 0;
  std::uint64_t http_response_down = 0;
};

/// One chunk of a resumable upload session still awaiting its server ack.
struct chunk_range {
  std::uint32_t index = 0;
  std::uint64_t bytes = 0;
};

/// Per-connection observability (tools/transfer_stats).
struct connection_stats {
  std::uint64_t dispatches = 0;  ///< exchanges attempted on this connection
  std::uint64_t faults = 0;      ///< exchanges that threw transient_fault
  sim_time busy{};               ///< cumulative successful exchange time
  /// Mean successful exchange duration — the scheduler's RTT estimate.
  sim_time rtt_estimate() const {
    const std::uint64_t ok = dispatches - faults;
    return ok ? sim_time::from_usec(busy.usec() / ok) : sim_time{};
  }
  /// Observed fault fraction — the scheduler's loss estimate.
  double loss_estimate() const {
    return dispatches ? static_cast<double>(faults) /
                            static_cast<double>(dispatches)
                      : 0.0;
  }

  bool operator==(const connection_stats&) const = default;
};

struct transfer_stats {
  std::uint64_t observed_success = 0;
  std::uint64_t observed_faults = 0;
  std::uint64_t decisions = 0;    ///< decide() calls
  std::uint64_t escalations = 0;  ///< decisions that left (1,0)
  std::uint64_t stripes = 0;
  std::uint64_t data_shards = 0;
  std::uint64_t parity_shards = 0;
  std::uint64_t hedges_fired = 0;
  std::uint64_t hedges_won = 0;    ///< duplicate finished before the original
  std::uint64_t hedges_cancelled = 0;  ///< original landed before the timeout
  std::uint64_t reconstructions = 0;   ///< chunks delivered via parity decode
  std::uint64_t recovery_rounds = 0;   ///< serial backoff rounds after FEC
  std::uint64_t shard_faults = 0;
  int last_connections = 1;
  int last_parity = 0;
  sim_time last_hedge_timeout{};

  bool operator==(const transfer_stats&) const = default;
};

/// Result of one striped send.
struct striped_outcome {
  sim_time done{};       ///< completion time of the last delivered chunk
  bool complete = false;  ///< every chunk delivered (sent or reconstructed)
};

class transfer_scheduler {
 public:
  transfer_scheduler(link_config link, tcp_config tcp, traffic_meter& meter,
                     transfer_policy policy, shard_retry_policy retry,
                     shard_wire_costs costs, fault_injector* faults);
  ~transfer_scheduler();

  /// Feed the controller one main-connection exchange outcome. Pure
  /// bookkeeping: no RNG draws, no metered bytes — observing a clean link
  /// cannot change any output.
  void observe_success(sim_time duration);
  void observe_fault();

  /// Pick (K, R, hedge timeout) for the next transfer from the current
  /// observation window.
  transfer_decision decide();

  /// Deliver one landed chunk to the server+journal. Called in
  /// deterministic chunk-index order; may throw transient_fault (server
  /// rejected the commit), in which case the chunk re-enters the recovery
  /// rounds.
  using deliver_fn =
      std::function<void(std::uint32_t index, std::uint64_t bytes, sim_time at)>;
  /// Crash-point check (the sync engine's mid_chunk kill site); may throw
  /// client_crash, which propagates out of send_striped.
  using crash_fn = std::function<void(sim_time at)>;

  /// Stripe `chunks` across d.connections flows starting at `start`.
  /// Requires d.striped(). Payload bytes of each delivered chunk are metered
  /// as `payload`; parity shards and losing hedge duplicates as
  /// `redundancy`; per-shard control/ack as `resume` and HTTP headers as
  /// `notification` (mirroring the serial loop). Chunks that survive parity
  /// and hedging undelivered go through bounded serial recovery rounds with
  /// the same backoff/jitter shape as the sync engine's retry loop (jitter
  /// drawn from the shard's own fault domain, never domain 0). Returns
  /// complete=false when recovery attempts are exhausted.
  striped_outcome send_striped(sim_time start,
                               const std::vector<chunk_range>& chunks,
                               const transfer_decision& d,
                               const deliver_fn& deliver,
                               const crash_fn& crash_check);

  void set_link(link_config link);

  const transfer_stats& stats() const { return stats_; }
  const std::vector<connection_stats>& per_connection() const {
    return conn_stats_;
  }
  const transfer_policy& policy() const { return policy_; }

  /// Human-readable dump for tools/transfer_stats.
  std::string summary() const;

 private:
  struct shard;

  void ensure_connections(int k);
  sim_time backoff_delay(int attempt, fault_injector& domain) const;
  void record_outcome(bool fault, sim_time duration);

  link_config link_;
  tcp_config tcp_;
  traffic_meter* meter_;
  transfer_policy policy_;
  shard_retry_policy retry_;
  shard_wire_costs costs_;
  fault_injector* faults_;

  /// Parallel flows c_0..c_{K-1}; c_i uses fault domain i+1, so scheduler
  /// activity never consumes RNG from the environment's main (domain-0)
  /// stream.
  std::vector<std::unique_ptr<tcp_connection>> conns_;
  std::vector<connection_stats> conn_stats_;

  /// Sliding outcome window (true = fault) and successful-duration window.
  std::vector<bool> outcomes_;
  std::size_t outcome_next_ = 0;
  std::vector<sim_time> durations_;
  std::size_t duration_next_ = 0;

  transfer_stats stats_;
};

}  // namespace cloudsync
