// Crash-consistency invariant checker.
//
// After a crash-injected run reaches quiescence (no pending events, no dirty
// paths), these checks prove the recovery subsystem preserved correctness —
// the properties that make the resumable-transfer TUE numbers meaningful:
//
//   convergence         — the client's sync folder and the cloud namespace
//                         hold the same set of live files with byte-identical
//                         content (no lost update, no torn write)
//   journal quiescence  — no open journal records and no open upload
//                         sessions survive (every crashed transaction was
//                         resumed, rolled forward, or discarded)
//   no duplicate commit — each path's cloud version equals the journal's
//                         cumulative committed-transaction count for it (a
//                         replayed commit would overshoot; a lost one would
//                         undershoot). Valid when this client is the path's
//                         only writer, which the crash harness guarantees.
//   meter conservation  — the per-incarnation meters retired at each crash
//                         plus the live meter sum exactly to the station
//                         aggregate, per direction and category (no traffic
//                         vanishes with a dead client).
//
// Violations are collected, not thrown: a bench cell reports every broken
// invariant at once instead of dying on the first.
#pragma once

#include <string>
#include <vector>

#include "client/sync_journal.hpp"
#include "fs/memfs.hpp"
#include "net/traffic_meter.hpp"
#include "storage/cloud.hpp"

namespace cloudsync {

struct invariant_report {
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  void fail(std::string what) { violations.push_back(std::move(what)); }
  /// One line per violation, or "all invariants hold".
  std::string summary() const;

  bool operator==(const invariant_report&) const = default;
};

/// Client files == cloud objects: same live paths, byte-identical content.
void check_convergence(const memfs& fs, const cloud& cl, user_id user,
                       invariant_report& rep);

/// No open journal records; no open upload sessions on the server.
void check_journal_quiescent(const sync_journal& journal, const cloud& cl,
                             invariant_report& rep);

/// Cloud manifest version == journal committed-transaction count per path
/// (single-writer): catches both replayed and silently dropped commits.
void check_no_duplicate_commits(const sync_journal& journal, const cloud& cl,
                                user_id user, invariant_report& rep);

/// `combined` must equal the element-wise sum of `parts` for every
/// (direction, category) cell.
void check_meter_conservation(const traffic_meter& combined,
                              const std::vector<const traffic_meter*>& parts,
                              invariant_report& rep);

}  // namespace cloudsync
