#!/usr/bin/env bash
# Run the five gated reports' full grids and the memo report, and compare
# each JSON they write with the committed BENCH_*.json byte for byte.
#
#   tools/report_identity.sh [build-dir]
#
# Build the default preset first: the committed files come from it. Each
# report also exits non-zero unless its own self-checks pass, and that
# verdict is kept. The JSONs carry no host or timing field, so a differing
# byte is changed behaviour. To re-record a file after a change meant to
# move it, run its report from the repo root with the committed name as the
# output path, e.g. `./build/bench/transfer_frontier_report BENCH_transfer.json`.
set -uo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT

status=0
for pair in failure_tue:BENCH_failure.json \
            crash_recovery_tue:BENCH_crash.json \
            transfer_frontier_report:BENCH_transfer.json \
            protocol_selector_report:BENCH_protocol.json \
            cache_tier_report:BENCH_cache.json \
            hotpath_report:BENCH_hotpath.json; do
  report="${pair%%:*}"
  file="${pair#*:}"
  if ! "$build_dir/bench/$report" "$out_dir/$file"; then
    echo "FAIL: $report self-checks"
    status=1
  fi
  if cmp "$repo_root/$file" "$out_dir/$file"; then
    echo "identical: $file"
  else
    echo "FAIL: $report output differs from the committed $file"
    status=1
  fi
done
exit "$status"
