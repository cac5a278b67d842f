#!/usr/bin/env bash
# Regenerate every committed reference artifact after an intentional
# behaviour change:
#
#   reports/repro_full.txt        reference stdout (EXPERIMENTS.md numbers)
#   reports/repro_full.log        reference stderr (progress + wire checks)
#   reports/series.json           raw figure series for the same run
#   reports/metrics_baseline.json deterministic work counters gated by CI
#   reports/trace_site2.json      reference Perfetto span trace of the
#                                 rank-2 visit (EXPERIMENTS.md tracing)
#   reports/faults_reference.json resilience report for the reference
#                                 fault profile (EXPERIMENTS.md faults)
#   reports/redundancy_reference.json
#                                 redundant-connections report for the
#                                 reference mixed universe (25% legacy;
#                                 EXPERIMENTS.md redundancy)
#   reports/timeline_reference.json
#                                 streaming time-series export of the
#                                 observed reference crawl, gated by
#                                 scripts/check_slo.sh in CI
#                                 (EXPERIMENTS.md time series)
#   reports/h3_reference.json     h2-vs-h3 comparison for the
#                                 reference h3 universe (50% h3 share;
#                                 EXPERIMENTS.md h3)
#   reports/serve_timeline_reference.json
#   reports/serve_metrics_reference.json
#                                 per-arm timeline and runtime-stripped
#                                 metrics of a retained `repro serve`
#                                 rollout run — the byte-identity pin
#                                 for the serve record path
#
# The full reference run matches EXPERIMENTS.md (6,000 sites, seed
# 0x0516, one thread — thread count only affects wall clock, but the
# log banner prints it). The metrics baseline matches the flags the CI
# perf-gate job uses, with wall-clock `runtime_ms` stripped so the
# committed file is machine-independent.
#
#   usage: refresh_reports.sh [root]
#
# Artifacts land in <root>/reports/ (default: the repository, i.e. the
# committed files). scripts/check_reports.sh passes a temp dir and
# compares instead of overwriting. The run happens *inside* <root>
# with relative `reports/…` paths because repro_full.log echoes the
# `--json` path it was given.
#
# Requires jq. Run from anywhere; commits nothing.
set -euo pipefail
repo=$(cd "$(dirname "$0")/.." && pwd)
repro=$repo/target/release/repro

(cd "$repo" && cargo build --release -p origin-bench)
mkdir -p "${1:-$repo}/reports"
cd "${1:-$repo}"

echo "refresh: full reference run (6000 sites)…" >&2
"$repro" --sites 6000 --threads 1 --json reports/series.json \
    >reports/repro_full.txt 2>reports/repro_full.log

echo "refresh: metrics baseline (perf-gate flags)…" >&2
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
"$repro" --sites 500 --metrics "$tmp" >/dev/null 2>&1
jq -S 'del(.runtime_ms)' "$tmp" >reports/metrics_baseline.json

echo "refresh: reference span trace (rank-2 visit)…" >&2
"$repro" trace --site 2 --out reports/trace_site2.json 2>/dev/null
jq -e '.traceEvents | length > 0' reports/trace_site2.json >/dev/null

echo "refresh: resilience report (reference fault profile)…" >&2
"$repro" --sites 2000 --faults drop=0.01,h421=0.005,middlebox=0.1 \
    --faults-report reports/faults_reference.json --only t1 >/dev/null 2>&1
jq -e '.fault_counters."fault.retries" > 0' reports/faults_reference.json >/dev/null

echo "refresh: redundancy report (reference mixed universe, 25% legacy)…" >&2
"$repro" --sites 2000 --legacy-share 0.25 \
    --redundancy-report reports/redundancy_reference.json --only t3 >/dev/null 2>&1
jq -e '.h1.connections_opened > 0' reports/redundancy_reference.json >/dev/null

echo "refresh: timeline reference (observed mixed faulted universe)…" >&2
"$repro" --sites 2000 --threads 1 --legacy-share 0.25 \
    --faults drop=0.01,h421=0.005,middlebox=0.1 \
    --timeline reports/timeline_reference.json --only t1 >/dev/null 2>&1
# The fresh reference must clear its own SLO gate (drift layer is a
# self-compare here; the thresholds are the real check).
"$repo/scripts/check_slo.sh" reports/timeline_reference.json reports/timeline_reference.json >/dev/null

echo "refresh: h3 report (reference h3 universe, 50% share)…" >&2
"$repro" --sites 2000 --h3-share 0.5 \
    --h3-report reports/h3_reference.json --only t3 >/dev/null 2>&1
jq -e '.h3_counters."h3.connections" > 0' reports/h3_reference.json >/dev/null

echo "refresh: serve references (50k visits, rollout 0.5, 16 retained windows)…" >&2
"$repro" serve --visits 50000 --sites 2000 --rollout 0.5 --rollout-ramp-secs 600 \
    --retain-windows 16 --threads 1 \
    --timeline reports/serve_timeline_reference.json --metrics "$tmp" >/dev/null 2>&1
jq -S 'del(.runtime_ms)' "$tmp" >reports/serve_metrics_reference.json
jq -e '.arms.origin.totals.counters.visits > 0' reports/serve_timeline_reference.json >/dev/null

echo "refresh: done — review the diff, then commit reports/" >&2
