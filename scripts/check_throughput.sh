#!/usr/bin/env bash
# Throughput drift gate against a committed BENCH_*.json baseline.
#
#   usage: check_throughput.sh <metrics.json> <baseline.json>
#          check_throughput.sh --measure '<command with {out}>' <baseline.json>
#
# First form: computes workload/sec from the wall-clock runtime in an
# existing `--metrics` export and compares it with the `after`
# throughput recorded in the baseline file.
#
# Second form: runs the measurement command THROUGHPUT_RUNS times
# (default 3), substituting `{out}` with a fresh metrics path each
# run, prints every run's rate (the noise floor is visible in CI
# logs), and gates on the best run — the same best-of-N discipline the
# committed baselines were recorded with.
#
# The baseline file is self-describing; a missing key fails the gate:
#   .runtime_key         key under .runtime_ms to read
#   .workload_count      units of work per run
#   .after.rate_per_sec  baseline units/sec
#
# Environment:
#   THROUGHPUT_RUNS       best-of-N for --measure mode (default 3)
#   THROUGHPUT_MIN_RATIO  minimum acceptable measured/baseline ratio
#                         (default 0.8, i.e. fail at >20% regression)
#   THROUGHPUT_WARN_ONLY  when set to 1, a breach prints the notice but
#                         exits 0 (an advisory gate)
#
# Requires jq.
set -euo pipefail

usage="usage: check_throughput.sh <metrics.json>|--measure '<cmd with {out}>' <baseline.json>"

mode=metrics
measure_cmd=""
if [ "${1:-}" = "--measure" ]; then
    mode=measure
    measure_cmd=${2:?$usage}
    baseline=${3:?$usage}
else
    metrics=${1:?$usage}
    baseline=${2:?$usage}
fi
min_ratio=${THROUGHPUT_MIN_RATIO:-0.8}
warn_only=${THROUGHPUT_WARN_ONLY:-0}
runs=${THROUGHPUT_RUNS:-3}

runtime_key=$(jq -er '.runtime_key' "$baseline")
workload=$(jq -er '.workload_count' "$baseline")
base_rate=$(jq -er '.after.rate_per_sec' "$baseline")

rate_from_metrics() {
    local ms
    ms=$(jq -r ".runtime_ms.${runtime_key}" "$1")
    jq -n --arg w "$workload" --arg ms "$ms" '($w|tonumber) / (($ms|tonumber) / 1000)'
}

if [ "$mode" = "measure" ]; then
    # The measurement command must write a --metrics export to {out};
    # run it N times and keep the fastest (best-of-N).
    best_rate=0
    worst_rate=""
    tmpdir=$(mktemp -d)
    trap 'rm -rf "$tmpdir"' EXIT
    for i in $(seq 1 "$runs"); do
        out="$tmpdir/metrics_$i.json"
        eval "${measure_cmd//\{out\}/$out}" >/dev/null
        r=$(rate_from_metrics "$out")
        printf 'throughput run %d/%d: %.0f %s/sec\n' "$i" "$runs" "$r" "$runtime_key"
        if jq -e -n --arg r "$r" --arg b "$best_rate" \
            '($r|tonumber) > ($b|tonumber)' >/dev/null; then
            best_rate=$r
        fi
        if [ -z "$worst_rate" ] || jq -e -n --arg r "$r" --arg w "$worst_rate" \
            '($r|tonumber) < ($w|tonumber)' >/dev/null; then
            worst_rate=$r
        fi
    done
    rate=$best_rate
    printf 'throughput best-of-%d: %.0f %s/sec (spread %.0f–%.0f, %.1f%%)\n' \
        "$runs" "$rate" "$runtime_key" "$worst_rate" "$best_rate" \
        "$(jq -n --arg b "$best_rate" --arg w "$worst_rate" \
            'if ($b|tonumber) > 0 then 100 * (($b|tonumber) - ($w|tonumber)) / ($b|tonumber) else 0 end')"
else
    rate=$(rate_from_metrics "$metrics")
fi

ratio=$(jq -n --arg r "$rate" --arg b "$base_rate" '($r|tonumber) / ($b|tonumber)')

printf 'throughput gate: %s %.0f/sec over %s units (baseline %.0f, ratio %.2f, floor %.2f)\n' \
    "$runtime_key" "$rate" "$workload" "$base_rate" "$ratio" "$min_ratio"

if jq -e -n --arg ratio "$ratio" --arg min "$min_ratio" \
    '($ratio|tonumber) < ($min|tonumber)' >/dev/null; then
    cat >&2 <<EOF

FAIL: ${runtime_key} throughput fell below ${min_ratio}x of the committed
$(basename "$baseline") baseline. Wall clock depends on the machine; if
this machine is known to be comparable, a hot path has regressed.
Re-measure (best of several runs, THROUGHPUT_RUNS to raise N) and
compare runtime_ms.${runtime_key} against $(basename "$baseline"). Set
THROUGHPUT_WARN_ONLY=1 to downgrade this gate to a warning, or
THROUGHPUT_MIN_RATIO to move the floor.
EOF
    if [ "$warn_only" != "1" ]; then
        exit 1
    fi
    echo "(THROUGHPUT_WARN_ONLY=1: continuing despite the breach)" >&2
fi
exit 0
