#!/usr/bin/env bash
# CI SLO gate over the streaming timeline export (DESIGN.md §18).
#
#   usage: check_slo.sh <timeline.json> [reference.json]
#
# Two layers:
#
#  1. SLO assertions on the whole-crawl `.totals` section: coalescing
#     happened, the ORIGIN model saves a majority of TLS handshakes,
#     tail PLT is bounded, every injected fault was recovered, and the
#     h1 redundancy analysis matches the paper's qualitative claim.
#     Thresholds carry deliberate margin over the committed reference
#     (see values there) so they gate regressions, not noise — the
#     byte-compare below is the exact gate.
#
#  2. Drift: the export is deterministic for the reference flags
#     (2000 sites, seed 0x0516, 25% legacy, reference fault profile,
#     4000 ms windows), so a byte-compare against the committed
#     reference catches ANY behaviour change. Pass `-` as the
#     reference to skip this layer (e.g. for ad-hoc timelines).
#
# Requires jq.
set -euo pipefail

timeline=${1:?usage: check_slo.sh <timeline.json> [reference.json]}
reference=${2:-$(dirname "$0")/../reports/timeline_reference.json}

fail=0
slo() { # slo <label> <jq boolean expr> <jq value expr>
    if jq -e "$2" "$timeline" >/dev/null; then
        echo "SLO ok:   $1 ($(jq -c "$3" "$timeline"))"
    else
        echo "SLO FAIL: $1 — got $(jq -c "$3" "$timeline")" >&2
        fail=1
    fi
}

slo "every injected fault recovered" \
    '.totals.rates.fault_recovery_rate == 1' '.totals.rates.fault_recovery_rate'
slo "measured crawl coalesces (rate >= 0.02)" \
    '.totals.rates.coalesce_rate >= 0.02' '.totals.rates.coalesce_rate'
slo "ORIGIN model saves >= 50% of TLS handshakes" \
    '.totals.rates.tls_reduction_ideal_origin >= 0.5' '.totals.rates.tls_reduction_ideal_origin'
slo "ideal-ORIGIN finds >= 70% of h1 connections redundant" \
    '.totals.rates.h1_redundant_ideal_origin_share >= 0.7' '.totals.rates.h1_redundant_ideal_origin_share'
slo "resolver cache hit rate >= 0.8" \
    '.totals.rates.dns_cache_hit_rate >= 0.8' '.totals.rates.dns_cache_hit_rate'
slo "p99 PLT bounded (<= 20 s)" \
    '.totals.sketches.plt_us.p99 <= 20000000' '.totals.sketches.plt_us.p99'
slo "every visit landed on the timeline" \
    '.totals.counters.visits == ([.windows[].counters.visits] | add)' '.totals.counters.visits'

if [ "$reference" != "-" ]; then
    if cmp -s "$reference" "$timeline"; then
        echo "SLO gate: timeline matches $reference byte for byte"
    else
        cat >&2 <<EOF
SLO gate FAILED: the timeline drifted from $reference.
The export is deterministic for the reference flags, so this is a
behaviour change. If intended, regenerate the committed reference with
scripts/refresh_reports.sh and explain the movement in the commit.
EOF
        fail=1
    fi
fi

exit "$fail"
