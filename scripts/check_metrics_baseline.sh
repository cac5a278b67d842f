#!/usr/bin/env bash
# CI perf gate: compare the deterministic sections of a fresh
# `repro --metrics` export against the committed baseline.
#
#   usage: check_metrics_baseline.sh <metrics.json> [baseline.json]
#
# Work counters (h2 frames decoded, DNS lookups, connections opened,
# …), histograms, and simulated phase totals are byte-stable across
# machines and thread counts, so ANY drift means the pipeline is doing
# a different amount of work than the commit that last refreshed the
# baseline. Wall-clock `runtime_ms` is stripped before comparing, and
# so are the optional-subsystem counter families listed below: the
# committed baseline is a clean pure-h2 unobserved run where they are
# absent by design (such counters only materialize when their
# subsystem actually did something; DESIGN.md §16), so exports from
# mixed / faulted / observed runs can still be gated against it.
#
# Requires jq.
set -euo pipefail

metrics=${1:?usage: check_metrics_baseline.sh <metrics.json> [baseline.json]}
baseline=${2:-$(dirname "$0")/../reports/metrics_baseline.json}

# The one list of optional counter-family prefixes. Extend it when a
# new gated-when-silent subsystem appears; never special-case one
# family in the jq below.
optional_prefixes='["h1.", "h3.", "fault.", "obs."]'

strip="del(.runtime_ms) | .counters |= with_entries(select(.key as \$k | ${optional_prefixes} | map(\$k | startswith(.)) | any | not))"
if diff -u \
    <(jq -S "$strip" "$baseline") \
    <(jq -S "$strip" "$metrics"); then
    echo "perf gate: work counters match $baseline"
else
    cat >&2 <<'EOF'

perf gate FAILED: the pipeline's work counters drifted from
reports/metrics_baseline.json (see diff above; left = baseline,
right = this run).

If the drift is an intended behaviour change, regenerate the committed
baseline with scripts/refresh_reports.sh and include it in the same
commit, explaining the counter movement in the commit message.
EOF
    exit 1
fi
