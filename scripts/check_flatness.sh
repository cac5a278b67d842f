#!/usr/bin/env bash
# Flatness gate: a crawl must cost per site what one visit costs, not
# what the crawl has cost so far (DESIGN.md §10).
#
#   usage: check_flatness.sh [path/to/repro]
#
# Runs the single-thread crawl phase at 1,000 and at 10,000 sites,
# three times each (interleaved, so a slow period of the machine hits
# both sizes), keeps the fastest `runtime_ms.crawl` of each size, and
# fails when the per-site cost at 10,000 sites exceeds 1.35 times the
# cost at 1,000. Before worker state was bounded by the visit the ratio
# measured ≈1.65–1.7 and kept growing with the universe; since, it
# measures ≈1.0–1.1 (what is left is the dataset outgrowing the CPU
# cache).
#
# A ratio of two runs on one machine, so no committed baseline and no
# machine-comparability caveat. Requires jq. Without an argument the
# script builds and uses target/release/repro.
set -euo pipefail
repo=$(cd "$(dirname "$0")/.." && pwd)

repro=${1:-}
if [ -z "$repro" ]; then
    cargo build --release --manifest-path "$repo/Cargo.toml" -p origin-bench --bin repro
    repro="$repo/target/release/repro"
fi
runs=3
max_ratio=1.35
small=1000
large=10000

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Fastest crawl phase seen so far per universe size, in ms.
best_small=""
best_large=""
for i in $(seq 1 "$runs"); do
    for sites in $small $large; do
        # `--only t1` skips the §5 phases; the crawl phase is the same.
        "$repro" --sites "$sites" --threads 1 --only t1 \
            --metrics "$tmp/m.json" >/dev/null 2>&1
        ms=$(jq -r '.runtime_ms.crawl' "$tmp/m.json")
        printf 'flatness run %d/%d: %6d sites  crawl %9.1f ms  %6.1f us/site\n' \
            "$i" "$runs" "$sites" "$ms" \
            "$(jq -n --arg ms "$ms" --arg n "$sites" '1000 * ($ms|tonumber) / ($n|tonumber)')"
        if [ "$sites" = "$small" ]; then
            best_small=$(jq -n --arg a "${best_small:-$ms}" --arg b "$ms" '[$a, $b | tonumber] | min')
        else
            best_large=$(jq -n --arg a "${best_large:-$ms}" --arg b "$ms" '[$a, $b | tonumber] | min')
        fi
    done
done

ratio=$(jq -n --arg s "$best_small" --arg l "$best_large" --arg ns "$small" --arg nl "$large" \
    '(($l|tonumber) / ($nl|tonumber)) / (($s|tonumber) / ($ns|tonumber))')
printf 'flatness gate: best-of-%d cost/site at %d sites is %.2fx the cost at %d (ceiling %.2f)\n' \
    "$runs" "$large" "$ratio" "$small" "$max_ratio"

if jq -e -n --arg r "$ratio" --arg m "$max_ratio" '($r|tonumber) > ($m|tonumber)' >/dev/null; then
    cat >&2 <<EOF

FAIL: per-site crawl cost grows with the universe. Something a crawl
worker carries between visits (pool, resolver, arena, env) is keeping
keys, not just capacity, or its per-visit reset walks more than the
visit touched. The count-based proof is the browser crate's
worker_state_is_bounded_by_the_largest_visit test.
EOF
    exit 1
fi
