#!/usr/bin/env bash
# Read-only twin of refresh_reports.sh: regenerate every committed
# reference artifact into a temp dir (same commands — it *calls*
# refresh_reports.sh) and byte-compare each against reports/. Any
# difference means the simulation's behaviour changed since the
# reports were last refreshed.
#
# `metrics_baseline.json` is compared like everything else: the
# refresh already strips wall-clock `runtime_ms` with `jq -S`.
#
# Requires jq. Run from anywhere; writes nothing under the repository.
set -euo pipefail
repo=$(cd "$(dirname "$0")/.." && pwd)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
"$repo/scripts/refresh_reports.sh" "$tmp" 2>/dev/null

fail=0
# Both directions: a committed report the refresh no longer writes is
# as stale as one whose bytes drifted.
for name in $( (ls "$repo/reports"; ls "$tmp/reports") | sort -u); do
    if cmp -s "$repo/reports/$name" "$tmp/reports/$name"; then
        echo "reports ok:   $name"
    else
        echo "reports FAIL: $name differs from a fresh run" >&2
        fail=1
    fi
done
if [ "$fail" != 0 ]; then
    cat >&2 <<'MSG'

check_reports FAILED: a committed file under reports/ no longer
regenerates byte-identical. If the change is intended, run
scripts/refresh_reports.sh and commit reports/ with an explanation.
MSG
    exit 1
fi
echo "check_reports: every committed report regenerates byte-identical"
