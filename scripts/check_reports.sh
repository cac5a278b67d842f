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

# The docs guard runs first. DESIGN.md says how, not how much: it stays
# small, names no BENCH file, PR or issue by number, and every
# `DESIGN.md §N` citation elsewhere (CHANGES.md and ROADMAP.md are
# history) names an existing `## N.` heading — and, as `§N "Title"`, a
# `### Title` heading or a bold lead-in `**Title.**` inside it. A
# citation may wrap across a line or a comment leader.
docs_fail=0
for limit in DESIGN.md:45000 README.md:17000; do
    size=$(wc -c < "$repo/${limit%%:*}")
    if [ "$size" -gt "${limit#*:}" ]; then
        echo "docs FAIL: ${limit%%:*} is $size bytes, over ${limit#*:}" >&2
        docs_fail=1
    fi
done
if grep -nE 'BENCH_[0-9]+|\b(PR|ISSUE) [0-9]+' "$repo/DESIGN.md" >&2; then
    echo "docs FAIL: DESIGN.md names a BENCH file, PR or issue by number" >&2
    docs_fail=1
fi
mapfile -t cites < <(grep -rlZ --exclude-dir={.git,target,.bench_build} \
    --exclude={CHANGES.md,ROADMAP.md,DESIGN.md} 'DESIGN\.md' "$repo" | xargs -0r perl -0777 -ne '
    while (/DESIGN\.md`?(?:\s|\/\/[\/!]?|#)*\xc2\xa7(\d+)(?:(?:\s|\/\/[\/!]?|#)*"([^"]+)")?/g) {
        print "$ARGV\t$1\t$2\n";
    }')
if ! perl -e '
    my ($n, %have);
    open my $d, "<", shift or die;
    while (<$d>) {
        $have{$n = $1} = 1 if /^## (\d+)\./;
        $have{"$n\t$1"} = 1 if defined $n && /^### (.+?)\s*$/;
        $have{"$n\t$1"} = 1 if defined $n && /^\*\*(.+?)\.\*\*/;
    }
    my $bad = 0;
    for (@ARGV) {
        my ($file, $sec, $title) = split /\t/;
        my $key = length $title ? "$sec\t$title" : $sec;
        next if $have{$key};
        print STDERR "docs FAIL: $file cites DESIGN.md \xc2\xa7$sec",
            (length $title ? " \"$title\"" : ""), ", which DESIGN.md lacks\n";
        $bad = 1;
    }
    exit $bad;' "$repo/DESIGN.md" "${cites[@]}"; then
    docs_fail=1
fi
if [ "$docs_fail" != 0 ]; then
    echo "check_reports FAILED: the docs guard (see above)" >&2
    exit 1
fi
echo "docs ok:      DESIGN.md and README.md sizes, DESIGN.md numbers, ${#cites[@]} citations"

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
