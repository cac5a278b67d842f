#!/usr/bin/env bash
# Code size by one fixed rule, so two commits' figures compare.
#
#   usage: size.sh
#
# A non-test line is any line of a `.rs` file under `crates/<c>/src` (or
# the root `src/`) above that file's first top-level `#[cfg(test)]` —
# the same cut `check_determinism.sh` makes. `tests/`, `benches/` and
# `examples/` do not count. A crate is a *shell* when its `src` holds only
# `lib.rs` and that file's code, comments and blank lines aside, is one
# `pub use`: shells are listed apart and counted neither in the total nor
# in the crate count. Edges are the dependency edges of the resolved
# workspace graph (`cargo metadata --offline`, every kind). Requires jq.
set -euo pipefail
repo=$(cd "$(dirname "$0")/.." && pwd)
cd "$repo"

nontest() { awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t' "$@" | wc -l; }

is_shell() {
    local files
    files=$(find "$1/src" -name '*.rs')
    [ "$files" = "$1/src/lib.rs" ] || return 1
    [ "$(grep -vE '^\s*(//|$)' "$1/src/lib.rs" | grep -c .)" = 1 ] &&
        grep -qE '^pub use [a-z_:]+::\*;$' "$1/src/lib.rs"
}

total=0 crates=0 shells=()
printf '%-16s %7s\n' crate lines
for dir in crates/*/; do
    dir=${dir%/}
    mapfile -t rs < <(find "$dir/src" -name '*.rs' | sort)
    n=$(nontest "${rs[@]}")
    if is_shell "$dir"; then
        shells+=("$(printf '%-16s %7s' "${dir#crates/}" "$n")")
        continue
    fi
    printf '%-16s %7s\n' "${dir#crates/}" "$n"
    total=$((total + n))
    crates=$((crates + 1))
done
mapfile -t rs < <(find src -name '*.rs' | sort)
n=$(nontest "${rs[@]}")
printf '%-16s %7s\n' '(root src/)' "$n"
total=$((total + n))
printf '%-16s %7s\n' total "$total"
if [ ${#shells[@]} -gt 0 ]; then
    echo "shells (re-export only, not counted):"
    printf '%s\n' "${shells[@]}"
fi
edges=$(cargo metadata --offline --format-version 1 | jq '[.resolve.nodes[].deps | length] | add')
echo "crates $crates, shells ${#shells[@]}, dependency edges $edges"
