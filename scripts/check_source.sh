#!/usr/bin/env bash
# The source guards: each rule below says where one thing is written,
# and fails the script, naming the offending lines, if it is written
# anywhere else. They read only the sources, so CI runs them before any
# build; `check_determinism.sh` starts with them too. Requires perl.
#
#   usage: check_source.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# One JSON writer: `origin_netsim::json` is the only source file that
# may spell an escape table or a conditional list separator. (-z: the
# separator idiom spans two lines.)
src=(crates/*/src)
if grep -rnE --include='*.rs' --exclude=json.rs '\\\\\\"|\\\\u\{|replace\(.\"' "${src[@]}" ||
    grep -rlPz --include='*.rs' --exclude=json.rs \
        '(if i > 0|if !first)[^\n]*\{\s*\n[^\n]*push(_str)?\(\s*.,|comma = if|\{ "," \} else' "${src[@]}"; then
    echo "FAIL: a JSON escaper or separator idiom outside crates/netsim/src/json.rs" >&2
    exit 1
fi

# The stages simulate, one step reports: in the loader, `self.tracer` and
# `self.flight` may appear only in `Visit::report` and in the one line of
# `Visit::resolve` that hands the tracer to the resolver.
if awk '
    /^ *(pub(\([a-z]+\))? )?fn [a-z_]+/ { match($0, /fn [a-z_]+/); cur = substr($0, RSTART + 3, RLENGTH - 3) }
    /self\.(tracer|flight)/ && cur != "report" && (cur != "resolve" || ++handoffs > 1) {
        print FILENAME ":" FNR ": " $0
        bad = 1
    }
    END { exit !bad }
' crates/browser/src/loader.rs >&2; then
    echo "FAIL: a loader stage writes a telemetry sink outside Visit::report" >&2
    exit 1
fi

# One coalescing rule: outside its tests the pool matches on the policy
# once, and the full-scan oracle lives only in test modules. A file's
# code ends at its first top-level `#[cfg(test)]`.
nontest() { awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t { print FILENAME ":" FNR ": " $0 }' "$@"; }
pool=crates/browser/src/pool.rs
mapfile -t rs < <(find "${src[@]}" crates/bench/benches -name '*.rs')
matches=$(nontest "$pool" | grep 'match policy' || true)
if [ "$(grep -c . <<< "$matches")" != 1 ] && echo "$matches" >&2 ||
    nontest "$pool" | grep -E 'fn (explain_coalesce|decide_indexed)\b' >&2 ||
    nontest "${rs[@]}" | grep decide_linear >&2; then
    echo "FAIL: the coalescing rule is stated outside pool.rs's one policy match, or the oracle left its tests" >&2
    exit 1
fi

# One home each: outside its tests, only `origin_netsim::hash` spells the
# FNV-1a prime or the Fx multiplier (hex literals compared with `_`
# stripped), only `fold_chunks` starts threads, and no crate depends on
# the folded `origin-stats`, on `origin-intern` (the harness's alone) or
# on the telemetry shells `origin-{metrics,trace,obs}`, nor does any
# source name them: workspace code reaches telemetry as `origin_telemetry`.
mapfile -t lib < <(find "${src[@]}" -name '*.rs')
code=()
for d in crates/*/{src,tests,benches,examples} src tests examples; do
    if [ -d "$d" ]; then code+=("$d"); fi
done
if nontest "${lib[@]}" | grep -v 'crates/netsim/src/hash\.rs:' |
    sed 's/_//g' | grep -iE '0x0*100000001b3\b|0x0*517cc1b727220a95\b' >&2 ||
    nontest "${lib[@]}" | grep -v 'crates/netsim/src/shard\.rs:' | grep -E 'thread::(scope|spawn)' >&2 ||
    grep -nE '^\s*origin-(stats|intern|metrics|trace|obs)\b' Cargo.toml crates/*/Cargo.toml >&2 ||
    grep -rnE --include='*.rs' '\borigin_(metrics|trace|obs|intern)::' "${code[@]}" >&2; then
    echo "FAIL: a hash constant outside netsim/src/hash.rs, a thread started outside fold_chunks, or a dependency on origin-stats/origin-intern or a telemetry shell" >&2
    exit 1
fi

# The world keeps only what a run reads: a host's AS is read off its
# addresses (no hostname → u32 map in the universe), a CT log is its
# operator's entry count (no per-entry `Vec` field) and a certificate's
# filler SANs are a count (the generator formats no `alt-{i}` name).
if nontest crates/webgen/src/universe.rs | grep -E 'Map<DnsName, *u32>' >&2 ||
    nontest crates/tls/src/ctlog.rs | grep -E ': +(pub )?[a-z_]+: Vec<' | grep -v 'Vec<CtLog>' >&2 ||
    nontest crates/webgen/src/dataset.rs | grep -F 'alt-{' >&2; then
    echo "FAIL: universe.rs maps a hostname to a u32, ctlog.rs keeps a Vec of entries, or dataset.rs formats filler names" >&2
    exit 1
fi

# One home for the harness-only API: the adapters the frozen benchmark
# harness under `benchmark/` still calls live in each crate's
# `harness_compat.rs`, and only there (and in those files' tests) may
# Rust code name them: the interning `HostTable`/`HostId`, the owning
# DNS `Resolver` and its `Transport`, the owned HTTP/1.1
# `Event`/`Request`/`Response`, `run_crawl_observed` and
# `wire_spot_check_metrics`, by any path (`origin_dns::` or the root
# package's `dns::`). A `use` list is read across lines.
mapfile -t rust < <(find "${code[@]}" -name '*.rs' ! -name harness_compat.rs | sort)
if perl -0777 -ne '
    while (/\b(?:HostTable|HostId|run_crawl_observed|wire_spot_check_metrics)\b
           | \b(?:origin_)?dns::(?:\w+::)*(?:Resolver|Transport)\b
           | \b(?:origin_)?dns::\{[^}]*\b(?:Resolver|Transport)\b
           | \bResolver::new\b
           | \b(?:origin_)?h1::(?:\w+::)*(?:Event|Request|Response)\b
           | \b(?:origin_)?h1::\{[^}]*\b(?:Event|Request|Response)\b/gx) {
        my $line = 1 + (substr($_, 0, $-[0]) =~ tr/\n//);
        print STDERR "$ARGV:$line: ", (split /\n/, $&)[0], "\n";
        $bad = 1;
    }
    END { exit !$bad }
' "${rust[@]}"; then
    echo "FAIL: code outside benchmark/ and the harness_compat.rs files names a harness-only adapter" >&2
    exit 1
fi
