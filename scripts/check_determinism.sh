#!/usr/bin/env bash
# The determinism smokes: every universe `repro` can crawl or serve
# exports the same bytes at --threads 1, 3 and 8, a zeroed option
# reproduces the clean run, and each export shows its subsystem really
# ran. One block per universe below. Requires jq.
#
#   usage: check_determinism.sh <repro-binary> [out-dir]
#
# Outputs land in out-dir (default: a temp dir, removed afterwards)
# under the names CI uploads as artifacts.
set -euo pipefail
repro=$(realpath "${1:?usage: check_determinism.sh <repro-binary> [out-dir]}")
scripts=$(cd "$(dirname "$0")" && pwd)
out=${2:-$(mktemp -d)}
[ $# -ge 2 ] || trap 'rm -rf "$out"' EXIT
mkdir -p "$out" && cd "$out"

# run <stdout-file> <repro args…>: one invocation, exit status ${expect:-0}.
run() {
    local stdout=$1 status=0
    shift
    "$repro" "$@" > "$stdout" 2>> stderr.log || status=$?
    [ "$status" = "${expect:-0}" ] && return
    tail -n 5 stderr.log >&2
    echo "FAIL: repro $* exited $status, want ${expect:-0}" >&2
    exit 1
}

# Metrics are byte-identical once wall-clock runtime_ms (the only
# thread-dependent section) is stripped.
same_metrics() {
    jq -S 'del(.runtime_ms)' "$1" > "$1.stripped"
    jq -S 'del(.runtime_ms)' "$2" > "$2.stripped"
    cmp "$1.stripped" "$2.stripped"
}

# pair <stdout-file> <repro args…>: the same command at 1, 3 and 8
# threads. Every `@` becomes the thread count, so `--threads @ --trace
# tr@.json` names each run's own outputs; stdout and every @-named
# output of the 3- and 8-thread runs must then be byte-identical to the
# 1-thread run's. (12 chunks over 3 workers finish out of order.)
pair() {
    local stdout=$1 prev a t
    shift
    for t in 1 3 8; do run "${stdout//@/$t}" "${@//@/$t}"; done
    for t in 3 8; do
        cmp "${stdout//@/1}" "${stdout//@/$t}"
        prev=''
        for a in "$@"; do
            if [[ $a == *@* && $prev == --metrics ]]; then
                same_metrics "${a//@/1}" "${a//@/$t}"
            elif [[ $a == *@* && $prev != --threads ]]; then
                cmp "${a//@/1}" "${a//@/$t}"
            fi
            prev=$a
        done
    done
}

# zeroed <tag> <flags…>: a zeroed option reproduces clean.{out,json}
# exactly — same stdout, same metrics, so none of its keys materialized.
zeroed() {
    run "$1.out" --sites 500 --threads 8 "${@:2}" --metrics "$1.json"
    cmp "$1.out" clean.out
    same_metrics "$1.json" clean.json
}

# check <file> <jq filter…>: every filter holds (jq -e).
check() {
    local f
    for f in "${@:2}"; do
        jq -e "$f" "$1" > /dev/null && continue
        echo "FAIL: $1: $f" >&2
        exit 1
    done
}

# The source guards fail before anything runs.
"$scripts/check_source.sh"

FAULTS=drop=0.01,h421=0.005,middlebox=0.1
run clean.out --sites 500 --threads 8 --metrics clean.json

# Pure h2: summary, stdout, metrics, and the 1/4-sampled span trace (no
# wall-clock section at all; Chrome trace-event JSON, flows paired).
pair t@.out --sites 500 --threads @ --json t@.json --metrics m@.json --trace tr@.json --sample 1/4
check tr1.json '.traceEvents | length > 0' '[.traceEvents[] | select(.ph == "s")] | length > 0' \
    '([.traceEvents[] | select(.ph == "s")] | length) == ([.traceEvents[] | select(.ph == "f")] | length)'

# Faults: the resilience report shows recoveries firing.
pair f@.out --sites 500 --threads @ --faults $FAULTS --faults-report fr@.json --metrics fm@.json
check fr1.json '.fault_counters."fault.retries" > 0' '.fault_counters."fault.pool_evictions" > 0' \
    '.fault_counters."fault.middlebox_teardowns" > 0' '.impact.plt_inflation_pct >= 0'
zeroed fz --faults drop=0

# Mixed (quarter legacy): legacy pages really ran over HTTP/1.1 and the
# redundancy probe fired. Share 0 is also held to the committed baseline,
# so the flag can never silently move the reference.
pair mx@.out --sites 500 --threads @ --legacy-share 0.25 --redundancy-report rr@.json --metrics mm@.json
check rr1.json '.legacy_pages > 0' '.h1.connections_opened > 0' \
    '.redundant_connections.ideal_origin.count >= .redundant_connections.chromium.count'
zeroed mz --legacy-share 0 --redundancy-report rz.json
"$scripts/check_metrics_baseline.sh" mz.json
check rz.json '.h1.requests == 0' '[.redundant_connections[].count] | add == 0'

# H3 (half h3): the QUIC ledger balances — one handshake per connection,
# 0-RTT only spends banked tickets. Under the reference fault profile
# every fault still recovers and middlebox teardowns suppress Alt-Svc.
pair h3@.out --sites 500 --threads @ --h3-share 0.5 --h3-report h3@.json --metrics hm@.json
check h31.json '.h3_pages > 0' '.h3_counters."h3.connections" > 0' '.h3_counters."h3.qpack_instructions" > 0' \
    '.h3_counters."h3.connections" == .h3_counters."h3.handshakes_1rtt" + .h3_counters."h3.handshakes_0rtt"' \
    '.h3_counters."h3.handshakes_0rtt" + .h3_counters."h3.zero_rtt_rejected" <= .h3_counters."h3.tickets_issued"'
zeroed hz --h3-share 0
"$scripts/check_metrics_baseline.sh" hz.json
check hz.json '.counters | has("h3.connections") | not'
run /dev/null --sites 500 --threads 8 --h3-share 0.5 --faults $FAULTS --timeline htl.json --metrics hfm.json --only t1
check htl.json '.totals.rates.fault_recovery_rate == 1'
check hfm.json '.counters."h3.altsvc_suppressed" > 0' '.counters."h3.connections" > 0'

# Timeline + flight recorder + watch: the windowed export, the
# fault-abort snapshot (both thread counts trip on the same visit; exit
# status 3) and the dashboard, a pure function of the timeline.
OBSERVED="--sites 500 --threads @ --legacy-share 0.25 --faults $FAULTS"
pair tl@.out $OBSERVED --timeline tl@.json --only t1
check tl1.json '.windows | length > 0' '.totals.rates.fault_recovery_rate == 1'
expect=3 pair fl@.out $OBSERVED --flight-recorder fl@.json --fault-abort 4 --only t1
check fl1.json '.events | length > 0'
pair dash@.out watch --site-range 0-99 $OBSERVED --out dash@.txt
grep -q "coalesce rate" dash1.txt

# §5 passive phase: the visit-block fold adds up the same at any split.
pair pv@.out --threads @ --only passive-ip passive-origin --metrics pm@.json

# Serve: summary, per-arm timeline and metrics under a live rollout ramp
# and bounded retention; both arms saw traffic and the pool churned.
pair sv@.out serve --visits 50000 --sites 2000 --rollout 0.5 --rollout-ramp-secs 600 --retain-windows 64 \
    --threads @ --metrics sm@.json --timeline st@.json
check sm1.json '.counters."serve.arm_origin_visits" > 0' '.counters."serve.arm_control_visits" > 0' \
    '.counters."serve.pool_reused" > 0' '.counters."serve.pool_idle_closed" > 0'
check st1.json '.arms.control.windows | length <= 64'

# Every site traced on the mixed universe: indexed names and every
# argument kind cross a shard boundary of the trace buffer's merge.
pair trm@.out --sites 500 --threads @ --only t1 --legacy-share 0.25 --h3-share 0.5 --faults $FAULTS --sample 1/1 --trace trm@.json
check trm1.json '[.traceEvents[] | select(.ph == "X") | (.ts == (.ts | floor)) and (.dur == (.dur | floor))] | length > 0 and all' \
    '[.traceEvents[] | select(.ph == "s") | .id] as $s | [.traceEvents[] | select(.ph == "f") | .id] as $f | ($s | length > 0) and ($s | sort) == ($f | sort)'

# Trace artifacts: rank 3 alone, then kept by the 1/4 sampler under a
# quarter-legacy (h1 spans) and a full-h3 universe (QUIC handshake
# spans, per-request h3 instants).
run /dev/null trace --site 3 --out trace_site3.json
run /dev/null --sites 500 --threads 8 --legacy-share 0.25 --trace trace_mixed.json --sample 1/4 --only t3
run /dev/null --sites 500 --threads 8 --h3-share 1 --trace trace_h3.json --sample 1/4 --only t3
check trace_site3.json '.traceEvents | length > 0'
check trace_mixed.json '.traceEvents | length > 0'
check trace_h3.json '.traceEvents | length > 0' '[.traceEvents[] | select(.name == "quic.handshake")] | length > 0' \
    '[.traceEvents[] | select(.name == "h3.request")] | length > 0'
echo "check_determinism: threads 1, 3 and 8 agree on every universe"
