#!/usr/bin/env bash
# Memory gate: a command must peak at or below a resident-set ceiling.
#
#   usage: check_peak_rss.sh CEILING_MIB -- cmd [args…]
#
# Runs `cmd` as a child of `python3` and reads the child's peak
# resident set (`ru_maxrss`, KiB on Linux) through
# `resource.getrusage(RUSAGE_CHILDREN)`, so it needs no
# `/usr/bin/time`. Fails when the command fails or when its peak is
# above CEILING_MIB; prints the peak either way. The reading never
# goes below the interpreter's own resident set (≈ 14 MiB), which the
# child holds between fork and exec. The command's stdout is passed
# through; the verdict goes to stderr.
set -euo pipefail

if [ $# -lt 3 ] || [ "$2" != "--" ]; then
    echo "usage: $0 CEILING_MIB -- cmd [args…]" >&2
    exit 2
fi
ceiling=$1
shift 2

python3 - "$ceiling" "$@" <<'EOF'
import resource
import subprocess
import sys

ceiling = float(sys.argv[1])
status = subprocess.run(sys.argv[2:]).returncode
peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
verdict = "ok" if status == 0 and peak_mib <= ceiling else "FAIL"
print(f"{verdict}: peak RSS {peak_mib:.1f} MiB (ceiling {ceiling:g} MiB), exit status {status}",
      file=sys.stderr)
sys.exit(0 if verdict == "ok" else 1)
EOF
