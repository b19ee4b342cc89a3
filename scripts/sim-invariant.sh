#!/usr/bin/env bash
# The simulated clock must not depend on the host's core count: run the
# two multi-wave benchmark workloads once at GOMAXPROCS=1 (where the
# worker pool runs every range on the caller) and once at the host's
# width (forced to 2 on a one-core host so the legs differ, and the
# pool fans out), and fail unless sim_cycles_per_op and
# sim_xfer_bytes_per_op are identical between the two legs. Wall-clock
# metrics are not compared.
#
# Usage:  scripts/sim-invariant.sh   (or `make sim-invariant`)
set -euo pipefail

cd "$(dirname "$0")/.."
WIDE="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 2)"
[[ "$WIDE" -gt 1 ]] || WIDE=2

sim() { # sim <GOMAXPROCS> <workload>: "cycles xfer_bytes" of one run
	GOMAXPROCS="$1" "${GO:-go}" run ./bench -workload "$2" -seed 1 -seconds 3 -trace 0 |
		tail -n 1 |
		sed -E 's/.*"sim_cycles_per_op":\{"value":([^,]+),.*"sim_xfer_bytes_per_op":\{"value":([^,]+),.*/\1 \2/'
}

status=0
for w in rows_zoo ebnn_stream; do
	one="$(sim 1 "$w")"
	wide="$(sim "$WIDE" "$w")"
	if [[ "$one" =~ ^[0-9.e+]+\ [0-9.e+]+$ && "$one" == "$wide" ]]; then
		echo "sim-invariant: $w ok (cycles/op, xfer bytes/op = $one at GOMAXPROCS 1 and $WIDE)"
	else
		echo "sim-invariant: $w FAIL: GOMAXPROCS=1 reads '$one', GOMAXPROCS=$WIDE reads '$wide'" >&2
		status=1
	fi
done
exit $status
