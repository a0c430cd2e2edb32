#!/usr/bin/env bash
# Host cost per message as the simulated cluster grows, parent against
# change:
#
#   scripts/cluster-curve.sh <parent-ref> [rounds=3]
#
# Both sides build cmd/clustersim from sibling snapshots under the
# ignored .bench_build/curve/ (snapshot.sh). Each round runs the
# dissemination protocol with sim-cluster's shape (bench/sim.go: work
# 400 + jitter 100, region 150, latency 12 + jitter 25, drop 0.2, dup
# 0.08) at 256, 1,024, 4,096 and 16,384 nodes with equal node-episodes
# (epochs = 19·4096/n, rounded), one seed per round, parent and change
# back to back at each size, alternating which goes first. Per round it
# prints, for each side, the host ns per message plus retransmission at
# every size (the wall time of the whole clustersim process, setup and
# output included, over sends + retransmits from its summary line) and
# the 16,384 ÷ 256 ratio. Compare within a round only: the same commit
# has read 172 and then 222 ns per event at 256 nodes minutes apart.
set -euo pipefail
[ $# -ge 1 ] || { echo "usage: $0 <parent-ref> [rounds=3]" >&2; exit 2; }
ref=$1 rounds=${2:-3}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
work="$root/.bench_build/curve"
. "$root/scripts/snapshot.sh"
snapshot_sides "$root" "$ref" "$work"
for dir in "$parent" "$change"; do
	go build -C "$dir" -o clustersim ./cmd/clustersim
done
sizes="256 1024 4096 16384"
out="$work/run.out"

# ns_per_msg <dir> <nodes> <seed> prints one run's host ns per message
# plus retransmission.
ns_per_msg() {
	local n=$2 epochs=$(((19 * 4096 + $2 / 2) / $2)) t0 t1
	t0=$(date +%s%N)
	"$1/clustersim" -proto dissemination -nodes "$n" -epochs "$epochs" \
		-work 400 -work-jitter 100 -region 150 -latency 12 -jitter 25 \
		-drop 0.2 -dup 0.08 -seed "$3" >"$out"
	t1=$(date +%s%N)
	# The summary line carries msgs/epoch and retrans/epoch per node-epoch.
	head -n 1 "$out" | awk -v ns=$((t1 - t0)) -v eps=$((n * epochs)) '{
		for (i = 1; i <= NF; i++) {
			split($i, kv, "=")
			if (kv[1] == "msgs/epoch") m = kv[2]
			if (kv[1] == "retrans/epoch") r = kv[2]
		}
		printf "%.1f\n", ns / ((m + r) * eps)
	}'
}

printf '%-8s %-7s' round side
for n in $sizes; do printf ' %9s' "n=$n"; done
printf ' %10s\n' "16384/256"
for r in $(seq 1 "$rounds"); do
	declare -A v=()
	for n in $sizes; do
		if [ $((r % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
		for side in $order; do
			dir=$parent
			[ "$side" = change ] && dir=$change
			v[$side,$n]=$(ns_per_msg "$dir" "$n" "$r")
		done
	done
	for side in parent change; do
		printf '%-8s %-7s' "$r" "$side"
		for n in $sizes; do printf ' %9s' "${v[$side,$n]}"; done
		awk -v a="${v[$side,256]}" -v b="${v[$side,16384]}" 'BEGIN { printf " %10.2f\n", b / a }'
	done
done
rm -f "$out"
