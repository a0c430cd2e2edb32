#!/usr/bin/env bash
# Back-to-back parent/change pairs of one or more benchmark workloads,
# the way a performance claim is judged (bench/README.md, ROADMAP.md):
#
#   scripts/bench-pairs.sh <parent-ref> "<workload> [<workload> ...]" [pairs=10]
#
# Both sides run from sibling snapshots under the ignored
# .bench_build/pairs/ (snapshot.sh), so both binaries embed source paths
# of the same depth and length. Each pair takes a fresh seed and runs
# both sides as BENCHMARK.json's command (`bash bench/run.sh -workload W
# -seed S -seconds 10 -trace 0`), alternating which side goes first, each side appending its records
# to its own -out file. At the end `bench/run.sh -compare` prints the
# medians and verdicts, and one line per end-to-end metric says how many
# pairs the change won, lost and tied, and the median over the pairs of
# the change/parent ratio (below 1 is smaller on the change's side, which
# is better for every metric but ops_per_s). Several workloads run one after
# the other, each with its own -out files and verdict lines; the exit
# status is the worst -compare status. bench/ is used as it is.
set -euo pipefail
[ $# -ge 2 ] || { echo "usage: $0 <parent-ref> \"<workload> ...\" [pairs=10]" >&2; exit 2; }
ref=$1 workloads=$2 pairs=${3:-10}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
work="$root/.bench_build/pairs"
. "$root/scripts/snapshot.sh"
snapshot_sides "$root" "$ref" "$work"
stamp=$(date +%Y%m%d-%H%M%S)
base=$(( $(date +%s) % 1000000 ))

# metric <name> reads one end-to-end value off a run's last line.
metric() { sed -n "s/.*\"$1\":{\"value\":\([^,}]*\).*/\1/p"; }
run() { # run <dir> <out-file> <seed> -> the run's last line
	bash "$1/bench/run.sh" -workload "$workload" -seed "$3" -seconds 10 -trace 0 -out "$2" | tail -n 1
}

metrics="setup_s heap_peak_mb sync_us ops_per_s"
declare -A won lost tied ratios
worst=0

# median reads numbers, one a line, and prints their median (n/a if none).
median() {
	sort -g | awk 'NF { v[++n] = $1 } END {
		if (n == 0) print "n/a"
		else if (n % 2) printf "%.3f\n", v[(n + 1) / 2]
		else printf "%.3f\n", (v[n / 2] + v[n / 2 + 1]) / 2
	}'
}

for workload in $workloads; do
	old="$work/$workload-$stamp-parent-$sha.json" new="$work/$workload-$stamp-change.json"
	for m in $metrics; do won[$m]=0 lost[$m]=0 tied[$m]=0 ratios[$m]=""; done
	for i in $(seq 1 "$pairs"); do
		seed=$((base + i))
		if [ $((i % 2)) -eq 1 ]; then
			p=$(run "$parent" "$old" "$seed"); c=$(run "$change" "$new" "$seed"); order="parent first"
		else
			c=$(run "$change" "$new" "$seed"); p=$(run "$parent" "$old" "$seed"); order="change first"
		fi
		line="pair $i seed $seed ($order):"
		for m in $metrics; do
			pv=$(metric "$m" <<<"$p") cv=$(metric "$m" <<<"$c")
			line+=" $m $pv -> $cv;"
			# ops_per_s is better when higher, the rest when lower.
			verdict=$(awk -v p="$pv" -v c="$cv" -v hi="$([ "$m" = ops_per_s ] && echo 1 || echo 0)" \
				'BEGIN { if (p == c) print "tied"; else if ((c < p) != (hi == 1)) print "won"; else print "lost" }')
			case $verdict in won) won[$m]=$((won[$m] + 1)) ;; lost) lost[$m]=$((lost[$m] + 1)) ;; *) tied[$m]=$((tied[$m] + 1)) ;; esac
			ratios[$m]+=$(awk -v p="$pv" -v c="$cv" 'BEGIN { if (p != 0) printf " %.6g", c / p }')
		done
		echo "$line"
	done
	status=0
	bash "$root/bench/run.sh" -compare "$old" "$new" || status=$?
	for m in $metrics; do
		ratio=$(printf '%s\n' ${ratios[$m]} | median)
		echo "$workload $m: change won ${won[$m]}, lost ${lost[$m]}, tied ${tied[$m]} of $pairs pairs, median change/parent $ratio (parent $sha)"
	done
	echo "records: $old $new"
	[ "$status" -le "$worst" ] || worst=$status
done
exit $worst
