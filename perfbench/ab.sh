#!/usr/bin/env bash
# Interleaved A/B comparison of two checkouts on one workload: runs
# PAIRS pairs, alternating which side goes first, both sides of a pair on
# the same seed, and prints one line per run: pair, checkout, result.
# Each checkout must hold this perfbench directory (copy it into an older
# one first).
#   bash perfbench/ab.sh DIR_A DIR_B WORKLOAD [PAIRS] [SECONDS]
set -euo pipefail
if (($# < 3)); then
	echo "usage: $0 DIR_A DIR_B WORKLOAD [PAIRS] [SECONDS]" >&2
	exit 2
fi
a=$1 b=$2 workload=$3 pairs=${4:-10} seconds=${5:-25}
for i in $(seq 1 "$pairs"); do
	order=("$a" "$b")
	if ((i % 2 == 0)); then
		order=("$b" "$a")
	fi
	for dir in "${order[@]}"; do
		line=$(cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$i" --seconds "$seconds" --trace 0 | tail -n 1)
		echo "$i $dir $line"
	done
done
