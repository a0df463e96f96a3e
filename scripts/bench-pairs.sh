#!/usr/bin/env bash
# Paired runs of the repository benchmark: the working tree against a
# parent commit, alternating which side runs first, then the benchmark's
# own --compare over the two sets of records.
#
#   scripts/bench-pairs.sh <parent-ref> <workload> [pairs=10]
#
#   SEED=11 RUN_SECONDS=18 TRACE=0 OUT=dir scripts/bench-pairs.sh HEAD~1 cold-variants
#   SHOW_JOBS=1 scripts/bench-pairs.sh HEAD~1 cold-variants 3
#
# The parent is unpacked from its committed files (git archive) into a
# temporary directory — what the benchmark driver measures, and nothing
# is registered in .git — and both sides are built and run with their
# own, unmodified bench/run.sh, so each side's benchmark code is the one
# committed with it. Records (one JSON line a run) go to $OUT, by
# default .bench_build/pairs/<workload>; per-pair values of the metrics
# named in $SHOW are printed as the pairs complete, and with SHOW_JOBS=1
# each side's "# job" rows under them (wall time and effort counters per
# job; the cold workloads print them, the hot ones have none).
set -euo pipefail
if [ $# -lt 2 ]; then
	sed -n '2,20p' "$0" >&2
	exit 2
fi
ref=$1 workload=$2 pairs=${3:-10}
seed=${SEED:-11} seconds=${RUN_SECONDS:-18} trace=${TRACE:-0}
show=${SHOW:-layers_per_s setup_s cpu_ms_per_layer alloc_kb_per_layer latency_p50_ms}
root=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
out=${OUT:-$root/.bench_build/pairs/$workload}
mkdir -p "$out"
rm -f "$out/parent.jsonl" "$out/change.jsonl"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$ref" | tar -x -C "$tmp/parent"

# value <record-file> <metric>: the metric's value in the file's last record.
value() {
	tail -n 1 "$1" | grep -o "\"$2\":{\"value\":[^,}]*" | head -n 1 | cut -d: -f3
}

run_side() { # <side> <checkout>
	bash "$2/bench/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" \
		--trace "$trace" --out "$out/$1.jsonl" >"$out/$1.last.txt"
}

# Build both before the first timed run, so neither pays its compile
# inside a pair.
bash "$tmp/parent/bench/run.sh" --print-spec >/dev/null
bash "$root/bench/run.sh" --print-spec >/dev/null

printf 'pair first'
for m in $show; do printf ' %s(parent change)' "$m"; done
printf '\n'
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		first=parent
		run_side parent "$tmp/parent"
		run_side change "$root"
	else
		first=change
		run_side change "$root"
		run_side parent "$tmp/parent"
	fi
	printf '%4d %6s' "$i" "$first"
	for m in $show; do
		printf ' %s %s' "$(value "$out/parent.jsonl" "$m")" "$(value "$out/change.jsonl" "$m")"
	done
	printf '\n'
	if [ "${SHOW_JOBS:-0}" = 1 ]; then
		for side in parent change; do
			sed -n "s/^# job /     $side /p" "$out/$side.last.txt"
		done
	fi
done
bash "$root/bench/run.sh" --compare "$out/parent.jsonl" "$out/change.jsonl"
