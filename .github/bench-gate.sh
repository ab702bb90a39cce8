#!/usr/bin/env bash
# Paired benchmark gate. Runs the benchmark BENCHMARK.json defines
# (bench/run.sh) and the Go allocation benchmarks in a base tree and a head
# tree on one host, and fails when the head tree is slower, allocates more or
# fails a check. Both sides run on the same machine in the same minutes, so
# the host cancels out; a committed baseline would measure the host instead.
#
#   bash .github/bench-gate.sh BASE_DIR HEAD_DIR OUT_DIR
#
# BASE_DIR and HEAD_DIR are checkouts of the two commits (a git worktree, or
# `git archive REV | tar -x -C DIR`). OUT_DIR receives every report, every
# benchmark output and judge.txt, the judge's table. The run length, the
# workloads and the bounds come from HEAD_DIR's BENCHMARK.json.
#
# Speed: for each workload, 3 alternating pairs (base first in odd pairs) of
# `bench/run.sh --workload W --seconds <run_seconds> --trace 0`. An
# end-to-end metric is worse when all three hold:
#   - median(head)/median(base) passes 1 + its bound, in its direction;
#   - head is worse in more than half the pairs;
#   - for setup_s only, the medians differ by more than 5 ms (the slack
#     `dssperf -diff` applies: a few-millisecond set-up moves by a third
#     between runs).
# Medians over pairs, not `dssperf -diff` on each pair: one pair's
# calibration noise can move a metric past its bound on identical trees.
# Any head report with correct: false (a failed operation, or an output
# that differs from the seed-7 pin) also fails.
#
# Allocations: the figure and hot-path benchmarks once in each tree; allocs/op
# is the maximum over samples. A benchmark fails when head's allocs/op exceed
# base's by more than 10%, or are nonzero where base's are 0.
set -euo pipefail

if [ $# -ne 3 ]; then
	echo "usage: bash .github/bench-gate.sh BASE_DIR HEAD_DIR OUT_DIR" >&2
	exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
mkdir -p "$3"
out=$(cd "$3" && pwd)
spec="$head/BENCHMARK.json"
secs=$(jq -r .run_seconds "$spec")
workloads=$(jq -r '.workloads[].name' "$spec")
pairs=3
fail=0
start=$SECONDS

# run SIDE DIR WORKLOAD PAIR: one untraced run of one workload in DIR.
run() {
	local name="$1-$3-$4"
	if ! (cd "$2" && bash bench/run.sh --workload "$3" --seconds "$secs" --trace 0 \
		--report "$out/$name.json") >"$out/$name.log" 2>&1; then
		echo "$name: bench/run.sh failed" >&2
		tail -20 "$out/$name.log" >&2
		exit 1
	fi
}

# bench/run.sh keeps each tree's Go build cache in the tree's
# .bench_build/gocache, so a cold tree would compile the standard library and
# the module from scratch. The cache is content-addressed, so a tree that has
# none gets a link to the one the allocation half below builds in.
shared=$(go env GOCACHE)
for t in "$base" "$head"; do
	if [ ! -e "$t/.bench_build/gocache" ] && [ ! -L "$t/.bench_build/gocache" ]; then
		mkdir -p "$t/.bench_build"
		ln -s "$shared" "$t/.bench_build/gocache"
	fi
done

for w in $workloads; do
	for i in $(seq 1 $pairs); do
		if [ $((i % 2)) = 1 ]; then
			run base "$base" "$w" "$i"
			run head "$head" "$w" "$i"
		else
			run head "$head" "$w" "$i"
			run base "$base" "$w" "$i"
		fi
	done
	echo "$w: $pairs pairs done at $((SECONDS - start)) s" >&2
done

{
	echo "speed: $pairs alternating pairs per workload at --seconds $secs"
	printf '%-13s %-11s %11s %11s %7s %5s  %s\n' workload metric base head ratio lost verdict
} >"$out/judge.txt"
for w in $workloads; do
	# One line per metric, then one line on head's correctness.
	jq -rn --arg w "$w" --slurpfile spec "$spec" \
		--slurpfile b <(cat "$out"/base-"$w"-*.json) --slurpfile h <(cat "$out"/head-"$w"-*.json) '
		def median: sort | if length % 2 == 1 then .[(length - 1) / 2] else (.[length / 2 - 1] + .[length / 2]) / 2 end;
		def abs: if . < 0 then -. else . end;
		(($spec[0].end_to_end[] as $m
		| [$b[].workloads[$w].metrics[$m.name].value] as $bv
		| [$h[].workloads[$w].metrics[$m.name].value] as $hv
		| (if $m.better == "higher" then -1 else 1 end) as $sign
		| ($bv | median) as $mb
		| ($hv | median) as $mh
		| (if $mb == 0 then 0 else $sign * ($mh - $mb) / $mb end) as $change
		| ([range(0; $bv | length) | select($sign * ($hv[.] - $bv[.]) > 0)] | length) as $lost
		| ($change > $m.bound and 2 * $lost > ($bv | length)
			and ($m.name != "setup_s" or ($mh - $mb | abs) > 0.005)) as $worse
		| [$w, $m.name, $mb, $mh, (if $mb == 0 then 0 else $mh / $mb end),
			"\($lost)/\($bv | length)", (if $worse then "WORSE" else "ok" end)]),
		(([$h[].workloads[$w] | select(.correct | not)] | length) as $bad
		| [$w, "correct", "", "", "", "", (if $bad > 0 then "INCORRECT in \($bad) head runs" else "ok" end)]))
		| @tsv' |
		awk -F'\t' '{
			if ($3 == "") printf "%-13s %-11s %11s %11s %7s %5s  %s\n", $1, $2, "", "", "", "", $7
			else printf "%-13s %-11s %11.4g %11.4g %7.3f %5s  %s\n", $1, $2, $3, $4, $5, $6, $7
		}' >>"$out/judge.txt"
done
if grep -qE 'WORSE|INCORRECT' "$out/judge.txt"; then
	fail=1
fi

# The figure benchmarks run few iterations; the hot-path ones are timed.
benches() {
	(cd "$1" &&
		go test -run '^$' -benchmem -benchtime 3x -count 3 \
			-bench 'BenchmarkFig2$|BenchmarkFig5$|BenchmarkFig9$|BenchmarkSampledFig5$|BenchmarkSampledFig9$|BenchmarkSingleRun$|BenchmarkSingleRun8$' . &&
		go test -run '^$' -benchmem -benchtime 0.5s -count 3 \
			-bench 'BenchmarkSimKernelHandoff$|BenchmarkSimKernelHandoff8$|BenchmarkMachineAccess$|BenchmarkCacheLookup$|BenchmarkTelemetryDisabled$' .) >"$2"
}
# allocs FILE: each benchmark's largest allocs/op, sorted by name.
allocs() {
	awk '/^Benchmark/ {
		for (i = 2; i < NF; i++)
			if ($(i + 1) == "allocs/op" && (!($1 in max) || $i + 0 > max[$1])) max[$1] = $i + 0
	} END { for (b in max) print b, max[b] }' "$1" | sort
}
benches "$base" "$out/base-bench.txt"
benches "$head" "$out/head-bench.txt"
{
	echo
	echo "allocations: largest allocs/op over 3 samples"
	printf '%-34s %9s %9s  %s\n' benchmark base head verdict
} >>"$out/judge.txt"
if ! join -a 1 -e missing -o 0,1.2,2.2 <(allocs "$out/base-bench.txt") <(allocs "$out/head-bench.txt") |
	awk '{
		worse = $3 == "missing" || ($2 == 0 ? $3 > 0 : $3 > 1.10 * $2)
		printf "%-34s %9s %9s  %s\n", $1, $2, $3, worse ? "WORSE" : "ok"
		bad += worse
	} END { exit bad > 0 }' >>"$out/judge.txt"; then
	fail=1
fi

echo "total $((SECONDS - start)) s" >>"$out/judge.txt"
cat "$out/judge.txt"
exit "$fail"
