#!/usr/bin/env bash
# bench-pairs.sh — compare two checkouts on one benchmark workload with
# alternating pairs of runs.
#
#   scripts/bench-pairs.sh -o OUT_DIR [-s SECONDS] [-t] PARENT_DIR CHANGE_DIR WORKLOAD PAIRS [SEED]
#
# Pair i (from 0) runs `bash bench/run.sh --workload WORKLOAD --seed
# SEED+i --trace 0 --out ...` once in each checkout, the parent first on
# even pairs and the change first on odd ones, so drift in the machine's
# speed falls on both sides alike. SEED defaults to 1 and SECONDS to the
# benchmark's own run_seconds.
#
# -t runs every pair with --trace 1 instead, and tabulates the per-layer
# metrics in CHANGE_DIR's BENCHMARK.json that any run reported as
# nonzero (the host ns and allocations of each Figure 8 row, the
# fleet's phases, ...) in place of the end-to-end ones, which a traced
# run does not report: so a change shows which layer's host time moved.
#
# For every end-to-end metric in CHANGE_DIR's BENCHMARK.json it prints
# each pair's change against the parent in percent, their median, in how
# many pairs the change was better by the metric's direction, the
# parent's median and q1-q3 over the pairs (quartiles as bench/stats.go
# takes them), the change's median, and a verdict:
#
#   gain   the change won at least 9 of every 10 pairs and its median is
#          better than the parent's by more than the parent's q3-q1;
#   worse  the change's median is worse than the parent's by more than
#          the metric's bound;
#
# and blank otherwise.
# OUT_DIR receives both checkouts' --out files (parent.jsonl,
# change.jsonl), every run's output (pair-N-parent.txt,
# pair-N-change.txt) and the table (summary.txt). Nothing else is
# written outside the checkouts' own benchmark build directories.
set -euo pipefail

usage() {
	echo "usage: $0 -o OUT_DIR [-s SECONDS] [-t] PARENT_DIR CHANGE_DIR WORKLOAD PAIRS [SEED]" >&2
	exit 2
}

out= seconds= trace=0
while getopts "o:s:t" opt; do
	case $opt in
	o) out=$OPTARG ;;
	s) seconds=$OPTARG ;;
	t) trace=1 ;;
	*) usage ;;
	esac
done
shift $((OPTIND - 1))
[ -n "$out" ] && [ $# -ge 4 ] && [ $# -le 5 ] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3 pairs=$4 seed=${5:-1}
mkdir -p "$out"
out=$(cd "$out" && pwd)
: > "$out/parent.jsonl"
: > "$out/change.jsonl"

# run SIDE DIR PAIR: one benchmark run of checkout DIR; its last output
# line is the JSON summary.
run() {
	local side=$1 dir=$2 pair=$3 extra=()
	[ -n "$seconds" ] && extra=(--seconds "$seconds")
	echo "== pair $pair: $side (seed $((seed + pair)))" >&2
	(cd "$dir" && bash bench/run.sh --workload "$workload" --seed $((seed + pair)) \
		--trace "$trace" --out "$out/$side.jsonl" "${extra[@]}") > "$out/pair-$pair-$side.txt"
}

for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		run parent "$parent" "$i"
		run change "$change" "$i"
	else
		run change "$change" "$i"
		run parent "$parent" "$i"
	fi
done

# The last line of every run, parent and change side by side per pair.
summaries() {
	for ((i = 0; i < pairs; i++)); do
		tail -n 1 "$out/pair-$i-parent.txt"
		tail -n 1 "$out/pair-$i-change.txt"
	done
}

# A per-layer metric has no bound, so its verdict is never worse.
summaries | jq -rs --slurpfile spec "$change/BENCHMARK.json" --argjson trace "$trace" '
	def median: sort | if length % 2 == 1 then .[length / 2 | floor]
		else (.[length / 2 - 1] + .[length / 2]) / 2 end;
	def quartile($i): sort as $s | ($s | length) as $n
		| if $n == 1 then $s[0] else
			([([($i * ($n + 1) / 4 | floor), 1] | max), $n - 1] | min) as $j
			| ($i * ($n + 1) - $j * 4) as $d
			| ($s[$j - 1] * (4 - $d) + $s[$j] * $d) / 4 end;
	. as $runs
	| [range(0; $runs | length; 2) | [$runs[.], $runs[. + 1]]] as $pairs
	| ($pairs | map(.[0].failed + .[1].failed) | add) as $failed
	| def rows($metrics):
		$metrics[] as $m
		| [$pairs[] | [.[0].metrics[$m.name].value // 0, .[1].metrics[$m.name].value // 0]] as $v
		| select($m.bound != null or ($v | flatten | any(. != 0)))
		| [$v[] | if .[0] == 0 then 0 else (.[1] - .[0]) / .[0] * 100 end] as $d
		| [$v[] | select(if $m.better == "higher" then .[1] > .[0] else .[1] < .[0] end)] as $w
		| ($v | map(.[0])) as $p | ($p | median) as $pm | ($v | map(.[1]) | median) as $cm
		| ($p | quartile(1)) as $q1 | ($p | quartile(3)) as $q3
		| (if $m.better == "higher" then $cm - $pm else $pm - $cm end) as $better
		| (if ($w | length) * 10 >= ($v | length) * 9 and $better > $q3 - $q1 then "gain"
		   elif $m.bound != null and -$better > $m.bound * ($pm | fabs) then "worse" else "" end) as $verdict
		| "\($m.name)\t\($d | map(. * 100 | round / 100) | join(" "))\t\($d | median * 100 | round / 100)\t\($w | length)/\($v | length)\t\($pm)\t\($q1)\t\($q3)\t\($cm)\t\($verdict)";
	"metric\tper-pair change (%)\tmedian (%)\twins\tparent median\tparent q1-q3\tchange median\tverdict",
	rows(if $trace == 1 then $spec[0].per_layer else $spec[0].end_to_end end),
	"failed calls over all runs: \($failed)"
' | awk -F '\t' '
	NR == 1 { printf "%-22s  %-*s  %10s  %5s  %13s  %27s  %13s  %s\n", $1, w, $2, $3, $4, $5, $6, $7, $8; next }
	NF == 9 { printf "%-22s  %-*s  %10s  %5s  %13.6g  %13.6g-%-13.6g  %13.6g  %s\n", $1, w, $2, $3, $4, $5, $6, $7, $8, $9; next }
	{ print }' w=$((pairs * 8 > 20 ? pairs * 8 : 20)) | tee "$out/summary.txt"
