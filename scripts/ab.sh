#!/usr/bin/env bash
# A/B of the end-to-end benchmark: the current working tree against a
# parent revision, in paired runs.
#
#   bash scripts/ab.sh PARENT_REV [PAIRS] [WORKLOAD...]
#
# Run from the repository root. PAIRS defaults to 10, and the workloads to
# every workload in BENCHMARK.json. Each side is frozen once, before any
# run: the parent as `git archive PARENT_REV`, the change as a copy of the
# working tree's tracked and untracked (not ignored) files, both in a
# temporary directory removed on exit. Each side's qbench is built once
# there. Then, for each workload and each seed 1..PAIRS, both sides run
#
#   bash qbench/run.sh --workload W --seed S --seconds 20 --trace 0
#
# back to back, the parent first on odd seeds and the change first on even
# ones. The raw result line of every run is kept under .bench_build/ab/.
#
# The output is one markdown table row per workload and one column per
# end-to-end metric of BENCHMARK.json, each cell reading
#
#   parent median → change median (change of the medians, pairs won/PAIRS; IQR q%)
#
# where a pair is won when the change is better in the metric's direction,
# and q is the parent's interquartile range as a share of its median. A last
# line names each cell whose change of the medians is worse than its bound.
set -euo pipefail

if [ $# -lt 1 ]; then
	echo "usage: bash scripts/ab.sh PARENT_REV [PAIRS] [WORKLOAD...]" >&2
	exit 2
fi
parent=$1
pairs=${2:-10}
shift $(($# < 2 ? $# : 2))
case $pairs in '' | *[!0-9]* | 0)
	echo "ab: PAIRS must be a positive integer, got '$pairs'" >&2
	exit 2
	;;
esac
root=$(pwd)
if [ ! -f "$root/BENCHMARK.json" ] || [ ! -f "$root/qbench/run.sh" ]; then
	echo "ab: run from the repository root" >&2
	exit 2
fi
git -C "$root" rev-parse --verify --quiet "$parent^{commit}" >/dev/null || {
	echo "ab: unknown revision '$parent'" >&2
	exit 2
}

# The end-to-end metrics, one "name better bound" line each, in file order.
metrics=$(sed -n 's/.*{"name": *"\([^"]*\)", *"unit": *"[^"]*", *"better": *"\([a-z]*\)", *"bound": *\([0-9.]*\)}.*/\1 \2 \3/p' "$root/BENCHMARK.json")
if [ $# -gt 0 ]; then
	workloads=("$@")
else
	mapfile -t workloads < <(sed -n '/"workloads"/,/\]/s/.*{"name": *"\([^"]*\)".*/\1/p' "$root/BENCHMARK.json")
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
out="$root/.bench_build/ab/$(date +%Y%m%d-%H%M%S)"
mkdir -p "$work/parent" "$work/change" "$out"
git -C "$root" archive "$parent" | tar -x -C "$work/parent"
(cd "$root" && git ls-files -z -c -o --exclude-standard | tar -c -f - --null -T -) | tar -x -C "$work/change"

# Build once per side: run.sh builds qbench, which then answers -h with
# exit status 2. Later runs find the build in the side's own cache.
for side in parent change; do
	status=0
	(cd "$work/$side" && bash qbench/run.sh -h) >/dev/null 2>"$out/build-$side.log" || status=$?
	if [ "$status" -ne 2 ]; then
		echo "ab: $side build failed; see $out/build-$side.log" >&2
		exit 1
	fi
done

run() { # side workload seed
	(cd "$work/$1" && bash qbench/run.sh --workload "$2" --seed "$3" --seconds 20 --trace 0) \
		>"$out/$1-$2-$3.log" 2>&1 || true
	tail -n 1 "$out/$1-$2-$3.log" >"$out/$1-$2-$3.json"
}

# value FILE METRIC prints the metric's value from one result line.
value() { sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p" "$1"; }

header="| workload (pairs) |"
rule="|---|"
while read -r name _ _; do
	header+=" $name |"
	rule+="---|"
done <<<"$metrics"
echo "$header"
echo "$rule"

worse=()
for w in "${workloads[@]}"; do
	for ((s = 1; s <= pairs; s++)); do
		if ((s % 2)); then run parent "$w" "$s"; run change "$w" "$s"; else run change "$w" "$s"; run parent "$w" "$s"; fi
		for side in parent change; do
			grep -q '"correct":true' "$out/$side-$w-$s.json" && grep -q '"failed":0' "$out/$side-$w-$s.json" ||
				echo "ab: $side $w seed $s is not a clean run; see $out/$side-$w-$s.log" >&2
		done
	done
	row="| $w ($pairs) |"
	while read -r name better bound; do
		cell=$(for ((s = 1; s <= pairs; s++)); do
			echo "$(value "$out/parent-$w-$s.json" "$name") $(value "$out/change-$w-$s.json" "$name")"
		done | awk -v better="$better" -v bound="$bound" '
			function q(a, n, p,   h, i) { h = (n - 1) * p; i = int(h); return i + 1 < n ? a[i] + (h - i) * (a[i + 1] - a[i]) : a[i] }
			function sortn(a, n,   i, j, t) { for (i = 1; i < n; i++) for (j = i; j > 0 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t } }
			BEGIN { n = 0; won = 0 }
			NF == 2 {
				p[n] = $1; c[n] = $2
				if ((better == "lower" && $2 < $1) || (better == "higher" && $2 > $1)) won++
				n++
			}
			END {
				if (n == 0) { print "n/a"; exit }
				sortn(p, n); sortn(c, n)
				pm = q(p, n, 0.5); cm = q(c, n, 0.5); dm = pm != 0 ? (cm - pm) / pm : 0
				iqr = pm != 0 ? (q(p, n, 0.75) - q(p, n, 0.25)) / pm : 0
				bad = (better == "lower" && dm > bound) || (better == "higher" && dm < -bound)
				printf "%.4g → %.4g (%+.1f%%, %d/%d; IQR %.1f%%)%s\n", pm, cm, 100 * dm, won, n, 100 * iqr, bad ? " WORSE" : ""
			}')
		case $cell in *WORSE) worse+=("$w $name") ;; esac
		row+=" ${cell% WORSE} |"
	done <<<"$metrics"
	echo "$row"
done
if [ ${#worse[@]} -gt 0 ]; then
	echo "worse than bound: ${worse[*]}"
else
	echo "worse than bound: none"
fi
echo "raw results: $out" >&2
