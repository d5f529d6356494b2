#!/usr/bin/env bash
# benchmin.sh — min-of-N interleaved benchmark runner.
#
# Runs the selected benchmark matrix N complete times (round-robin, so CPU
# frequency drift and background noise hit every variant about equally
# instead of biasing whichever bench ran last) and reports the minimum ns/op
# per benchmark — the standard low-noise estimator for single-process CPU
# benches.
#
# Usage:
#   scripts/benchmin.sh                         # default: SteadyState benches, 3 runs
#   scripts/benchmin.sh -n 5 -b 'MatMulPackedShapes' -t 100x
#   scripts/benchmin.sh -b 'SteadyStateSingleQuery' -p . -- -benchmem
#   scripts/benchmin.sh --check                 # allocs/op regression gate
#
#   -n N      complete interleaved runs (default 3)
#   -b REGEX  -bench regex (default 'SteadyState')
#   -t TIME   -benchtime per run (default 300x)
#   -p PKG    package to bench (default .)
# Arguments after -- are passed through to `go test`.
#
# --check re-measures allocs/op for every arm pinned in scripts/allocs.json
# (the min of -benchtime 1000x -count 3) and exits non-zero if any arm
# allocates more than its pin. allocs/op is noise-free on a quiet box, so
# this is a hard CI gate; the pins are what the tree measures, and only
# ever move down.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--check" ]]; then
	pins=scripts/allocs.json
	bench=$(jq -r .benchmark "$pins")
	want=$(jq -r '.allocs_op | to_entries[] | "\(.key) \(.value)"' "$pins")
	subs=$(awk '{ print $1 }' <<<"$want" | paste -sd'|' -)

	echo "benchmin --check: gating allocs/op against $pins" >&2
	got=$(go test -run '^$' -bench "^${bench}\$/^(${subs})\$" -benchtime 1000x -count 3 -benchmem . |
		tee /dev/stderr)

	awk -v bench="$bench" '
	NR == FNR { pin[bench "/" $1] = $2; next }
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)  # strip the -GOMAXPROCS suffix
		for (i = 2; i < NF; i++)
			if ($(i + 1) == "allocs/op" && (!(name in best) || $i + 0 < best[name]))
				best[name] = $i + 0
	}
	END {
		bad = 0
		for (name in pin) {
			if (!(name in best)) {
				printf "benchmin --check: MISSING %s (pinned at %d allocs/op, bench did not run)\n", name, pin[name]
				bad = 1
			} else if (best[name] > pin[name]) {
				printf "benchmin --check: REGRESSION %s: %d allocs/op, pinned at %d\n", name, best[name], pin[name]
				bad = 1
			} else {
				printf "benchmin --check: ok %s: %d allocs/op (pinned at %d)\n", name, best[name], pin[name]
			}
		}
		exit bad
	}' <(echo "$want") <(echo "$got")
	exit $?
fi

runs=3
bench='SteadyState'
benchtime='300x'
pkg='.'
while getopts "n:b:t:p:h" opt; do
	case $opt in
	n) runs=$OPTARG ;;
	b) bench=$OPTARG ;;
	t) benchtime=$OPTARG ;;
	p) pkg=$OPTARG ;;
	h | *)
		grep '^#' "$0" | sed 's/^# \{0,1\}//'
		exit 0
		;;
	esac
done
shift $((OPTIND - 1))

out=$(mktemp)
trap 'rm -f "$out"' EXIT

for i in $(seq 1 "$runs"); do
	echo "== run $i/$runs ==" >&2
	go test -run '^$' -bench "$bench" -benchtime "$benchtime" "$@" "$pkg" |
		tee -a "$out" | grep '^Benchmark' >&2
done

echo
echo "# min of $runs interleaved runs (ns/op)"
awk '
/^Benchmark/ {
	name = $1
	ns = $3
	if (!(name in best) || ns + 0 < best[name] + 0) best[name] = ns
	if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
}
END {
	for (i = 1; i <= n; i++) printf "%-64s %12s ns/op\n", order[i], best[order[i]]
}
' "$out"
