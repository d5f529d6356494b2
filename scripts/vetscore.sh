#!/bin/sh
# vetscore.sh — score the repo's gates against deliberate regressions.
#
# Each patch under internal/analysis/testdata/regress/ re-introduces on the
# real tree a bug one of the gates exists for (its first lines say which).
# For each patch the script copies the working tree into a throwaway
# directory, applies the patch there, and runs every gate; a gate catches
# the patch when it fails. The columns:
#
#   poolcheck calloc-vet (poolcheck is its one analyzer) on the touched
#            packages
#   vet      go vet on the touched packages
#   escape   scripts/escapecheck.sh: escape analysis of the //calloc:noalloc
#            set, plus the allocation tests (go test -run Alloc ./...)
#   test     go test -short on the touched packages
#   race     go test -short -race on the touched packages
#
# The test and race columns include the targeted tests written for single
# patches (DESIGN.md "Which gate owns which property").
#
# Every test run has a -timeout, so a hang counts as a catch. The unpatched
# tree is scored first and must pass every gate; its test and race runs are
# timed, and each patched run of those gates is bounded at 3x the clean
# run's time (at least 30 s), so a hung patch costs seconds, not minutes.
# Prints a markdown table: x caught, . passed.
#
# Usage: scripts/vetscore.sh [name...]   (default: every patch)
#   VETSCORE_LOGS=dir keeps each gate's output as dir/<patch>.<gate>.log.
set -eu
cd "$(dirname "$0")/.."
repo=$(pwd)
regress=internal/analysis/testdata/regress
gates="poolcheck vet escape test race"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
logs=${VETSCORE_LOGS:-$tmp/logs}
mkdir -p "$logs"
go build -o "$tmp/calloc-vet" ./cmd/calloc-vet

if [ $# -eq 0 ]; then
	set -- $(ls "$regress" | sed -n 's/\.patch$//p')
fi

# gate <name> <dir> <pkgs...> runs one gate in the copy at dir; status 0
# means the gate passed.
gate() {
	g=$1 dir=$2
	shift 2
	case $g in
	vet) go -C "$dir" vet "$@" ;;
	escape) CALLOC_VET="$tmp/calloc-vet" sh "$dir/scripts/escapecheck.sh" ;;
	test) go -C "$dir" test -count=1 -short -timeout "$(limit test)" "$@" ;;
	race) go -C "$dir" test -count=1 -short -race -timeout "$(limit race)" "$@" ;;
	poolcheck) go -C "$dir" vet -vettool="$tmp/calloc-vet" "$@" ;;
	esac
}

# limit <gate> is the -timeout of a test gate: 3x the gate's clean run, at
# least 30 s, once the clean run is timed; go's own default (10m) for the
# clean run itself.
limit() {
	if [ ! -f "$tmp/$1.clean" ]; then
		echo 10m
		return
	fi
	s=$((3 * $(cat "$tmp/$1.clean")))
	[ "$s" -ge 30 ] || s=30
	echo "${s}s"
}

# touched <patch...> lists the packages the patches edit.
touched() {
	sed -n 's|^+++ b/\(.*\)/[^/]*$|./\1|p' "$@" | sort -u
}

# score <name> <patch or empty> prints one table row. The unpatched tree is
# checked on every package some patch touches.
score() {
	name=$1 patch=$2 dir=$tmp/tree
	rm -rf "$dir"
	mkdir -p "$dir"
	git -C "$repo" ls-files -z --cached --others --exclude-standard |
		tar -C "$repo" --null --ignore-failed-read -T - -cf - 2>/dev/null | tar -C "$dir" -xf -
	pkgs=$all
	if [ -n "$patch" ]; then
		if ! git -C "$dir" apply "$repo/$patch" 2>"$logs/$name.apply.log"; then
			echo "vetscore: $patch does not apply" >&2
			return 1
		fi
		pkgs=$(touched "$repo/$patch")
	fi
	row="| $name |"
	for g in $gates; do
		start=$(date +%s)
		if gate "$g" "$dir" $pkgs >"$logs/$name.$g.log" 2>&1; then
			row="$row . |"
		else
			row="$row x |"
		fi
		if [ -z "$patch" ]; then
			echo $(($(date +%s) - start)) >"$tmp/$g.clean"
		fi
	done
	echo "$row"
}

all=$(touched $(for name; do echo "$regress/$name.patch"; done))

printf '| patch |'
for g in $gates; do printf ' %s |' "$g"; done
printf '\n|---|'
for g in $gates; do printf -- '---|'; done
printf '\n'

clean=$(score "(none)" "")
echo "$clean"
case $clean in
*x*)
	echo "vetscore: the unpatched tree fails a gate; see $logs" >&2
	exit 1
	;;
esac
for name; do
	score "$name" "$regress/$name.patch"
done
