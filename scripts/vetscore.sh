#!/bin/sh
# vetscore.sh — score the repo's gates against deliberate regressions.
#
# Each patch under internal/analysis/testdata/regress/ re-introduces on the
# real tree a bug one of the gates exists for (its first lines say which).
# For each patch the script copies the working tree into a throwaway
# directory, applies the patch there, and runs every gate; a gate catches
# the patch when it fails. The columns:
#
#   poolcheck atomiccheck lockcheck lifecycle ctxcheck
#            calloc-vet with only that analyzer enabled, on the touched packages
#   vet      go vet on the touched packages
#   escape   scripts/escapecheck.sh: escape analysis of the //calloc:noalloc
#            set, plus the allocation tests (go test -run Alloc ./...)
#   test     go test -short on the touched packages
#   race     go test -short -race on the touched packages
#
# Every test run has a -timeout, so a hang counts as a catch. The unpatched
# tree is scored first and must pass every gate. Prints a markdown table:
# x caught, . passed.
#
# Usage: scripts/vetscore.sh [name...]   (default: every patch)
#   VETSCORE_LOGS=dir keeps each gate's output as dir/<patch>.<gate>.log.
set -eu
cd "$(dirname "$0")/.."
repo=$(pwd)
regress=internal/analysis/testdata/regress
analyzers="poolcheck atomiccheck lockcheck lifecycle ctxcheck"
gates="$analyzers vet escape test race"

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
	test) go -C "$dir" test -count=1 -short -timeout 180s "$@" ;;
	race) go -C "$dir" test -count=1 -short -race -timeout 300s "$@" ;;
	*)
		off=
		for a in $analyzers; do
			[ "$a" = "$g" ] || off="$off -$a=false"
		done
		go -C "$dir" vet -vettool="$tmp/calloc-vet" $off "$@"
		;;
	esac
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
		if gate "$g" "$dir" $pkgs >"$logs/$name.$g.log" 2>&1; then
			row="$row . |"
		else
			row="$row x |"
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
