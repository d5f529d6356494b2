#!/bin/sh
# loc.sh — print the root module's non-test Go line count, then the figures
# for the model packages, the serving engine and the vet suite, so a
# reduction shows up as a number.
#
# A line is any line of a .go file (comments and blanks included). Test
# files and testdata fixtures are excluded, and so is bench/, which is a
# module of its own.
#
# Usage: scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."

lines() {
	find "$@" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './bench/*' \
		-exec cat {} + | wc -l | tr -d ' '
}

printf 'root\t%s\n' "$(lines .)"
for pkg in nn core mat serve analysis; do
	printf 'internal/%s\t%s\n' "$pkg" "$(lines "internal/$pkg")"
done
