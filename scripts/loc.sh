#!/bin/sh
# loc.sh — print the root module's non-test Go line count, then the figures
# for the model packages, the serving engine, the vet suite, and the node,
# trainer, router and serving command, so a reduction shows up as a number.
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
for dir in internal/nn internal/core internal/mat internal/serve internal/analysis \
	internal/node internal/train internal/cluster cmd/calloc-serve; do
	printf '%s\t%s\n' "$dir" "$(lines "$dir")"
done
