#!/bin/sh
# escapecheck.sh — hold the //calloc:noalloc set to its two ground truths.
#
# 1. The compiler's escape analysis: the tree is built with -gcflags=-m
#    under a throwaway GOCACHE (a warm cache would print nothing), and every
#    "escapes to heap" / "moved to heap" line that falls inside a
#    //calloc:noalloc function body fails the check, unless a
#    //calloc:allow on that line explains it.
# 2. A runtime check behind every marker: `go test -short -run Alloc` runs
#    the allocation tests (testing.AllocsPerRun assertions pinned at the
#    count the tree measures) under a coverprofile, and every noalloc
#    function must execute in at least one of them. A function in a file
#    the host architecture does not build (kernels_stub.go on amd64) is
#    exempt by its build constraint and counted as such.
#
# The function ranges and allow lines come from `calloc-vet -ranges`.
#
# Usage: scripts/escapecheck.sh
#   CALLOC_VET=path/to/calloc-vet to reuse an already-built tool.
set -eu
cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

tool=${CALLOC_VET:-}
if [ -z "$tool" ]; then
	tool="$tmpdir/calloc-vet"
	go build -o "$tool" ./cmd/calloc-vet
fi

"$tool" -ranges . >"$tmpdir/ranges"
nranges=$(grep -c '^range ' "$tmpdir/ranges" || true)
if [ "$nranges" -eq 0 ]; then
	echo "escapecheck: no //calloc:noalloc functions found — annotation sweep missing?" >&2
	exit 1
fi

# A fresh GOCACHE forces every listed package through the compiler so -m
# diagnostics actually print; -gcflags applies only to the named packages.
GOCACHE="$tmpdir/gocache" go build -gcflags=-m ./... 2>&1 |
	grep -E 'escapes to heap|moved to heap' >"$tmpdir/escapes" || true

awk '
NR == FNR {
	if ($1 == "range") { n++; rf[n] = $2; rs[n] = $3; re[n] = $4 }
	else if ($1 == "allow") allow[$2 ":" $3] = 1
	next
}
{
	split($1, p, ":"); f = p[1]; l = p[2] + 0
	if (allow[f ":" l]) next
	for (i = 1; i <= n; i++)
		if (f == rf[i] && l >= rs[i] && l <= re[i]) {
			print "escapecheck: heap site in noalloc function: " $0
			bad = 1
			break
		}
}
END { exit bad ? 1 : 0 }
' "$tmpdir/ranges" "$tmpdir/escapes" || {
	echo "escapecheck: FAIL — the //calloc:noalloc set is not allocation-free" >&2
	exit 1
}

# The files this architecture builds, and the blocks the allocation tests
# executed, both as module-relative paths.
mod=$(go list -m)
go list -f '{{$p := .ImportPath}}{{range .GoFiles}}{{$p}}/{{.}}{{"\n"}}{{end}}' ./... |
	sed "s|^$mod/||" >"$tmpdir/built"
go test -count=1 -short -run Alloc -coverpkg=./... -coverprofile="$tmpdir/cover" ./... >"$tmpdir/test.log" 2>&1 || {
	cat "$tmpdir/test.log" >&2
	echo "escapecheck: FAIL — the allocation tests failed" >&2
	exit 1
}

awk -v mod="$mod/" '
FILENAME == ARGV[1] { built[$1] = 1; next }
FILENAME == ARGV[2] {
	if ($1 == "range") { n++; rf[n] = $2; rs[n] = $3; re[n] = $4 }
	next
}
/^mode:/ { next }
$NF > 0 {
	split($1, p, ":"); f = substr(p[1], length(mod) + 1)
	split(p[2], q, "."); hit[f ":" q[1]] = 1
}
END {
	for (i = 1; i <= n; i++) {
		if (!(rf[i] in built)) continue
		for (l = rs[i]; l <= re[i]; l++)
			if (hit[rf[i] ":" l]) break
		if (l > re[i]) {
			print "escapecheck: no allocation test executes the noalloc function at " rf[i] ":" rs[i]
			bad = 1
		}
	}
	exit bad ? 1 : 0
}
' "$tmpdir/built" "$tmpdir/ranges" "$tmpdir/cover" || {
	echo "escapecheck: FAIL — every //calloc:noalloc function needs a test named *Alloc* that runs it" >&2
	exit 1
}
nexempt=$(awk 'NR == FNR { built[$1] = 1; next } $1 == "range" && !($2 in built)' \
	"$tmpdir/built" "$tmpdir/ranges" | wc -l | tr -d ' ')

echo "escapecheck: OK — $nranges noalloc functions, zero unexplained heap sites; $((nranges - nexempt)) executed by allocation tests, $nexempt not built on $(go env GOARCH)"
