// Command calloc-vet is the repo's vet tool: one project-specific analyzer,
// poolcheck, that turns the serving stack's sync.Pool ownership rules (a
// pooled value reaches Put on every path, goes back reset and at zero
// length, and is not used after Put) into build failures.
//
// Run it through the go command:
//
//	go build -o bin/calloc-vet ./cmd/calloc-vet
//	go vet -vettool=bin/calloc-vet ./...
//
// Two modes of its own serve the rest of the gate. `calloc-vet -directives`
// audits every //calloc: annotation and exits non-zero on an unknown name or
// a reason-less waiver. `calloc-vet -ranges` lists the //calloc:noalloc
// functions for scripts/escapecheck.sh, which holds them to zero compiler
// heap sites and to an allocation test that executes each one. See DESIGN.md
// "Enforced invariants" for which gate owns which property.
package main

import (
	"calloc/internal/analysis/poolcheck"
	"calloc/internal/analysis/unit"
)

func main() {
	unit.Main(poolcheck.Analyzer)
}
