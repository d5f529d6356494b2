// Package analysis is a dependency-free miniature of
// golang.org/x/tools/go/analysis: just enough framework to write
// project-specific vet passes (Analyzer, Pass, Diagnostic) and run them
// both under `go vet -vettool=` (see internal/analysis/unit) and in tests
// (see internal/analysis/analysistest).
//
// The real x/tools module is deliberately not imported — the repo builds
// with a bare module cache — but the API mirrors it closely enough that the
// five analyzers (poolcheck, atomiccheck, lockcheck, lifecycle, ctxcheck)
// would port to the real framework by changing imports. The deliberate
// omissions are facts (cross-package analysis state) and sub-analyzer
// requirements: every calloc analyzer is package-local. Each one is kept
// because a regression patch under testdata/regress is caught by it and by
// no other gate (scripts/vetscore.sh; DESIGN.md "Enforced invariants").
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. Run inspects a single type-checked
// package through the Pass and reports findings via Pass.Report.
type Analyzer struct {
	// Name is the analyzer's command-line name (also the `go vet -name`
	// enable flag under the vettool).
	Name string
	// Doc is the one-paragraph description printed by usage text.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass) (any, error)
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic. The driver fills it in.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Position resolves pos against the pass's FileSet.
func (p *Pass) Position(pos token.Pos) token.Position { return p.Fset.Position(pos) }
