// Package directive parses the repo's `//calloc:` source annotations — the
// vocabulary through which code declares its allocation and ownership
// contracts to poolcheck and to scripts/escapecheck.sh:
//
//	//calloc:noalloc
//	    On a function's doc comment: the function is part of the zero-
//	    allocation hot set. No analyzer reads it. scripts/escapecheck.sh
//	    (through `calloc-vet -ranges`) holds its body to zero heap sites
//	    in the compiler's escape analysis, and its coverage check requires
//	    an allocation test (a *Alloc* test pinning testing.AllocsPerRun)
//	    that executes it.
//
//	//calloc:allow <reason>
//	    On (or immediately above) a line inside a noalloc function: an
//	    escape the compiler reports on that line is deliberate, and
//	    escapecheck.sh skips it. Reserved for deliberately cold paths —
//	    one-time buffer growth, error paths — and requires a reason.
//
//	//calloc:handoff <reason>
//	    On (or immediately above) a sync.Pool Get line: ownership of the
//	    pooled value intentionally leaves this function (returned to a
//	    caller, enqueued into a lane, abandoned to the GC on cancel), so
//	    poolcheck must not demand a Put on every path. Requires a reason.
//
// A directive written on its own line applies to the next source line, so
// both trailing and preceding placement work.
package directive

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Prefix is the comment prefix shared by every calloc directive.
const Prefix = "//calloc:"

// Directive names.
const (
	NoAlloc = "noalloc"
	Allow   = "allow"
	Handoff = "handoff"
)

// Known maps every recognised directive name to whether it must carry a
// reason. Markers (noalloc) tag code for a check; waivers suppress a
// finding and owe the reader an explanation. `calloc-vet -directives` exits
// non-zero on a reason-less waiver or a name missing from this map.
var Known = map[string]bool{
	NoAlloc: false,
	Allow:   true,
	Handoff: true,
}

// Directive is one parsed `//calloc:name reason` annotation.
type Directive struct {
	Name   string
	Reason string
	Pos    token.Pos
}

// parse extracts a directive from one comment's text, or ok == false.
func parse(c *ast.Comment) (Directive, bool) {
	text, ok := strings.CutPrefix(c.Text, Prefix)
	if !ok {
		return Directive{}, false
	}
	name, reason, _ := strings.Cut(text, " ")
	return Directive{Name: strings.TrimSpace(name), Reason: strings.TrimSpace(reason), Pos: c.Slash}, true
}

// FileIndex maps source lines of one file to the directives governing them.
type FileIndex struct {
	fset *token.FileSet
	// byLine holds the directives whose comment sits on a given line; each
	// also applies to the following line (a directive alone on its line
	// annotates the statement below it).
	byLine map[int][]Directive
}

// Index collects every line-level directive of file.
func Index(fset *token.FileSet, file *ast.File) *FileIndex {
	ix := &FileIndex{fset: fset, byLine: make(map[int][]Directive)}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if d, ok := parse(c); ok {
				line := fset.Position(c.Slash).Line
				ix.byLine[line] = append(ix.byLine[line], d)
			}
		}
	}
	return ix
}

// All returns every directive of the file in source order, with its line —
// the audit view of `calloc-vet -directives`.
func (ix *FileIndex) All() []Directive {
	var out []Directive
	for _, ds := range ix.byLine {
		out = append(out, ds...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// At returns the directive named name that governs pos: written on the same
// line or on the line directly above.
func (ix *FileIndex) At(name string, pos token.Pos) (Directive, bool) {
	line := ix.fset.Position(pos).Line
	for _, d := range ix.byLine[line] {
		if d.Name == name {
			return d, true
		}
	}
	for _, d := range ix.byLine[line-1] {
		// A trailing directive governs its own line only; one alone on its
		// line also governs the next. Both live in byLine[their line], so a
		// directive on the previous line extends down — the cost is that a
		// trailing comment also blesses the line below it, which is
		// acceptable for hand-written annotations.
		if d.Name == name {
			return d, true
		}
	}
	return Directive{}, false
}

// FuncDirective returns the directive named name from fn's doc comment.
func FuncDirective(fn *ast.FuncDecl, name string) (Directive, bool) {
	if fn.Doc == nil {
		return Directive{}, false
	}
	for _, c := range fn.Doc.List {
		if d, ok := parse(c); ok && d.Name == name {
			return d, true
		}
	}
	return Directive{}, false
}

// Lines returns every line in file bearing (or directly under) a directive
// named name — the form scripts/escapecheck.sh consumes via `calloc-vet
// -ranges`.
func (ix *FileIndex) Lines(name string) []int {
	var out []int
	for line, ds := range ix.byLine {
		for _, d := range ds {
			if d.Name == name {
				out = append(out, line, line+1)
				break
			}
		}
	}
	return out
}
