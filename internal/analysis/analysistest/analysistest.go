// Package analysistest is the golden-file test harness for the calloc-vet
// analyzer — a miniature of golang.org/x/tools/go/analysis/analysistest.
//
// A fixture package lives under <testdata>/src/<pkg>/ as ordinary Go files.
// Lines that should trigger a diagnostic carry a trailing comment of the
// form
//
//	// want "regexp"
//	// want "regexp1" "regexp2"
//
// Run type-checks the fixture with the source importer (stdlib imports
// resolve against GOROOT), executes the analyzer, and fails the test for
// every diagnostic with no matching want and every want with no matching
// diagnostic.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"calloc/internal/analysis"
)

// expectation is one `// want` clause awaiting a diagnostic.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run executes a over each fixture package and checks diagnostics against
// the `// want` comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		t.Run(pkg, func(t *testing.T) {
			t.Helper()
			runOne(t, filepath.Join(testdata, "src", pkg), a)
		})
	}
}

func runOne(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
		Error:    func(err error) { t.Logf("typecheck: %v", err) },
	}
	pkg, err := conf.Check(files[0].Name.Name, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck failed: %v", err)
	}

	wants := collectWants(t, fset, files)

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("analyzer %s error: %v", a.Name, err)
	}

	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if !match(wants, pos.Filename, pos.Line, d.Message) {
			t.Errorf("unexpected diagnostic at %s:%d: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("no diagnostic at %s:%d matching %q", filepath.Base(w.file), w.line, w.re)
		}
	}
}

func match(wants []*expectation, file string, line int, msg string) bool {
	for _, w := range wants {
		if w.matched || w.file != file || w.line != line {
			continue
		}
		if w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants parses `// want "re" ...` comments.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Slash)
				res, err := parseWant(text)
				if err != nil {
					t.Fatalf("%s:%d: bad want comment: %v", pos.Filename, pos.Line, err)
				}
				for _, re := range res {
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// parseWant splits a want payload into its quoted regexps. Both `...`
// and "..." quote forms are accepted, as in x/tools analysistest.
func parseWant(s string) ([]*regexp.Regexp, error) {
	var out []*regexp.Regexp
	s = strings.TrimSpace(s)
	for s != "" {
		quote := s[0]
		if quote != '"' && quote != '`' {
			return nil, fmt.Errorf("expected quoted regexp, found %q", s)
		}
		end := 1
		for end < len(s) {
			if quote == '"' && s[end] == '\\' {
				end += 2
				continue
			}
			if s[end] == quote {
				break
			}
			end++
		}
		if end >= len(s) {
			return nil, fmt.Errorf("unterminated quote in %q", s)
		}
		lit, err := strconv.Unquote(s[:end+1])
		if err != nil {
			return nil, fmt.Errorf("unquoting %q: %w", s[:end+1], err)
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			return nil, fmt.Errorf("compiling %q: %w", lit, err)
		}
		out = append(out, re)
		s = strings.TrimSpace(s[end+1:])
	}
	return out, nil
}
