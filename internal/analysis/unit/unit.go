// Package unit implements the `go vet -vettool` protocol for the calloc
// analyzers — a dependency-free miniature of
// golang.org/x/tools/go/analysis/unitchecker.
//
// The go command drives a vettool in three modes:
//
//	vettool -V=full        print a version fingerprint for build caching
//	vettool -flags         print supported flags as JSON
//	vettool [flags] x.cfg  check one package unit described by the JSON cfg
//
// In unit mode the cfg names the package's Go files and maps every import
// to the export data the go command already compiled, so the tool
// type-checks the single package without loading anything itself.
// Diagnostics go to stderr as file:line:col: message (or grouped JSON under
// -json) and the process exits 2 when there are findings, which is how
// `go vet` learns to fail.
//
// The tool also has two modes of its own, outside the go vet protocol:
//
//	vettool -ranges [dir...]
//
// parses the tree (no type-checking) and prints the file:line ranges of
// every //calloc:noalloc function plus the //calloc:allow lines, the input
// scripts/escapecheck.sh intersects with `go build -gcflags=-m` output and
// with the coverprofile of the allocation tests.
//
//	vettool -directives [dir...]
//
// parses the tree, prints one tab-separated `file:line  name  reason` row
// per //calloc: annotation to stdout, and exits 1 (naming each offender on
// stderr) on a name missing from directive.Known or a waiver with no
// reason. Unlike -ranges it includes _test.go files and testdata fixtures:
// a waiver owes its reason wherever it appears.
package unit

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"calloc/internal/analysis"
	"calloc/internal/analysis/directive"
)

// config mirrors the JSON the go command writes for each vet unit.
type config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredGoFiles            []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the entry point for cmd/calloc-vet.
func Main(analyzers ...*analysis.Analyzer) {
	progname := filepath.Base(os.Args[0])
	log.SetFlags(0)
	log.SetPrefix(progname + ": ")

	if len(os.Args) > 1 && os.Args[1] == "-V=full" {
		printVersion(progname)
		return
	}

	enabled := make(map[string]*bool)
	for _, a := range analyzers {
		enabled[a.Name] = flag.Bool(a.Name, true, a.Doc)
	}
	jsonFlag := flag.Bool("json", false, "emit JSON diagnostics")
	flagsFlag := flag.Bool("flags", false, "print flags in JSON (go vet protocol)")
	rangesFlag := flag.Bool("ranges", false, "print //calloc:noalloc function ranges and //calloc:allow lines for escapecheck.sh")
	directivesFlag := flag.Bool("directives", false, "audit every //calloc: annotation: exit 1 on an unknown name or a reason-less waiver")
	vFlag := flag.String("V", "", "print version and exit (-V=full)")
	flag.Parse()

	switch {
	case *vFlag == "full":
		printVersion(progname)
	case *flagsFlag:
		printFlags()
	case *rangesFlag:
		if err := printRanges(flag.Args()); err != nil {
			log.Fatal(err)
		}
	case *directivesFlag:
		ok, err := printDirectives(flag.Args())
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		args := flag.Args()
		if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
			log.Fatalf(`invoke via the go command: go vet -vettool=%s ./...`, progname)
		}
		var live []*analysis.Analyzer
		for _, a := range analyzers {
			if *enabled[a.Name] {
				live = append(live, a)
			}
		}
		os.Exit(runUnit(args[0], live, *jsonFlag))
	}
}

// printVersion fingerprints the executable so `go vet` can cache results
// against the tool build.
func printVersion(progname string) {
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, string(h.Sum(nil)))
}

// printFlags describes the flag set in the JSON shape the go command reads.
func printFlags() {
	type jsonFlagDesc struct {
		Name  string
		Bool  bool
		Usage string
	}
	var descs []jsonFlagDesc
	flag.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		descs = append(descs, jsonFlagDesc{
			Name:  f.Name,
			Bool:  ok && b.IsBoolFlag(),
			Usage: f.Usage,
		})
	})
	data, err := json.MarshalIndent(descs, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}

// runUnit checks one package unit; returns the process exit code.
func runUnit(cfgFile string, analyzers []*analysis.Analyzer, asJSON bool) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	cfg := new(config)
	if err := json.Unmarshal(data, cfg); err != nil {
		log.Fatalf("cannot decode JSON config file %s: %v", cfgFile, err)
	}
	// The go command expects the facts output file regardless; the calloc
	// analyzers keep no cross-package facts, so it is always empty.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			log.Fatal(err)
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			log.Fatal(err)
		}
		files = append(files, f)
	}

	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		// path is a resolved package path, not a source import path.
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if mapped, ok := cfg.ImportMap[importPath]; ok {
			importPath = mapped
		}
		return compilerImporter.Import(importPath)
	})

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tc := &types.Config{Importer: imp}
	if cfg.GoVersion != "" {
		tc.GoVersion = cfg.GoVersion
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		log.Fatalf("typecheck %s: %v", cfg.ImportPath, err)
	}

	type finding struct {
		analyzer string
		diag     analysis.Diagnostic
	}
	var findings []finding
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report: func(d analysis.Diagnostic) {
				findings = append(findings, finding{a.Name, d})
			},
		}
		if _, err := a.Run(pass); err != nil {
			log.Fatalf("%s: %v", a.Name, err)
		}
	}
	if len(findings) == 0 {
		return 0
	}
	sort.Slice(findings, func(i, j int) bool {
		return findings[i].diag.Pos < findings[j].diag.Pos
	})
	if asJSON {
		type jsonDiag struct {
			Posn    string `json:"posn"`
			Message string `json:"message"`
		}
		byAnalyzer := make(map[string][]jsonDiag)
		for _, f := range findings {
			byAnalyzer[f.analyzer] = append(byAnalyzer[f.analyzer], jsonDiag{
				Posn:    fset.Position(f.diag.Pos).String(),
				Message: f.diag.Message,
			})
		}
		out := map[string]map[string][]jsonDiag{cfg.ImportPath: byAnalyzer}
		data, err := json.MarshalIndent(out, "", "\t")
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(data)
		fmt.Println()
		return 0
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(f.diag.Pos), f.diag.Message)
	}
	return 2
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// printRanges parses the named directories (default ".") without
// type-checking and emits, for escapecheck.sh:
//
//	range <file> <startline> <endline>   one //calloc:noalloc function body
//	allow <file> <line>                  one //calloc:allow-blessed line
func printRanges(roots []string) error {
	return walkGo(roots, false, func(fset *token.FileSet, f *ast.File) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := directive.FuncDirective(fd, directive.NoAlloc); ok {
				start, end := fset.Position(fd.Body.Pos()), fset.Position(fd.Body.End())
				fmt.Printf("range %s %d %d\n", start.Filename, start.Line, end.Line)
			}
		}
		name := fset.Position(f.Pos()).Filename
		for _, line := range directive.Index(fset, f).Lines(directive.Allow) {
			fmt.Printf("allow %s %d\n", name, line)
		}
	})
}

// printDirectives parses the named directories (default ".") without
// type-checking and prints one row per //calloc: annotation to stdout:
//
//	<file>:<line>\t<name>\t<reason>
//
// It reports false when any row breaks the vocabulary in directive.Known —
// an unknown name, or a waiver with no reason — after naming each such row
// on stderr. The proper parse is the point: grep over source also matches
// the prose mentions of //calloc: in doc comments, which this walk never
// sees. Test files and testdata fixtures are included — their waivers owe
// reasons like everyone else's.
func printDirectives(roots []string) (bool, error) {
	n, bad := 0, 0
	err := walkGo(roots, true, func(fset *token.FileSet, f *ast.File) {
		for _, dir := range directive.Index(fset, f).All() {
			pos := fset.Position(dir.Pos)
			n++
			needsReason, known := directive.Known[dir.Name]
			switch {
			case !known:
				bad++
				log.Printf("unknown directive //calloc:%s at %s:%d", dir.Name, pos.Filename, pos.Line)
			case needsReason && dir.Reason == "":
				bad++
				log.Printf("reason-less //calloc:%s at %s:%d", dir.Name, pos.Filename, pos.Line)
			}
			fmt.Printf("%s:%d\t%s\t%s\n", pos.Filename, pos.Line, dir.Name, dir.Reason)
		}
	})
	if err != nil {
		return false, err
	}
	if n == 0 {
		log.Print("no //calloc: annotations found")
		return false, nil
	}
	if bad == 0 {
		log.Printf("%d annotations, every name known and every waiver with a reason", n)
	}
	return bad == 0, nil
}

// walkGo parses every .go file under roots (default "."), skipping hidden
// directories, and hands each to visit. Test files and testdata fixtures are
// included only with withTests.
func walkGo(roots []string, withTests bool, visit func(*token.FileSet, *ast.File)) error {
	if len(roots) == 0 {
		roots = []string{"."}
	}
	for _, root := range roots {
		root = strings.TrimSuffix(root, "/...")
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if name == "testdata" && !withTests || strings.HasPrefix(name, ".") && name != "." && name != ".." {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || !withTests && strings.HasSuffix(path, "_test.go") {
				return nil
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			visit(fset, f)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
