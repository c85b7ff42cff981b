// Package analysistest is a golden-file test harness for vcloudlint
// analyzers, modeled on golang.org/x/tools/go/analysis/analysistest but
// free of module dependencies. Test packages live under
// <testdata>/src/<pkg>/*.go (the go tool never compiles testdata
// directories, so fixtures may contain deliberate violations), and
// expectations are written on the offending line:
//
//	start := time.Now() // want `reads the wall clock`
//
// Each `// want` comment carries one or more Go-quoted regular
// expressions, one per expected diagnostic on that line. Diagnostics
// suppressed by a //vcloudlint:allow directive are filtered before
// matching, so fixtures can regression-test the escape hatch by pairing a
// directive with the absence of a want.
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

	"vcloud/internal/analysis"
	"vcloud/internal/analysis/loader"
)

// Run loads each package dir under testdata/src and applies the analyzer,
// comparing diagnostics against // want expectations.
func Run(t *testing.T, a *analysis.Analyzer, testdata string, pkgs ...string) {
	t.Helper()
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	for _, pkg := range pkgs {
		runPkg(t, a, fset, std, testdata, pkg)
	}
}

// RunTree loads every listed package dir under testdata/src into one tree
// (in the given order, so later fixtures may import earlier ones by their
// dir name) and applies a tree analyzer once over all of them, comparing
// diagnostics against the // want expectations of every file. Allow
// directives are honored across the whole tree, as in the real suite.
func RunTree(t *testing.T, a *analysis.Analyzer, testdata string, pkgs ...string) {
	t.Helper()
	if a.RunTree == nil {
		t.Fatalf("%s: not a tree analyzer", a.Name)
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	checked := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

	var units []*analysis.TreeUnit
	var all []*ast.File
	for _, pkg := range pkgs {
		dir := filepath.Join(testdata, "src", pkg)
		names, err := goFilesIn(dir)
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatalf("%s: %v", pkg, err)
			}
			files = append(files, f)
		}
		info := loader.NewInfo()
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(pkg, fset, files, info)
		if err != nil {
			t.Fatalf("%s: type-checking: %v", pkg, err)
		}
		checked[pkg] = tp
		units = append(units, &analysis.TreeUnit{Path: pkg, Files: files, Info: info})
		all = append(all, files...)
	}

	var diags []analysis.Diagnostic
	pass := analysis.NewTreePass(a, fset, units, func(d analysis.Diagnostic) {
		diags = append(diags, d)
	})
	if err := a.RunTree(pass); err != nil {
		t.Fatalf("%s: analyzer: %v", a.Name, err)
	}

	allows := analysis.ParseAllows(fset, all)
	kept := diags[:0]
	for _, d := range diags {
		if !allows.Allowed(fset, d.Analyzer, d.Pos) {
			kept = append(kept, d)
		}
	}
	match(t, fset, strings.Join(pkgs, "+"), all, kept)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func runPkg(t *testing.T, a *analysis.Analyzer, fset *token.FileSet, imp types.Importer, testdata, pkg string) {
	t.Helper()
	dir := filepath.Join(testdata, "src", pkg)
	names, err := goFilesIn(dir)
	if err != nil {
		t.Fatalf("%s: %v", pkg, err)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		files = append(files, f)
	}
	info := loader.NewInfo()
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(pkg, fset, files, info); err != nil {
		t.Fatalf("%s: type-checking: %v", pkg, err)
	}

	var diags []analysis.Diagnostic
	pass := analysis.NewPass(a, files, pkg, info, func(d analysis.Diagnostic) {
		diags = append(diags, d)
	})
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: analyzer: %v", pkg, err)
	}

	allows := analysis.ParseAllows(fset, files)
	kept := diags[:0]
	for _, d := range diags {
		if !allows.Allowed(fset, d.Analyzer, d.Pos) {
			kept = append(kept, d)
		}
	}
	match(t, fset, pkg, files, kept)
}

// want is one expected diagnostic.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

// match compares reported diagnostics against // want comments.
func match(t *testing.T, fset *token.FileSet, pkg string, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				ws, err := parseWants(fset, c)
				if err != nil {
					t.Fatalf("%s: %v", pkg, err)
				}
				wants = append(wants, ws...)
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.used && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic at %s:%d: %s", pkg, filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s: expected diagnostic matching %q at %s:%d, got none", pkg, w.re, filepath.Base(w.file), w.line)
		}
	}
}

// parseWants extracts the expectations from one comment. The comment text
// after "// want" is a sequence of Go-quoted strings (plain or backquoted),
// each compiled as a regexp.
func parseWants(fset *token.FileSet, c *ast.Comment) ([]*want, error) {
	const marker = "// want "
	if !strings.HasPrefix(c.Text, marker) {
		return nil, nil
	}
	pos := fset.Position(c.Pos())
	rest := strings.TrimSpace(c.Text[len(marker):])
	var wants []*want
	for rest != "" {
		q, remainder, err := nextQuoted(rest)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad // want comment: %v", filepath.Base(pos.Filename), pos.Line, err)
		}
		re, err := regexp.Compile(q)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad // want regexp: %v", filepath.Base(pos.Filename), pos.Line, err)
		}
		wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
		rest = strings.TrimSpace(remainder)
	}
	if len(wants) == 0 {
		return nil, fmt.Errorf("%s:%d: // want comment with no expectations", filepath.Base(pos.Filename), pos.Line)
	}
	return wants, nil
}

// nextQuoted pops one Go string literal off the front of s.
func nextQuoted(s string) (string, string, error) {
	switch s[0] {
	case '`':
		end := strings.IndexByte(s[1:], '`')
		if end < 0 {
			return "", "", fmt.Errorf("unterminated raw string in %q", s)
		}
		return s[1 : 1+end], s[end+2:], nil
	case '"':
		for i := 1; i < len(s); i++ {
			if s[i] == '"' && s[i-1] != '\\' {
				q, err := strconv.Unquote(s[:i+1])
				if err != nil {
					return "", "", err
				}
				return q, s[i+1:], nil
			}
		}
		return "", "", fmt.Errorf("unterminated string in %q", s)
	default:
		return "", "", fmt.Errorf("expectation must be a quoted regexp, got %q", s)
	}
}

func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return names, nil
}
