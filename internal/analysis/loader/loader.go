// Package loader turns `go list` package metadata into parsed,
// type-checked packages for the vcloudlint analyzers. It is a minimal,
// dependency-free stand-in for golang.org/x/tools/go/packages: module
// packages are type-checked bottom-up in import order with a shared
// FileSet, and standard-library imports resolve through the compiler's
// source importer, so the whole pipeline works offline.
//
// Only production sources (GoFiles) are loaded. Test files are exercised
// by `go test` itself and legitimately measure wall time or use shared
// test fixtures; the determinism contract binds the code the simulator
// actually runs.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded module package.
type Package struct {
	Path  string // import path, e.g. vcloud/internal/sim
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listEntry is the subset of `go list -json` output the loader needs.
type listEntry struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Standard   bool
}

// Load lists patterns (e.g. "./...") relative to dir, then parses and
// type-checks every non-standard package in their dependency closure, in
// dependency order. Loading the closure (-deps) keeps every module
// package on the fast, consistent in-module path of the chained importer
// even when the pattern names a single leaf. The returned packages share
// fset.
func Load(fset *token.FileSet, dir string, patterns ...string) ([]*Package, error) {
	entries, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	byPath := make(map[string]*listEntry, len(entries))
	paths := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.Standard {
			continue
		}
		byPath[e.ImportPath] = e
		paths = append(paths, e.ImportPath)
	}
	sort.Strings(paths)
	order, err := topoSort(paths, byPath)
	if err != nil {
		return nil, err
	}

	std := importer.ForCompiler(fset, "source", nil)
	checked := make(map[string]*types.Package)
	imp := &chainImporter{std: std, mod: checked}

	var pkgs []*Package
	for _, path := range order {
		e := byPath[path]
		p, err := check(fset, e, imp)
		if err != nil {
			return nil, err
		}
		checked[path] = p.Types
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// goList shells out to the go tool for package metadata.
func goList(dir string, patterns []string) ([]*listEntry, error) {
	args := append([]string{"list", "-deps", "-json=ImportPath,Dir,GoFiles,Imports,Standard"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	var entries []*listEntry
	dec := json.NewDecoder(&out)
	for dec.More() {
		e := new(listEntry)
		if err := dec.Decode(e); err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// topoSort orders paths so every package follows its in-module imports.
func topoSort(paths []string, byPath map[string]*listEntry) ([]string, error) {
	const (
		unseen = iota
		visiting
		done
	)
	state := make(map[string]int, len(paths))
	order := make([]string, 0, len(paths))
	var visit func(string) error
	visit = func(p string) error {
		switch state[p] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("import cycle through %s", p)
		}
		state[p] = visiting
		e := byPath[p]
		deps := append([]string(nil), e.Imports...)
		sort.Strings(deps)
		for _, dep := range deps {
			if _, inModule := byPath[dep]; inModule {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[p] = done
		order = append(order, p)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// check parses and type-checks one package.
func check(fset *token.FileSet, e *listEntry, imp types.Importer) (*Package, error) {
	files := make([]*ast.File, 0, len(e.GoFiles))
	for _, name := range e.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(e.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: imp}
	tp, err := conf.Check(e.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", e.ImportPath, err)
	}
	return &Package{Path: e.ImportPath, Files: files, Types: tp, Info: info}, nil
}

// NewInfo allocates the full set of type-information maps the analyzers
// consume.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// chainImporter resolves module packages from the already-checked set and
// everything else through the source importer. Module packages are
// guaranteed present by the topological load order.
type chainImporter struct {
	std types.Importer
	mod map[string]*types.Package
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.mod[path]; ok {
		return p, nil
	}
	return c.std.Import(path)
}
