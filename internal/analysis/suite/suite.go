// Package suite assembles the vcloudlint analyzers, decides which module
// packages each one applies to, and runs them over loaded packages with
// //vcloudlint:allow suppression applied. cmd/vcloudlint and the suite
// self-test share this code so "the tree is clean" means the same thing on
// a laptop and in CI.
package suite

import (
	"go/ast"
	"go/token"
	"sort"

	"vcloud/internal/analysis"
	"vcloud/internal/analysis/epochstamp"
	"vcloud/internal/analysis/exhaustenum"
	"vcloud/internal/analysis/hotalloc"
	"vcloud/internal/analysis/loader"
	"vcloud/internal/analysis/noglobalrand"
	"vcloud/internal/analysis/nogoroutine"
	"vcloud/internal/analysis/nomaporder"
	"vcloud/internal/analysis/nowallclock"
	"vcloud/internal/analysis/shardpure"
)

// Entry pairs an analyzer with its package filter.
type Entry struct {
	Analyzer *analysis.Analyzer
	// Applies reports whether the analyzer runs on the package with the
	// given import path. Tree analyzers see every loaded package at once;
	// their Applies is informational only.
	Applies func(pkgPath string) bool
}

// SimDriven reports whether a package runs under the simulation kernel's
// virtual clock and single-threaded event loop: the root vcloud package
// and everything under internal/ except the analysis tooling itself.
// cmd/ and examples/ binaries orchestrate runs from outside the kernel
// (vcloudbench legitimately measures wall time and runs a worker pool).
func SimDriven(pkgPath string) bool {
	if pkgPath == "vcloud" {
		return true
	}
	if !hasPrefix(pkgPath, "vcloud/internal/") {
		return false
	}
	return !hasPrefix(pkgPath, "vcloud/internal/analysis")
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

func everywhere(string) bool { return true }

// Suite returns the eight vcloudlint analyzers in report order.
//
// nowallclock and nogoroutine bind only to sim-driven packages: binaries
// may time themselves and parallelize. noglobalrand and nomaporder bind
// everywhere — the global rand source is never reproducible, and
// vcloudbench's stdout must stay byte-identical at any parallelism, so
// map-ordered output is a bug in cmd/ too. epochstamp and exhaustenum bind
// everywhere they can trigger (they only fire on the module's own types).
// shardpure and hotalloc are tree analyzers: they build one call graph
// over every loaded package, because the whole point is chasing effects
// across package boundaries.
func Suite() []Entry {
	return []Entry{
		{nowallclock.Analyzer, SimDriven},
		{noglobalrand.Analyzer, everywhere},
		{nomaporder.Analyzer, everywhere},
		{nogoroutine.Analyzer, SimDriven},
		{epochstamp.Analyzer, everywhere},
		{exhaustenum.Analyzer, everywhere},
		{shardpure.Analyzer, everywhere},
		{hotalloc.Analyzer, everywhere},
	}
}

// Finding is one rendered diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Run executes every suite analyzer over every applicable package and
// returns the surviving findings sorted by position. Malformed allow
// directives are findings too: a suppression without a reason defeats the
// point of the escape hatch. So are stale ones — after every analyzer has
// reported, any //vcloudlint:allow that suppressed nothing is itself a
// finding, so reasoned exemptions cannot rot after refactors.
func Run(fset *token.FileSet, pkgs []*loader.Package) ([]Finding, error) {
	// One allow set over the whole tree: tree analyzers report sites in
	// any package, and a directive's scope is a source line, which is
	// unambiguous across packages because filenames are.
	units := make([]*analysis.TreeUnit, 0, len(pkgs))
	var allFiles []*ast.File
	for _, pkg := range pkgs {
		allFiles = append(allFiles, pkg.Files...)
		units = append(units, &analysis.TreeUnit{Path: pkg.Path, Files: pkg.Files, Info: pkg.Info})
	}
	allows := analysis.ParseAllows(fset, allFiles)

	var findings []Finding
	for _, m := range allows.Malformed {
		findings = append(findings, Finding{Pos: fset.Position(m.Pos), Analyzer: m.Analyzer, Message: m.Message})
	}

	keep := func(diags []analysis.Diagnostic) {
		for _, d := range diags {
			if allows.Allowed(fset, d.Analyzer, d.Pos) {
				continue
			}
			findings = append(findings, Finding{Pos: fset.Position(d.Pos), Analyzer: d.Analyzer, Message: d.Message})
		}
	}

	for _, pkg := range pkgs {
		for _, e := range Suite() {
			if e.Analyzer.Run == nil || !e.Applies(pkg.Path) {
				continue
			}
			var diags []analysis.Diagnostic
			pass := analysis.NewPass(e.Analyzer, pkg.Files, pkg.Path, pkg.Info, func(d analysis.Diagnostic) {
				diags = append(diags, d)
			})
			if err := e.Analyzer.Run(pass); err != nil {
				return nil, err
			}
			keep(diags)
		}
	}

	for _, e := range Suite() {
		if e.Analyzer.RunTree == nil {
			continue
		}
		var diags []analysis.Diagnostic
		pass := analysis.NewTreePass(e.Analyzer, fset, units, func(d analysis.Diagnostic) {
			diags = append(diags, d)
		})
		if err := e.Analyzer.RunTree(pass); err != nil {
			return nil, err
		}
		keep(diags)
	}

	// Stale audit last: every analyzer has now had its chance to hit each
	// directive.
	for _, d := range allows.Stale() {
		findings = append(findings, Finding{Pos: fset.Position(d.Pos), Analyzer: d.Analyzer, Message: d.Message})
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
