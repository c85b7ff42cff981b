// Package nogoroutine flags concurrency primitives in kernel-driven code.
// The simulation kernel is single-goroutine by design (see internal/sim):
// every model callback runs on the caller's goroutine, in (time, seq)
// order, with no locking. A `go` statement or a sync primitive inside that
// world either races the event loop or silently reorders it — both break
// determinism.
//
// Sanctioned concurrency sites (fanout.Each's bounded worker pool, the
// sharded kernel's shard workers) carry a //vcloudlint:allow
// directive with the reasoning at the site, so a rename or refactor can
// never silently widen an exemption.
package nogoroutine

import (
	"go/ast"

	"vcloud/internal/analysis"
)

// Analyzer is the nogoroutine check.
var Analyzer = &analysis.Analyzer{
	Name: "nogoroutine",
	Doc:  "flag go statements and sync/sync/atomic usage in kernel-driven code (the event loop is single-threaded)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	pass.InspectWithStack(func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in kernel-driven code: model callbacks must run on the kernel's single event loop")
		case *ast.SelectorExpr:
			pkg, name, ok := pass.UsedPkgFunc(n)
			if !ok {
				return true
			}
			if pkg == "sync" || pkg == "sync/atomic" {
				pass.Reportf(n.Pos(), "%s.%s in kernel-driven code: the event loop is single-threaded and needs no locking", pathBase(pkg), name)
			}
		}
		return true
	})
	return nil
}

func pathBase(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[i+1:]
		}
	}
	return p
}
