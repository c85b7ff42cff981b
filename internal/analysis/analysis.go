// Package analysis is a minimal reimplementation of the golang.org/x/tools
// go/analysis vocabulary — Analyzer, Pass, Diagnostic — built on the
// standard library only, so the vcloudlint suite needs no module
// dependencies. An Analyzer inspects one type-checked package at a time and
// reports diagnostics; drivers (cmd/vcloudlint, the analysistest harness)
// decide which packages each analyzer sees and how diagnostics are
// rendered.
//
// The suite exists to enforce the simulator's determinism and fencing
// contracts statically (see DESIGN.md, "Determinism contract"): wall-clock
// reads, global randomness, map-iteration-ordered output, stray
// concurrency in kernel-driven code, and unfenced epoch-carrying messages
// all break bit-for-bit reproducibility in ways the tests can only
// spot-check.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. Name appears in diagnostics and in
// //vcloudlint:allow directives; Doc is the one-paragraph description shown
// by `vcloudlint -list`. Exactly one of Run and RunTree is set: Run
// analyzers inspect one package at a time, RunTree analyzers see every
// loaded package at once (the interprocedural checks, which chase effects
// through the whole call graph).
type Analyzer struct {
	Name    string
	Doc     string
	Run     func(*Pass) error
	RunTree func(*TreePass) error
}

// Pass carries one type-checked package through an analyzer run.
type Pass struct {
	Analyzer *Analyzer
	// Files are the package's parsed source files (comments included, so
	// allow directives survive into the pass).
	Files []*ast.File
	// Path is the package import path ("vcloud/internal/sim").
	Path string
	Info *types.Info
	// report receives every diagnostic; the driver wires it.
	report func(Diagnostic)
}

// Diagnostic is one finding, positioned inside the package being analyzed.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// NewPass assembles a Pass for one analyzer over one package, delivering
// diagnostics to sink. Drivers construct passes; analyzers only consume
// them.
func NewPass(a *Analyzer, files []*ast.File, path string, info *types.Info, sink func(Diagnostic)) *Pass {
	return &Pass{Analyzer: a, Files: files, Path: path, Info: info, report: sink}
}

// TreeUnit is one loaded package as seen by a tree (interprocedural)
// analyzer: the same parsed+type-checked material a Pass carries, without
// binding it to a single analyzer.
type TreeUnit struct {
	Path  string
	Files []*ast.File
	Info  *types.Info
}

// TreePass carries every loaded package through one tree analyzer run.
// Units arrive in the loader's deterministic dependency order, so finding
// order is a pure function of the source tree.
type TreePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Units    []*TreeUnit
	report   func(Diagnostic)
}

// Reportf reports a diagnostic at pos, which may lie in any loaded unit.
func (p *TreePass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// NewTreePass assembles a TreePass over the loaded units for one tree
// analyzer, delivering diagnostics to sink.
func NewTreePass(a *Analyzer, fset *token.FileSet, units []*TreeUnit, sink func(Diagnostic)) *TreePass {
	return &TreePass{Analyzer: a, Fset: fset, Units: units, report: sink}
}

// InspectWithStack walks every file in the pass in source order, calling fn
// with each node and the stack of its ancestors (outermost first, not
// including n itself). Returning false prunes the subtree below n.
func (p *Pass) InspectWithStack(fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			descend := fn(n, stack)
			if !descend {
				// ast.Inspect still expects balanced push/pop only when
				// descending; pruned nodes get no pop callback.
				return false
			}
			stack = append(stack, n)
			return true
		})
	}
}

// EnclosingFunc returns the innermost function declaration on the stack,
// or nil when the node is at package scope (var/const/type declarations).
// Function literals are skipped: a closure inherits the identity of the
// declared function that lexically contains it, which is what the
// per-function allowlists want.
func EnclosingFunc(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// FuncKey names a function declaration for allowlist lookup as
// "pkgpath.Func" or "pkgpath.Recv.Method" (pointer receivers drop the
// star, so both value and pointer methods key the same way).
func FuncKey(pkgPath string, fd *ast.FuncDecl) string {
	if fd == nil {
		return ""
	}
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := fd.Recv.List[0].Type
		if st, ok := t.(*ast.StarExpr); ok {
			t = st.X
		}
		if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
			t = idx.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return pkgPath + "." + id.Name + "." + fd.Name.Name
		}
	}
	return pkgPath + "." + fd.Name.Name
}

// UsedPkgFunc resolves a selector expression to (package path, object
// name) when the selector's X names an imported package (time.Now,
// rand.Intn, sync.Mutex). It returns ok=false for field and method
// selections.
func (p *Pass) UsedPkgFunc(sel *ast.SelectorExpr) (pkgPath, name string, ok bool) {
	id, okX := sel.X.(*ast.Ident)
	if !okX {
		return "", "", false
	}
	if _, isPkg := p.Info.Uses[id].(*types.PkgName); !isPkg {
		return "", "", false
	}
	obj := p.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), true
}
