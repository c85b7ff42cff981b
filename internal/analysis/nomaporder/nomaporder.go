// Package nomaporder flags range-over-map loops whose iteration order can
// leak into observable output. Go randomizes map iteration, so a loop that
// appends map keys/values to a slice, sends them on a channel, or writes
// them to a table/stream produces a different ordering every run — the
// exact bug class the parallel experiment harness and the merge
// anti-entropy code had to fix by hand to keep experiments_output.txt
// byte-identical.
//
// The analyzer understands the sanctioned idiom: collecting into a slice
// is fine when the same slice is sorted after the loop (sort.Slice,
// slices.Sort, ...) and before the function returns. Channel sends and
// direct writes inside the loop body have no such repair point and are
// always flagged, and so is folding into a float that outlives the loop:
// float arithmetic is not associative, so the sum's last bits follow the
// map order.
package nomaporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"vcloud/internal/analysis"
)

// Analyzer is the nomaporder check.
var Analyzer = &analysis.Analyzer{
	Name: "nomaporder",
	Doc:  "flag range-over-map loops that append/send/write in iteration order without a subsequent sort, or fold into an outer float",
	Run:  run,
}

// sortFuncs are package-level sorters that impose a deterministic order on
// a collected slice: sort.X(s, ...) and slices.SortX(s, ...) both take the
// slice as their first argument.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
		"Strings": true, "Ints": true, "Float64s": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// writerMethods are method names that emit data in call order: table rows,
// stream writes, hash updates. A call to one of these inside a
// range-over-map body makes the map order observable.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"AddRow": true,
}

// printFuncs are fmt package-level functions that emit to a stream.
// Sprint-style formatters only build values and are left to the append
// check to catch when their results are accumulated.
var printFuncs = map[string]bool{
	"Print": true, "Println": true, "Printf": true,
	"Fprint": true, "Fprintln": true, "Fprintf": true,
}

func run(pass *analysis.Pass) error {
	pass.InspectWithStack(func(n ast.Node, stack []ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		fn := analysis.EnclosingFunc(stack)
		checkBody(pass, rng, fn)
		return true
	})
	return nil
}

func checkBody(pass *analysis.Pass, rng *ast.RangeStmt, fn *ast.FuncDecl) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if n != rng {
				// Nested ranges are visited on their own by the outer walk.
				if t := pass.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						return false
					}
				}
			}
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside range over map exposes map iteration order")
			return true
		case *ast.AssignStmt:
			checkAppend(pass, n, rng, fn)
			checkFloatFold(pass, n, rng)
		case *ast.CallExpr:
			checkWriterCall(pass, n, rng)
		}
		return true
	})
}

// checkAppend flags `dst = append(dst, ...)` inside a map range when dst
// outlives the loop and is not re-sorted after it within the same
// function. Appends to slices declared inside the loop body are
// order-local (a fresh slice per map entry) and pass.
func checkAppend(pass *analysis.Pass, as *ast.AssignStmt, rng *ast.RangeStmt, fn *ast.FuncDecl) {
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isBuiltinAppend(pass, call) || len(call.Args) == 0 || i >= len(as.Lhs) {
			continue
		}
		if declaredInside(pass, rng, as.Lhs[i]) {
			continue
		}
		dst := types.ExprString(as.Lhs[i])
		if sortedAfter(pass, fn, rng, dst) {
			continue
		}
		pass.Reportf(as.Pos(), "append to %s inside range over map leaks map iteration order; sort %s after the loop or iterate sorted keys", dst, dst)
	}
}

// checkFloatFold flags `x op= v` inside a map range when x is a float or
// complex that outlives the loop. Integer folds are exact and
// order-insensitive; a float sum's last bits follow the map order, which
// is enough to move a scheduled event by a nanosecond and reorder
// same-instant outcomes.
func checkFloatFold(pass *analysis.Pass, as *ast.AssignStmt, rng *ast.RangeStmt) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return
	}
	t := pass.TypeOf(as.Lhs[0])
	if t == nil {
		return
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&(types.IsFloat|types.IsComplex) == 0 || declaredInside(pass, rng, as.Lhs[0]) {
		return
	}
	dst := types.ExprString(as.Lhs[0])
	pass.Reportf(as.Pos(), "float accumulation into %s inside range over map depends on map iteration order; sum over sorted keys", dst)
}

// declaredInside reports whether the variable at the root of expr is
// declared within the range statement itself (body or loop variables), in
// which case its contents cannot leak the iteration order outside one
// iteration.
func declaredInside(pass *analysis.Pass, rng *ast.RangeStmt, expr ast.Expr) bool {
	id := rootIdent(expr)
	if id == nil {
		return false
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	return obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End()
}

// rootIdent unwraps parens, index/slice expressions and selectors down to
// the identifier that owns the storage: (p.rows)[i:] -> p.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := pass.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// checkWriterCall flags stream/table writes and fmt printing inside the
// loop body. Writers constructed inside the loop (a fresh hash or buffer
// per map entry) are order-local and pass.
func checkWriterCall(pass *analysis.Pass, call *ast.CallExpr, rng *ast.RangeStmt) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if pkg, name, ok := pass.UsedPkgFunc(sel); ok {
		if pkg == "fmt" && printFuncs[name] {
			pass.Reportf(call.Pos(), "fmt.%s inside range over map emits output in map iteration order", name)
		}
		return
	}
	// Method call: x.Write(...), table.AddRow(...).
	if writerMethods[sel.Sel.Name] && !declaredInside(pass, rng, sel.X) {
		pass.Reportf(call.Pos(), "%s inside range over map emits output in map iteration order", types.ExprString(sel))
	}
}

// sortedAfter reports whether, somewhere after the range statement in the
// same function body, dst — or a slice alias of it like
// `added := dst[start:]` — is passed as the first argument to a sort
// function. Position ordering stands in for control flow — good enough
// for the collect-then-sort idiom this analyzer sanctions.
func sortedAfter(pass *analysis.Pass, fn *ast.FuncDecl, rng *ast.RangeStmt, dst string) bool {
	if fn == nil || fn.Body == nil {
		return false
	}
	accepted := map[string]bool{dst: true}
	// First pass: collect post-loop aliases of dst (`x := dst[...]`).
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Pos() < rng.End() {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			if c := containerExpr(rhs); accepted[c] {
				accepted[types.ExprString(as.Lhs[i])] = true
			}
		}
		return true
	})
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, name, ok := pass.UsedPkgFunc(sel)
		if !ok || !sortFuncs[pkg][name] {
			return true
		}
		if accepted[containerExpr(call.Args[0])] {
			found = true
			return false
		}
		return true
	})
	return found
}

// containerExpr renders the expression that owns an argument's backing
// array: dst[start:] and (dst) both reduce to dst; s.ids stays s.ids.
func containerExpr(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return types.ExprString(e)
		}
	}
}
