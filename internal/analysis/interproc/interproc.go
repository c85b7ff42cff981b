// Package interproc builds a tree-wide call graph over the loader's
// topo-ordered packages and computes per-function effect summaries: does a
// function — directly or through anything it calls — read the wall clock,
// draw from the global rand source, leak map iteration order, spawn
// goroutines, or allocate. The shardpure and hotalloc analyzers are thin
// queries over this graph: they pick root sets (shard callbacks, hotpath
// annotations) and report the first concrete effect site reachable from
// each root, with the call chain that gets there.
//
// Soundness posture: purity effects (wall clock, global rand, map order,
// goroutines) reuse the per-function analyzers' own detectors, run with
// suppression disabled, so the interprocedural closure and the
// intra-procedural checks can never disagree about what counts as an
// effect. Calls that cannot be resolved statically — interface methods,
// func-valued variables and fields — are treated conservatively as an
// effect of their own (EffDynamicCall), and calls into packages outside
// the loaded tree are assumed to allocate (EffAllocExtern) unless the
// package is on the short clean list of pure-computation stdlib packages.
//
// Allocation effects are deliberately not a full escape analysis. Flagged:
// slice/map composite literals, &T{} literals, make/new, appends that grow
// a function-local slice, and closure creation. Not flagged: appends whose
// destination is a parameter, receiver field or package variable (the
// caller-owned scratch / freelist idiom — amortized O(1) steady state),
// taking the address of an existing variable, value composite literals,
// variadic argument construction, and interface boxing. Those are exactly
// the carve-outs the AllocsPerRun benchmarks rely on.
package interproc

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"vcloud/internal/analysis"
	"vcloud/internal/analysis/noglobalrand"
	"vcloud/internal/analysis/nogoroutine"
	"vcloud/internal/analysis/nomaporder"
	"vcloud/internal/analysis/nowallclock"
)

// Effect is a bitset of behaviors a function exhibits directly or
// transitively.
type Effect uint16

const (
	// EffWallClock: reads the host clock (time.Now and friends).
	EffWallClock Effect = 1 << iota
	// EffGlobalRand: draws from the process-global math/rand source.
	EffGlobalRand
	// EffMapOrder: leaks map iteration order into an ordering sink.
	EffMapOrder
	// EffGoroutine: spawns a goroutine or touches sync primitives.
	EffGoroutine
	// EffAllocHeap: heap-allocating expression (&T{}, slice/map literal,
	// make, new).
	EffAllocHeap
	// EffAllocAppend: append that grows a function-local slice.
	EffAllocAppend
	// EffAllocClosure: creates a func literal (closure allocation).
	EffAllocClosure
	// EffAllocExtern: calls a package outside the loaded tree that is not
	// on the clean list, so it may allocate.
	EffAllocExtern
	// EffDynamicCall: calls through a func value or interface method; the
	// callee cannot be resolved statically.
	EffDynamicCall
)

// PurityEffects are the bits that break bit-for-bit determinism when they
// run under a shard worker: the interprocedural closure of the per-package
// purity analyzers.
const PurityEffects = EffWallClock | EffGlobalRand | EffMapOrder | EffGoroutine

// AllocEffects are the bits that cost heap allocations on a hot path.
const AllocEffects = EffAllocHeap | EffAllocAppend | EffAllocClosure | EffAllocExtern

// effectNames maps single bits to stable names for messages and tests.
var effectNames = map[Effect]string{
	EffWallClock:    "wall-clock read",
	EffGlobalRand:   "global rand draw",
	EffMapOrder:     "map-order leak",
	EffGoroutine:    "goroutine/sync use",
	EffAllocHeap:    "heap allocation",
	EffAllocAppend:  "growing append",
	EffAllocClosure: "closure allocation",
	EffAllocExtern:  "extern call",
	EffDynamicCall:  "dynamic call",
}

// Bits expands a mask into its single-bit effects in declaration order.
func (e Effect) Bits() []Effect {
	var out []Effect
	for b := EffWallClock; b <= EffDynamicCall; b <<= 1 {
		if e&b != 0 {
			out = append(out, b)
		}
	}
	return out
}

func (e Effect) String() string {
	if n, ok := effectNames[e]; ok {
		return n
	}
	parts := make([]string, 0, 4)
	for _, b := range e.Bits() {
		parts = append(parts, effectNames[b])
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// Site is one concrete source location where an effect happens.
type Site struct {
	Pos    token.Pos
	Detail string
}

// Node is one function (declaration or literal) in the call graph.
type Node struct {
	// Key names the function: "pkgpath.Func", "pkgpath.Recv.Method", or
	// "enclosingKey·lit@file:line:col" for function literals.
	Key string
	// Direct holds the effects of this function's own body; Summary adds
	// everything reachable through its calls (fixed point over the graph).
	Direct  Effect
	Summary Effect

	bodyPos, bodyEnd token.Pos
	calls            map[string]token.Pos // callee key -> first call site
	callees          []string             // sorted, filled by Build
	sites            map[Effect]Site      // first site per single-bit direct effect
}

// Site returns the first recorded site of the single-bit direct effect.
func (n *Node) Site(bit Effect) (Site, bool) {
	s, ok := n.sites[bit]
	return s, ok
}

// CallSite returns where this node first calls callee.
func (n *Node) CallSite(callee string) (token.Pos, bool) {
	p, ok := n.calls[callee]
	return p, ok
}

// Root is one entry point an analyzer enforces effects from.
type Root struct {
	Key    string
	Origin string // human-readable provenance, e.g. "shard callback registered at world.go:391"
	Pos    token.Pos
}

// Tree is the interprocedural analysis result over one set of loaded
// packages.
type Tree struct {
	Nodes map[string]*Node
	// Keys is every node key in sorted order; iteration over it is the
	// deterministic order every traversal uses.
	Keys []string
	// ShardRoots are functions registered as sharded-kernel callbacks:
	// func-typed arguments to ShardedKernel.Inject or to the scheduling
	// methods of a Kernel obtained from ShardedKernel.Shard.
	ShardRoots []Root
	// Hotpaths are functions annotated //vcloudlint:hotpath.
	Hotpaths []Root
	// UnresolvedShard are shard-callback registration sites whose callback
	// could not be resolved to a function (a func-valued variable, or the
	// result of a call).
	UnresolvedShard []Site
}

// cleanExtern lists packages outside the tree whose calls are known
// allocation-free pure computation (or whose effects the purity analyzers
// already catch by name, like time and math/rand): calling into them adds
// no effect bits.
var cleanExtern = map[string]bool{
	"math":           true,
	"math/bits":      true,
	"math/rand":      true,
	"math/rand/v2":   true,
	"time":           true,
	"container/heap": true,
}

// hotpathPrefix marks a function whose transitive closure must be
// allocation-free; see the hotalloc analyzer.
const hotpathPrefix = "//vcloudlint:hotpath"

// purityCaptures pairs each per-function analyzer with the effect bit its
// diagnostics map to.
var purityCaptures = []struct {
	analyzer *analysis.Analyzer
	bit      Effect
}{
	{nowallclock.Analyzer, EffWallClock},
	{noglobalrand.Analyzer, EffGlobalRand},
	{nomaporder.Analyzer, EffMapOrder},
	{nogoroutine.Analyzer, EffGoroutine},
}

type builder struct {
	fset      *token.FileSet
	tree      *Tree
	unitPaths map[string]bool
	// litKeys maps every function literal to its node key, for shard-root
	// resolution after the main walk.
	litKeys map[*ast.FuncLit]string
	// spans[filename] holds every function node's body span in that file,
	// for mapping captured diagnostics to their innermost function.
	spans map[string][]spanEntry
	// carriers are objects (variables or struct fields) holding a Kernel
	// obtained from ShardedKernel.Shard.
	carriers map[types.Object]bool
}

type spanEntry struct {
	pos, end token.Pos
	key      string
}

// Build constructs the call graph and effect summaries for units. Units
// must arrive in a deterministic order (the loader's dependency order);
// everything downstream is then a pure function of the source tree.
func Build(fset *token.FileSet, units []*analysis.TreeUnit) *Tree {
	b := &builder{
		fset:      fset,
		tree:      &Tree{Nodes: make(map[string]*Node)},
		unitPaths: make(map[string]bool, len(units)),
		litKeys:   make(map[*ast.FuncLit]string),
		spans:     make(map[string][]spanEntry),
		carriers:  make(map[types.Object]bool),
	}
	for _, u := range units {
		b.unitPaths[u.Path] = true
	}
	for _, u := range units {
		b.walkUnit(u)
	}
	b.captureEffects(units)
	for _, u := range units {
		b.collectCarriers(u)
	}
	for _, u := range units {
		b.collectShardRoots(u)
	}
	b.finish()
	return b.tree
}

func (b *builder) node(key string) *Node {
	n := b.tree.Nodes[key]
	if n == nil {
		n = &Node{
			Key:   key,
			calls: make(map[string]token.Pos),
			sites: make(map[Effect]Site),
		}
		b.tree.Nodes[key] = n
	}
	return n
}

func (b *builder) addDirect(n *Node, bit Effect, pos token.Pos, detail string) {
	if n == nil {
		return
	}
	n.Direct |= bit
	if _, ok := n.sites[bit]; !ok {
		n.sites[bit] = Site{Pos: pos, Detail: detail}
	}
}

func (b *builder) addEdge(n *Node, callee string, pos token.Pos) {
	if n == nil || callee == n.Key {
		return
	}
	if _, ok := n.calls[callee]; !ok {
		n.calls[callee] = pos
	}
}

// walkUnit enumerates the unit's functions, records their body spans, and
// extracts allocation effects and call edges.
func (b *builder) walkUnit(u *analysis.TreeUnit) {
	for _, f := range u.Files {
		var stack []*Node
		top := func() *Node {
			if len(stack) == 0 {
				return nil
			}
			return stack[len(stack)-1]
		}
		var parents []ast.Node
		ast.Inspect(f, func(an ast.Node) bool {
			if an == nil {
				popped := parents[len(parents)-1]
				parents = parents[:len(parents)-1]
				switch popped.(type) {
				case *ast.FuncDecl, *ast.FuncLit:
					stack = stack[:len(stack)-1]
				}
				return true
			}
			switch n := an.(type) {
			case *ast.FuncDecl:
				key := analysis.FuncKey(u.Path, n)
				nd := b.node(key)
				if n.Body != nil {
					nd.bodyPos, nd.bodyEnd = n.Body.Pos(), n.Body.End()
					b.recordSpan(n.Body.Pos(), n.Body.End(), key)
				}
				if b.isHotpath(n) {
					b.tree.Hotpaths = append(b.tree.Hotpaths, Root{
						Key:    key,
						Origin: "annotated " + hotpathPrefix,
						Pos:    n.Name.Pos(),
					})
				}
				stack = append(stack, nd)
			case *ast.FuncLit:
				encl := top()
				pos := b.fset.Position(n.Pos())
				key := u.Path + "·lit@" + filepath.Base(pos.Filename) + ":" + strconv.Itoa(pos.Line) + ":" + strconv.Itoa(pos.Column)
				if encl != nil {
					key = encl.Key + "·lit@" + filepath.Base(pos.Filename) + ":" + strconv.Itoa(pos.Line) + ":" + strconv.Itoa(pos.Column)
					b.addDirect(encl, EffAllocClosure, n.Pos(), "func literal allocates a closure")
					b.addEdge(encl, key, n.Pos())
				}
				nd := b.node(key)
				nd.bodyPos, nd.bodyEnd = n.Body.Pos(), n.Body.End()
				b.recordSpan(n.Body.Pos(), n.Body.End(), key)
				b.litKeys[n] = key
				stack = append(stack, nd)
			case *ast.CompositeLit:
				if cur := top(); cur != nil {
					if tv := u.Info.TypeOf(n); tv != nil {
						switch tv.Underlying().(type) {
						case *types.Slice:
							b.addDirect(cur, EffAllocHeap, n.Pos(), "slice literal allocates")
						case *types.Map:
							b.addDirect(cur, EffAllocHeap, n.Pos(), "map literal allocates")
						}
					}
				}
			case *ast.UnaryExpr:
				if cur := top(); cur != nil && n.Op == token.AND {
					if _, ok := n.X.(*ast.CompositeLit); ok {
						b.addDirect(cur, EffAllocHeap, n.Pos(), "&composite literal allocates")
					}
				}
			case *ast.CallExpr:
				if cur := top(); cur != nil {
					b.handleCall(cur, n, u)
				}
			}
			parents = append(parents, an)
			return true
		})
	}
}

func (b *builder) recordSpan(pos, end token.Pos, key string) {
	file := b.fset.Position(pos).Filename
	b.spans[file] = append(b.spans[file], spanEntry{pos: pos, end: end, key: key})
}

// isHotpath reports whether the declaration's doc comment carries the
// hotpath annotation.
func (b *builder) isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, hotpathPrefix) {
			return true
		}
	}
	return false
}

// handleCall classifies one call expression: a module edge, a builtin
// allocation, an extern call, or a dynamic call.
func (b *builder) handleCall(cur *Node, call *ast.CallExpr, u *analysis.TreeUnit) {
	if tv, ok := u.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	fun := ast.Unparen(call.Fun)
	// Unwrap explicit generic instantiation: f[T](x).
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if b.isGenericFunc(ix.X, u) {
			fun = ast.Unparen(ix.X)
		} else {
			b.addDirect(cur, EffDynamicCall, call.Pos(), "call through an indexed func value")
			return
		}
	case *ast.IndexListExpr:
		if b.isGenericFunc(ix.X, u) {
			fun = ast.Unparen(ix.X)
		} else {
			b.addDirect(cur, EffDynamicCall, call.Pos(), "call through an indexed func value")
			return
		}
	}
	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := u.Info.Uses[f].(type) {
		case *types.Builtin:
			switch obj.Name() {
			case "append":
				b.handleAppend(cur, call, u)
			case "make":
				b.addDirect(cur, EffAllocHeap, call.Pos(), "make allocates")
			case "new":
				b.addDirect(cur, EffAllocHeap, call.Pos(), "new allocates")
			}
		case *types.Func:
			b.addFuncEdge(cur, obj, call.Pos())
		case *types.Var:
			b.addDirect(cur, EffDynamicCall, call.Pos(), "call through func value "+f.Name)
		}
	case *ast.SelectorExpr:
		switch obj := u.Info.Uses[f.Sel].(type) {
		case *types.Func:
			b.addFuncEdge(cur, obj, call.Pos())
		case *types.Var:
			b.addDirect(cur, EffDynamicCall, call.Pos(), "call through func value "+f.Sel.Name)
		}
	case *ast.FuncLit:
		// Immediately-invoked literal: the creation edge added when the
		// literal was visited already links caller and body.
	default:
		// The callee is itself the result of an expression (f()(), a
		// channel receive, ...): a func value we cannot resolve.
		b.addDirect(cur, EffDynamicCall, call.Pos(), "call through a computed func value")
	}
}

// isGenericFunc reports whether expr names a generic function being
// instantiated (as opposed to a map/slice being indexed).
func (b *builder) isGenericFunc(expr ast.Expr, u *analysis.TreeUnit) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		_, ok := u.Info.Uses[e].(*types.Func)
		return ok
	case *ast.SelectorExpr:
		_, ok := u.Info.Uses[e.Sel].(*types.Func)
		return ok
	}
	return false
}

// addFuncEdge resolves a statically-known callee: an edge for functions in
// the loaded tree, an extern-allocation effect for unknown packages, a
// dynamic-call effect for interface methods.
func (b *builder) addFuncEdge(cur *Node, fn *types.Func, pos token.Pos) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	if recv := sig.Recv(); recv != nil {
		rt := recv.Type()
		if ptr, isPtr := rt.Underlying().(*types.Pointer); isPtr {
			rt = ptr.Elem()
		}
		if _, isIface := rt.Underlying().(*types.Interface); isIface {
			b.addDirect(cur, EffDynamicCall, pos, "interface method call "+fn.Name())
			return
		}
		named, isNamed := rt.(*types.Named)
		if !isNamed {
			b.addDirect(cur, EffDynamicCall, pos, "method call on unresolved receiver "+fn.Name())
			return
		}
		tpkg := named.Obj().Pkg()
		if tpkg == nil {
			b.addDirect(cur, EffDynamicCall, pos, "method call on builtin type "+fn.Name())
			return
		}
		if b.unitPaths[tpkg.Path()] {
			b.addEdge(cur, tpkg.Path()+"."+named.Obj().Name()+"."+fn.Name(), pos)
			return
		}
		b.externCall(cur, tpkg.Path(), named.Obj().Name()+"."+fn.Name(), pos)
		return
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return
	}
	if b.unitPaths[pkg.Path()] {
		b.addEdge(cur, pkg.Path()+"."+fn.Name(), pos)
		return
	}
	b.externCall(cur, pkg.Path(), fn.Name(), pos)
}

func (b *builder) externCall(cur *Node, pkgPath, name string, pos token.Pos) {
	if cleanExtern[pkgPath] {
		return
	}
	b.addDirect(cur, EffAllocExtern, pos, "call to "+pkgPath+"."+name+" (outside the tree, assumed to allocate)")
}

// handleAppend flags appends that grow a function-local slice. Appends to
// parameters, receiver fields and package variables are the sanctioned
// caller-owned-scratch / freelist idiom: growth is amortized across calls,
// which is exactly what the AllocsPerRun tests accept.
func (b *builder) handleAppend(cur *Node, call *ast.CallExpr, u *analysis.TreeUnit) {
	if len(call.Args) == 0 {
		return
	}
	root := rootIdent(call.Args[0])
	if root == nil {
		b.addDirect(cur, EffAllocAppend, call.Pos(), "append to a non-variable slice allocates")
		return
	}
	obj := u.Info.ObjectOf(root)
	if obj == nil {
		return
	}
	if cur.bodyPos.IsValid() && obj.Pos() >= cur.bodyPos && obj.Pos() < cur.bodyEnd {
		b.addDirect(cur, EffAllocAppend, call.Pos(), "append grows the function-local slice "+root.Name)
	}
}

// rootIdent unwraps x.f, x[i], *x, (x) down to the base identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// captureEffects runs the per-function purity analyzers over every unit
// with allow-suppression disabled and maps each diagnostic onto the
// innermost function containing it. Package-scope diagnostics (var
// initializers) stay with the per-package analyzers.
func (b *builder) captureEffects(units []*analysis.TreeUnit) {
	for _, file := range b.spans {
		sort.Slice(file, func(i, j int) bool { return file[i].pos < file[j].pos })
	}
	for _, u := range units {
		for _, cap := range purityCaptures {
			var diags []analysis.Diagnostic
			pass := analysis.NewPass(cap.analyzer, u.Files, u.Path, u.Info, func(d analysis.Diagnostic) {
				diags = append(diags, d)
			})
			if err := cap.analyzer.Run(pass); err != nil {
				continue
			}
			for _, d := range diags {
				if key := b.enclosingKey(d.Pos); key != "" {
					b.addDirect(b.tree.Nodes[key], cap.bit, d.Pos, trimDetail(d.Message))
				}
			}
		}
	}
}

// enclosingKey returns the key of the innermost function whose body span
// contains pos, or "" at package scope.
func (b *builder) enclosingKey(pos token.Pos) string {
	file := b.fset.Position(pos).Filename
	best := ""
	bestSize := token.Pos(0)
	for _, s := range b.spans[file] {
		if s.pos <= pos && pos < s.end {
			if size := s.end - s.pos; best == "" || size < bestSize {
				best, bestSize = s.key, size
			}
		}
	}
	return best
}

// trimDetail shortens an analyzer message to its first clause.
func trimDetail(msg string) string {
	if i := strings.IndexByte(msg, ';'); i > 0 {
		return msg[:i]
	}
	return msg
}

// collectCarriers records every object assigned a Kernel obtained from
// ShardedKernel.Shard: local variables, struct fields (keyed composite
// literals), and package variables. Scheduling through a carrier is
// scheduling on a shard.
func (b *builder) collectCarriers(u *analysis.TreeUnit) {
	for _, f := range u.Files {
		ast.Inspect(f, func(an ast.Node) bool {
			switch n := an.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, rhs := range n.Rhs {
					if !isShardCall(rhs, u.Info) {
						continue
					}
					switch lhs := ast.Unparen(n.Lhs[i]).(type) {
					case *ast.Ident:
						if obj := u.Info.ObjectOf(lhs); obj != nil {
							b.carriers[obj] = true
						}
					case *ast.SelectorExpr:
						if sel, ok := u.Info.Selections[lhs]; ok {
							b.carriers[sel.Obj()] = true
						}
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if isShardCall(v, u.Info) && i < len(n.Names) {
						if obj := u.Info.Defs[n.Names[i]]; obj != nil {
							b.carriers[obj] = true
						}
					}
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok || !isShardCall(kv.Value, u.Info) {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok {
						if obj := u.Info.Uses[key]; obj != nil {
							b.carriers[obj] = true
						}
					}
				}
			}
			return true
		})
	}
}

// isShardCall reports whether e is a call of the Shard method on a value
// whose type is named ShardedKernel. Matching is by type name, like
// epochstamp: fixtures define stand-in kernels, and there is exactly one
// real ShardedKernel in the tree.
func isShardCall(e ast.Expr, info *types.Info) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Shard" {
		return false
	}
	return typeNamed(info.TypeOf(sel.X), "ShardedKernel")
}

// typeNamed reports whether t (or what it points to) is a named type with
// the given name.
func typeNamed(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
}

// schedulers are the Kernel methods that register a callback for later
// dispatch.
var schedulers = map[string]bool{
	"At":    true,
	"AtArg": true,
	"After": true,
	"Every": true,
}

// collectShardRoots finds every function registered as a sharded-kernel
// callback: func-typed arguments to ShardedKernel.Inject, and func-typed
// arguments to scheduling calls on a Kernel that is a shard carrier (or a
// direct .Shard(i) chain).
func (b *builder) collectShardRoots(u *analysis.TreeUnit) {
	for _, f := range u.Files {
		ast.Inspect(f, func(an ast.Node) bool {
			call, ok := an.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			var origin string
			switch {
			case sel.Sel.Name == "Inject" && typeNamed(u.Info.TypeOf(sel.X), "ShardedKernel"):
				origin = "cross-shard callback"
			case schedulers[sel.Sel.Name] && typeNamed(u.Info.TypeOf(sel.X), "Kernel") && b.shardLocalReceiver(sel.X, u.Info):
				origin = "shard-local " + sel.Sel.Name + " callback"
			default:
				return true
			}
			for _, arg := range call.Args {
				t := u.Info.TypeOf(arg)
				if t == nil {
					continue
				}
				if _, isFunc := t.Underlying().(*types.Signature); !isFunc {
					continue
				}
				b.rootFromExpr(arg, origin, u)
			}
			return true
		})
	}
}

// shardLocalReceiver reports whether the receiver expression of a
// scheduling call denotes a shard kernel: a carrier object or a direct
// ShardedKernel.Shard(i) chain.
func (b *builder) shardLocalReceiver(x ast.Expr, info *types.Info) bool {
	x = ast.Unparen(x)
	if isShardCall(x, info) {
		return true
	}
	switch e := x.(type) {
	case *ast.Ident:
		return b.carriers[info.ObjectOf(e)]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			return b.carriers[sel.Obj()]
		}
		return b.carriers[info.Uses[e.Sel]]
	}
	return false
}

// rootFromExpr resolves a callback argument to a graph node, or records it
// as unresolvable.
func (b *builder) rootFromExpr(arg ast.Expr, origin string, u *analysis.TreeUnit) {
	pos := b.fset.Position(arg.Pos())
	at := filepath.Base(pos.Filename) + ":" + strconv.Itoa(pos.Line)
	switch e := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		if key, ok := b.litKeys[e]; ok {
			b.addShardRoot(Root{Key: key, Origin: origin + " registered at " + at, Pos: arg.Pos()})
			return
		}
	case *ast.Ident:
		if fn, ok := u.Info.Uses[e].(*types.Func); ok {
			if key, ok := b.keyFor(fn); ok {
				b.addShardRoot(Root{Key: key, Origin: origin + " registered at " + at, Pos: arg.Pos()})
				return
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := u.Info.Uses[e.Sel].(*types.Func); ok {
			if key, ok := b.keyFor(fn); ok {
				b.addShardRoot(Root{Key: key, Origin: origin + " registered at " + at, Pos: arg.Pos()})
				return
			}
		}
	}
	b.tree.UnresolvedShard = append(b.tree.UnresolvedShard, Site{
		Pos:    arg.Pos(),
		Detail: origin + " registered at " + at,
	})
}

// keyFor names a resolved function if it lives in the loaded tree.
func (b *builder) keyFor(fn *types.Func) (string, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if recv := sig.Recv(); recv != nil {
		rt := recv.Type()
		if ptr, isPtr := rt.Underlying().(*types.Pointer); isPtr {
			rt = ptr.Elem()
		}
		named, isNamed := rt.(*types.Named)
		if !isNamed || named.Obj().Pkg() == nil || !b.unitPaths[named.Obj().Pkg().Path()] {
			return "", false
		}
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name(), true
	}
	if fn.Pkg() == nil || !b.unitPaths[fn.Pkg().Path()] {
		return "", false
	}
	return fn.Pkg().Path() + "." + fn.Name(), true
}

func (b *builder) addShardRoot(r Root) {
	for _, have := range b.tree.ShardRoots {
		if have.Key == r.Key {
			return
		}
	}
	b.tree.ShardRoots = append(b.tree.ShardRoots, r)
}

// finish freezes iteration orders and runs the bottom-up summary fixpoint.
func (b *builder) finish() {
	t := b.tree
	t.Keys = make([]string, 0, len(t.Nodes))
	for k := range t.Nodes {
		t.Keys = append(t.Keys, k)
	}
	sort.Strings(t.Keys)
	for _, k := range t.Keys {
		n := t.Nodes[k]
		n.callees = make([]string, 0, len(n.calls))
		for c := range n.calls {
			n.callees = append(n.callees, c)
		}
		sort.Strings(n.callees)
		n.Summary = n.Direct
	}
	for changed := true; changed; {
		changed = false
		for _, k := range t.Keys {
			n := t.Nodes[k]
			s := n.Summary
			for _, c := range n.callees {
				if cn := t.Nodes[c]; cn != nil {
					s |= cn.Summary
				}
			}
			if s != n.Summary {
				n.Summary = s
				changed = true
			}
		}
	}
	sort.Slice(t.ShardRoots, func(i, j int) bool { return t.ShardRoots[i].Key < t.ShardRoots[j].Key })
	sort.Slice(t.Hotpaths, func(i, j int) bool { return t.Hotpaths[i].Key < t.Hotpaths[j].Key })
}

// Trace returns the call path (root first) from key to the nearest
// function whose own body exhibits bit, and that function's effect site.
// The walk follows sorted callee order, so the reported witness is
// deterministic.
func (t *Tree) Trace(key string, bit Effect) ([]string, Site, bool) {
	visited := make(map[string]bool)
	return t.trace(key, bit, visited, nil)
}

func (t *Tree) trace(cur string, bit Effect, visited map[string]bool, path []string) ([]string, Site, bool) {
	n := t.Nodes[cur]
	if n == nil || visited[cur] {
		return nil, Site{}, false
	}
	visited[cur] = true
	path = append(path, cur)
	if n.Direct&bit != 0 {
		out := make([]string, len(path))
		copy(out, path)
		return out, n.sites[bit], true
	}
	for _, c := range n.callees {
		cn := t.Nodes[c]
		if cn == nil || cn.Summary&bit == 0 {
			continue
		}
		if p, s, ok := t.trace(c, bit, visited, path); ok {
			return p, s, ok
		}
	}
	return nil, Site{}, false
}

// ShortKey trims the module prefix off a node key for rendering in
// diagnostics.
func ShortKey(key string) string {
	key = strings.TrimPrefix(key, "vcloud/internal/")
	return strings.TrimPrefix(key, "vcloud/")
}

// RenderChain renders a Trace path as "a.F -> b.G -> c.H".
func RenderChain(path []string) string {
	short := make([]string, len(path))
	for i, k := range path {
		short[i] = ShortKey(k)
	}
	return strings.Join(short, " -> ")
}
