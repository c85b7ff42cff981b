package interproc_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"vcloud/internal/analysis"
	"vcloud/internal/analysis/interproc"
	"vcloud/internal/analysis/loader"
)

// buildTree type-checks the given sources (path -> file body) in order and
// runs interproc.Build over them. Later packages may import earlier ones by
// path.
func buildTree(t *testing.T, order []string, srcs map[string]string) *interproc.Tree {
	t.Helper()
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
	for _, path := range order {
		f, err := parser.ParseFile(fset, path+".go", srcs[path], parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		info := loader.NewInfo()
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(path, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatalf("check %s: %v", path, err)
		}
		checked[path] = tp
		units = append(units, &analysis.TreeUnit{Path: path, Files: []*ast.File{f}, Info: info})
	}
	return interproc.Build(fset, units)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func TestSummaryPropagationAcrossPackages(t *testing.T) {
	tree := buildTree(t, []string{"pa", "pb"}, map[string]string{
		"pa": `package pa

import "time"

func Leaf() time.Time { return time.Now() }

func Mid() { Leaf() }

type T struct{}

func (t *T) Method() { Mid() }
`,
		"pb": `package pb

import "pa"

func Top() {
	var t pa.T
	t.Method()
}
`,
	})

	leaf := tree.Nodes["pa.Leaf"]
	if leaf == nil || leaf.Direct&interproc.EffWallClock == 0 {
		t.Fatalf("pa.Leaf: want direct wall-clock effect, got %v", leaf)
	}
	top := tree.Nodes["pb.Top"]
	if top == nil {
		t.Fatalf("pb.Top missing; keys: %v", tree.Keys)
	}
	if top.Direct&interproc.EffWallClock != 0 {
		t.Errorf("pb.Top: wall clock must not be a direct effect")
	}
	if top.Summary&interproc.EffWallClock == 0 {
		t.Errorf("pb.Top: summary lost the transitive wall-clock effect (summary=%v)", top.Summary)
	}

	path, site, ok := tree.Trace("pb.Top", interproc.EffWallClock)
	if !ok {
		t.Fatalf("Trace(pb.Top, wallclock): no witness")
	}
	want := []string{"pb.Top", "pa.T.Method", "pa.Mid", "pa.Leaf"}
	if len(path) != len(want) {
		t.Fatalf("Trace path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("Trace path = %v, want %v", path, want)
		}
	}
	if !strings.Contains(site.Detail, "wall clock") {
		t.Errorf("witness detail %q does not mention the wall clock", site.Detail)
	}
	if got := interproc.RenderChain(path); got != "pb.Top -> pa.T.Method -> pa.Mid -> pa.Leaf" {
		t.Errorf("RenderChain = %q", got)
	}
}

func TestAllocClassification(t *testing.T) {
	tree := buildTree(t, []string{"al"}, map[string]string{
		"al": `package al

import (
	"fmt"
	"math"
)

type box struct{ buf []int }

func MakesSlice() []int {
	s := []int{1, 2}
	s = append(s, 3)
	return s
}

func AppendsParam(dst []int) []int { return append(dst, 1) }

func (b *box) AppendsField(v int) { b.buf = append(b.buf, v) }

func News() *box { return new(box) }

func Addr() *box { return &box{} }

func Extern() { fmt.Println("x") }

func Mathy() float64 { return math.Sqrt(2) }

func Closes() func() { return func() {} }

func Dyn(f func()) { f() }
`,
	})

	check := func(key string, wantBits, banBits interproc.Effect) {
		t.Helper()
		n := tree.Nodes[key]
		if n == nil {
			t.Fatalf("%s missing; keys: %v", key, tree.Keys)
		}
		if n.Direct&wantBits != wantBits {
			t.Errorf("%s: direct=%v, want bits %v", key, n.Direct, wantBits)
		}
		if n.Direct&banBits != 0 {
			t.Errorf("%s: direct=%v carries banned bits %v", key, n.Direct, n.Direct&banBits)
		}
	}
	check("al.MakesSlice", interproc.EffAllocHeap|interproc.EffAllocAppend, 0)
	check("al.AppendsParam", 0, interproc.AllocEffects)
	check("al.box.AppendsField", 0, interproc.AllocEffects)
	check("al.News", interproc.EffAllocHeap, 0)
	check("al.Addr", interproc.EffAllocHeap, 0)
	check("al.Extern", interproc.EffAllocExtern, 0)
	check("al.Mathy", 0, interproc.AllocEffects|interproc.EffDynamicCall)
	check("al.Closes", interproc.EffAllocClosure, 0)
	check("al.Dyn", interproc.EffDynamicCall, 0)
}

const kernelStub = `package sk

type Time int64

type Kernel struct{}

func (k *Kernel) At(t Time, fn func())                {}
func (k *Kernel) AtArg(t Time, fn func(any), arg any) {}

type ShardedKernel struct{}

func (s *ShardedKernel) Shard(i int) *Kernel                          { return &Kernel{} }
func (s *ShardedKernel) Inject(src, dst int, at Time, fn func(any), arg any) {}
`

func TestShardRootDetection(t *testing.T) {
	tree := buildTree(t, []string{"sk", "roots"}, map[string]string{
		"sk": kernelStub,
		"roots": `package roots

import "sk"

type wrap struct{ k *sk.Kernel }

func Tick() {}

func Apply(a any) {}

func Register(skn *sk.ShardedKernel) {
	k := skn.Shard(0)
	k.At(0, Tick)
	w := wrap{k: skn.Shard(1)}
	w.k.AtArg(0, Apply, nil)
	skn.Shard(2).At(0, func() {})
	skn.Inject(0, 1, 0, Apply, nil)
	var fv func()
	k.At(0, fv)
}
`,
	})

	var keys []string
	for _, r := range tree.ShardRoots {
		keys = append(keys, r.Key)
	}
	wantNamed := map[string]bool{"roots.Tick": false, "roots.Apply": false}
	sawLit := false
	for _, k := range keys {
		if _, ok := wantNamed[k]; ok {
			wantNamed[k] = true
		}
		if strings.Contains(k, "·lit@") {
			sawLit = true
		}
	}
	for k, seen := range wantNamed {
		if !seen {
			t.Errorf("shard roots missing %s; got %v", k, keys)
		}
	}
	if !sawLit {
		t.Errorf("shard roots missing the func-literal callback; got %v", keys)
	}
	if len(tree.UnresolvedShard) != 1 {
		t.Errorf("UnresolvedShard = %d sites, want 1 (the func-valued variable)", len(tree.UnresolvedShard))
	}
}

func TestHotpathAnnotationDetection(t *testing.T) {
	tree := buildTree(t, []string{"hp"}, map[string]string{
		"hp": `package hp

// Fast does fast things.
//
//vcloudlint:hotpath called per event
func Fast() {}

// Slow is not annotated.
func Slow() {}
`,
	})
	var keys []string
	for _, r := range tree.Hotpaths {
		keys = append(keys, r.Key)
	}
	if len(keys) != 1 || keys[0] != "hp.Fast" {
		t.Fatalf("Hotpaths = %v, want [hp.Fast]", keys)
	}
}

func TestEffectStringAndShortKey(t *testing.T) {
	if got := interproc.EffWallClock.String(); got != "wall-clock read" {
		t.Errorf("EffWallClock.String() = %q", got)
	}
	mask := interproc.EffWallClock | interproc.EffGoroutine
	if got := mask.String(); got != "wall-clock read|goroutine/sync use" {
		t.Errorf("mask.String() = %q", got)
	}
	if got := interproc.ShortKey("vcloud/internal/sim.Kernel.At"); got != "sim.Kernel.At" {
		t.Errorf("ShortKey = %q", got)
	}
}
