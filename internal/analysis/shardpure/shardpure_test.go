package shardpure_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"vcloud/internal/analysis"
	"vcloud/internal/analysis/analysistest"
	"vcloud/internal/analysis/loader"
	"vcloud/internal/analysis/shardpure"
)

func TestViolations(t *testing.T) {
	analysistest.RunTree(t, shardpure.Analyzer, "testdata", "shardstub", "a")
}

func TestClean(t *testing.T) {
	analysistest.RunTree(t, shardpure.Analyzer, "testdata", "shardstub", "ok")
}

func TestAllowDirective(t *testing.T) {
	analysistest.RunTree(t, shardpure.Analyzer, "testdata", "shardstub", "allowdir")
}

func TestFalsePositives(t *testing.T) {
	analysistest.RunTree(t, shardpure.Analyzer, "testdata", "shardstub", "fp")
}

const stubSrc = `package sk

type Time int64

type Kernel struct{}

func (k *Kernel) At(t Time, fn func()) {}

type ShardedKernel struct{}

func (s *ShardedKernel) Shard(i int) *Kernel { return &Kernel{} }
`

const cleanSrc = `package m

import "sk"

func Setup(skn *sk.ShardedKernel) {
	k := skn.Shard(0)
	k.At(0, tick)
}

func tick() { hop1(1) }

func hop1(n int) { hop2(n) }

func hop2(n int) { _ = n * 2 }
`

const mutatedSrc = `package m

import (
	"time"

	"sk"
)

func Setup(skn *sk.ShardedKernel) {
	k := skn.Shard(0)
	k.At(0, tick)
}

func tick() { hop1(1) }

func hop1(n int) { hop2(n) }

func hop2(n int) { _ = time.Now() }
`

// runInMemory type-checks the stub kernel plus one variant of package m
// and runs the analyzer over the two-unit tree.
func runInMemory(t *testing.T, mSrc string) []analysis.Diagnostic {
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
	for _, src := range []struct{ path, body string }{{"sk", stubSrc}, {"m", mSrc}} {
		f, err := parser.ParseFile(fset, src.path+".go", src.body, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", src.path, err)
		}
		info := loader.NewInfo()
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(src.path, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatalf("check %s: %v", src.path, err)
		}
		checked[src.path] = tp
		units = append(units, &analysis.TreeUnit{Path: src.path, Files: []*ast.File{f}, Info: info})
	}
	var diags []analysis.Diagnostic
	pass := analysis.NewTreePass(shardpure.Analyzer, fset, units, func(d analysis.Diagnostic) {
		diags = append(diags, d)
	})
	if err := shardpure.Analyzer.RunTree(pass); err != nil {
		t.Fatalf("analyzer: %v", err)
	}
	return diags
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestMutationCatchesSeededWallClock is the analyzer's own mutation test:
// the clean chain callback -> hop1 -> hop2 passes, and seeding a time.Now
// into hop2 — two call hops below the shard callback — must produce
// exactly one finding that names the full chain. If this test fails, the
// interprocedural closure has a hole.
func TestMutationCatchesSeededWallClock(t *testing.T) {
	if diags := runInMemory(t, cleanSrc); len(diags) != 0 {
		t.Fatalf("clean variant: got %d findings, want 0: %v", len(diags), diags)
	}
	diags := runInMemory(t, mutatedSrc)
	if len(diags) != 1 {
		t.Fatalf("mutated variant: got %d findings, want 1: %v", len(diags), diags)
	}
	msg := diags[0].Message
	if !strings.Contains(msg, "wall-clock read") {
		t.Errorf("finding does not name the effect: %q", msg)
	}
	if !strings.Contains(msg, "m.tick -> m.hop1 -> m.hop2") {
		t.Errorf("finding does not carry the call chain: %q", msg)
	}
}
