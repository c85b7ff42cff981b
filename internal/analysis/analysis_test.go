package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

func passOver(fset *token.FileSet, f *ast.File) *Pass {
	a := &Analyzer{Name: "test"}
	return NewPass(a, []*ast.File{f}, "p", nil, func(Diagnostic) {})
}

// TestInspectWithStack checks that the callback sees each node with the
// full ancestor chain, outermost first, not including the node itself.
func TestInspectWithStack(t *testing.T) {
	fset, f := parseOne(t, `package p

func outer() {
	inner := func() {
		_ = 1
	}
	_ = inner
}
`)
	pass := passOver(fset, f)
	var sawLitBody bool
	pass.InspectWithStack(func(n ast.Node, stack []ast.Node) bool {
		// At any node, stack[0] must be the file and every entry an
		// ancestor of the next.
		if len(stack) > 0 {
			if _, ok := stack[0].(*ast.File); !ok {
				t.Fatalf("stack[0] = %T, want *ast.File", stack[0])
			}
		}
		if bl, ok := n.(*ast.BasicLit); ok && bl.Value == "1" {
			sawLitBody = true
			// The chain must include, in order somewhere: the file, the
			// outer FuncDecl, and the FuncLit.
			var declAt, litAt = -1, -1
			for i, s := range stack {
				switch s.(type) {
				case *ast.FuncDecl:
					declAt = i
				case *ast.FuncLit:
					litAt = i
				}
			}
			if declAt < 0 || litAt < 0 || declAt > litAt {
				t.Errorf("stack missing FuncDecl-before-FuncLit ordering: %v", stack)
			}
			if fd := EnclosingFunc(stack); fd == nil || fd.Name.Name != "outer" {
				t.Errorf("EnclosingFunc = %v, want outer (literals are skipped)", fd)
			}
		}
		return true
	})
	if !sawLitBody {
		t.Fatal("walk never reached the literal inside the closure")
	}
}

// TestInspectWithStackPruning checks that returning false skips the
// subtree below n and keeps the stack balanced for the rest of the walk.
func TestInspectWithStackPruning(t *testing.T) {
	fset, f := parseOne(t, `package p

func skipped() {
	_ = "inside-skipped"
}

func visited() {
	_ = "inside-visited"
}
`)
	pass := passOver(fset, f)
	var visitedLits []string
	maxDepth := 0
	pass.InspectWithStack(func(n ast.Node, stack []ast.Node) bool {
		if len(stack) > maxDepth {
			maxDepth = len(stack)
		}
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Name.Name == "skipped" {
				return false
			}
		case *ast.BasicLit:
			visitedLits = append(visitedLits, n.Value)
		}
		return true
	})
	if len(visitedLits) != 1 || visitedLits[0] != `"inside-visited"` {
		t.Errorf("visited literals = %v, want only the one outside the pruned subtree", visitedLits)
	}
	if maxDepth == 0 {
		t.Error("stack never grew; pruning broke the push/pop balance")
	}
}

// TestFuncKeyGenericReceiver pins the generic-receiver form: T[P] methods
// key as pkg.T.Method, same as non-generic ones.
func TestFuncKeyGenericReceiver(t *testing.T) {
	_, f := parseOne(t, `package p

type Box[T any] struct{ v T }

func (b *Box[T]) Get() T { return b.v }

func (b Box[T]) Peek() T { return b.v }
`)
	want := map[string]string{
		"Get":  "pkg.Box.Get",
		"Peek": "pkg.Box.Peek",
	}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if got := FuncKey("pkg", fd); got != want[fd.Name.Name] {
			t.Errorf("FuncKey(%s) = %q, want %q", fd.Name.Name, got, want[fd.Name.Name])
		}
	}
}
