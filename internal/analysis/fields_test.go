package analysis_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vcloud/internal/analysis/loader"
)

// Reason kinds of the field census: why a field that no production code
// reads is kept anyway.
const (
	oracle = "test oracle"                     // only a test reads it
	fence  = "fencing stamp"                   // an epoch stamp no controller checks yet (ROADMAP 1c/17)
	frozen = "spelled by the frozen benchmark" // benchmark/ writes it and may not change
	result = "result reported to callers"      // an exported result a caller may read
	whole  = "compared whole"                  // a map key or an embedded value
)

// unreadFields lists every field the census finds unread, with the reason
// it stays. A row whose field gains a reader or goes away fails the test,
// as a stale census.txt line fails `scripts/census.sh -check`.
var unreadFields = map[string]string{
	"internal/access.Decision.AttrsChecked":   oracle,
	"internal/analysis/hotalloc.siteKey.bit":  whole,
	"internal/analysis/hotalloc.siteKey.pos":  whole,
	"internal/analysis/shardpure.siteKey.bit": whole,
	"internal/analysis/shardpure.siteKey.pos": whole,
	"internal/attack.ByzantineWorker.Honest":  oracle,
	"internal/attack.ByzantineWorker.Wrong":   oracle,
	"internal/attack.Flooder.Sent":            oracle,
	"internal/attack.Suppressor.Delayed":      oracle,
	"internal/attack.Suppressor.Dropped":      oracle,
	"internal/auth.Result.Latency":            result,
	"internal/auth.Result.Peer":               result,
	"internal/auth.Result.Reason":             result,
	"internal/chaos.versionKey.key":           whole,
	"internal/chaos.versionKey.version":       whole,
	"internal/cluster.Tracker.becameHead":     oracle,
	"internal/cluster.Tracker.roleChanges":    oracle,
	"internal/cryptoprim.GroupCred.MemberID":  oracle,
	"internal/cryptoprim.PseudonymPool.used":  oracle,
	"internal/experiments.Result.ID":          result,
	"internal/experiments.Result.Values":      result,
	"internal/metrics.Histogram.sum":          oracle,
	"internal/mobility.State.Edge":            result,
	"internal/mobility.State.ID":              result,
	"internal/mobility.State.Offset":          result,
	"internal/mobility.State.Parked":          result,
	"internal/pki.Enrollment.Identity":        oracle,
	"internal/pki.Enrollment.longTerm":        oracle,
	"internal/radio.UplinkParams.Contended":   frozen,
	"internal/vcloud.EdgeConfig.Storage":      frozen,
	"internal/vcloud.EdgeServer.Member":       whole,
	"internal/vcloud.JobResult.WastedOps":     result,
	"internal/vcloud.handoverMsg.Epoch":       fence,
	"internal/vcloud.resultMsg.Epoch":         fence,
	"internal/vnet.Neighbor.LastSeen":         result,
	"internal/vnet.dedupKey.origin":           whole,
	"internal/vnet.dedupKey.seq":              whole,
}

// TestEveryFieldIsRead is the field census: every struct field declared
// in production code outside benchmark/ must have a production reader.
// A use counts as a read only when the field's value reaches something
// other than an assignment target, a composite-literal key, `++`/`--`,
// internal/vcloud/ckptcodec.go, or a copy into another field that is
// itself unread (iterated to a fixed point). Staticcheck's U1000 cannot
// say this: it counts a field that is only ever written as used.
func TestEveryFieldIsRead(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; covered by the non-short run")
	}
	fset := token.NewFileSet()
	pkgs, err := loader.Load(fset, ".", "vcloud/...")
	if err != nil {
		t.Fatal(err)
	}
	unread, stale := fieldCensus(fset, pkgs, unreadFields)
	for _, name := range unread {
		t.Errorf("%s is written but never read: delete it, or add a row naming its reason kind", name)
	}
	for _, name := range stale {
		t.Errorf("row %s: the field is read or gone; delete the row", name)
	}
	for name, kind := range unreadFields {
		switch kind {
		case oracle, fence, frozen, result, whole:
		default:
			t.Errorf("row %s: %q is not a reason kind", name, kind)
		}
	}
}

// fieldUse is one non-write use of a field. A nil sink is a read; a
// non-nil sink is the field the value is copied into, which makes the use
// a read only if the sink is read.
type fieldUse struct {
	field, sink *types.Var
}

// fieldCensus returns the sorted names of the audited fields nothing
// reads and no row of kept names, and the rows of kept whose field is
// read or gone. A kept field counts as read, and so does a field whose
// value is copied into it.
func fieldCensus(fset *token.FileSet, pkgs []*loader.Package, kept map[string]string) (unread, stale []string) {
	names := make(map[*types.Var]string)
	var uses []fieldUse
	for _, p := range pkgs {
		rel := strings.TrimPrefix(p.Path, "vcloud/")
		if rel != "benchmark" {
			nameFields(p, rel, names)
		}
		for _, f := range p.Files {
			uses = collectUses(fset, p.Info, f, uses)
		}
	}
	closure := func(seed func(*types.Var) bool) map[*types.Var]bool {
		read := make(map[*types.Var]bool)
		for v := range names {
			read[v] = seed(v)
		}
		for changed := true; changed; {
			changed = false
			for _, u := range uses {
				if !read[u.field] && (u.sink == nil || read[u.sink]) {
					read[u.field] = true
					changed = true
				}
			}
		}
		return read
	}
	bare := closure(func(*types.Var) bool { return false })
	read := closure(func(v *types.Var) bool { _, ok := kept[names[v]]; return ok })
	found := make(map[string]bool)
	for v, name := range names {
		found[name] = !bare[v]
		if !read[v] {
			unread = append(unread, name)
		}
	}
	for name := range kept {
		if !found[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(unread)
	sort.Strings(stale)
	return unread, stale
}

// nameFields names every field of the package's struct types as
// "path.Type.field" (nested anonymous structs add ".field" steps).
// Fields encoding/json reads by reflection are not audited.
func nameFields(p *loader.Package, rel string, names map[*types.Var]string) {
	var walk func(prefix string, st *types.Struct)
	walk = func(prefix string, st *types.Struct) {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" || reflect.StructTag(st.Tag(i)).Get("json") != "" {
				continue
			}
			names[f] = prefix + "." + f.Name()
			if inner, ok := f.Type().(*types.Struct); ok {
				walk(names[f], inner)
			}
		}
	}
	for id, obj := range p.Info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			walk(rel+"."+id.Name, st)
		}
	}
}

// collectUses appends the non-write uses of fields in one file. The
// checkpoint codec walks every field it encodes, so in ckptcodec.go only
// the codec's own fields are read.
func collectUses(fset *token.FileSet, info *types.Info, f *ast.File, uses []fieldUse) []fieldUse {
	codec := isCodec(fset, f.Pos())
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil {
				// Fields passed through on the way to a promoted field or
				// method are read: their value is reached.
				for _, v := range embeddedPath(s) {
					if !codec || isCodec(fset, v.Pos()) {
						uses = append(uses, fieldUse{field: v})
					}
				}
				v, ok := s.Obj().(*types.Var)
				if ok && (!codec || isCodec(fset, v.Pos())) && !isWrite(info, stack, sel) {
					uses = append(uses, fieldUse{field: v.Origin(), sink: sinkOf(info, stack, sel)})
				}
			}
		}
		stack = append(stack, n)
		return true
	})
	return uses
}

func isCodec(fset *token.FileSet, pos token.Pos) bool {
	return filepath.Base(fset.Position(pos).Filename) == "ckptcodec.go"
}

// embeddedPath returns the embedded fields a selection passes through
// implicitly, outermost first.
func embeddedPath(s *types.Selection) []*types.Var {
	idx := s.Index()
	var out []*types.Var
	t := s.Recv()
	for _, i := range idx[:len(idx)-1] {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			break
		}
		v := st.Field(i)
		out = append(out, v.Origin())
		t = v.Type()
	}
	return out
}

// parentOf returns the nearest non-paren ancestor of the expression whose
// ancestors are stack, and the child of that ancestor on the path to it.
func parentOf(stack []ast.Node, e ast.Expr) (ast.Node, ast.Expr, []ast.Node) {
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if pe, ok := p.(*ast.ParenExpr); ok {
			e = pe
			continue
		}
		return p, e, stack
	}
	return nil, e, nil
}

// isWrite reports whether e (with ancestors stack) is only stored to:
// an assignment target, `++`/`--`, the map of delete/clear, or a struct
// value, map or slice whose element or field is itself stored to.
func isWrite(info *types.Info, stack []ast.Node, e ast.Expr) bool {
	p, e, rest := parentOf(stack, e)
	switch p := p.(type) {
	case *ast.AssignStmt:
		for _, l := range p.Lhs {
			if l == e {
				return true
			}
		}
	case *ast.IncDecStmt:
		return true
	case *ast.SelectorExpr:
		if _, ptr := info.TypeOf(e).Underlying().(*types.Pointer); !ptr && p.X == e {
			return isWrite(info, rest, p)
		}
	case *ast.IndexExpr:
		if p.X == e {
			return isWrite(info, rest, p)
		}
	case *ast.CallExpr:
		if b, ok := info.Uses[calleeIdent(p)].(*types.Builtin); ok && len(p.Args) > 0 && p.Args[0] == e {
			return b.Name() == "delete" || b.Name() == "clear"
		}
	}
	return false
}

func calleeIdent(c *ast.CallExpr) *ast.Ident {
	id, _ := ast.Unparen(c.Fun).(*ast.Ident)
	return id
}

// sinkOf returns the field a read value of e is copied into — the target
// of an assignment, the key of a struct literal, through append and
// reslicing — or nil when the value goes anywhere else.
func sinkOf(info *types.Info, stack []ast.Node, e ast.Expr) *types.Var {
	p, e, rest := parentOf(stack, e)
	switch p := p.(type) {
	case *ast.SliceExpr:
		if p.X == e {
			return sinkOf(info, rest, p)
		}
	case *ast.CallExpr:
		if b, ok := info.Uses[calleeIdent(p)].(*types.Builtin); ok && b.Name() == "append" {
			return sinkOf(info, rest, p)
		}
	case *ast.AssignStmt:
		if len(p.Lhs) == len(p.Rhs) {
			for i, r := range p.Rhs {
				if r == e {
					return targetField(info, p.Lhs[i])
				}
			}
		}
	case *ast.KeyValueExpr:
		if p.Value == e {
			if id, ok := p.Key.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
					return v.Origin()
				}
			}
		}
	}
	return nil
}

// targetField returns the field an assignment target stores into:
// x.f, or an element x.f[k] of a map or slice field.
func targetField(info *types.Info, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if s := info.Selections[e]; s != nil {
			if v, ok := s.Obj().(*types.Var); ok {
				return v.Origin()
			}
		}
	case *ast.IndexExpr:
		return targetField(info, e.X)
	}
	return nil
}
