package analysis

// Unit tests for the intraprocedural alias pass: Sources chases
// reassignments, field and index loads, and range heads to their
// terminal expressions (self-assignment cycles terminate), and Root
// canonicalizes pure ident-copy chains back to the original object.

import (
	"go/ast"
	"go/types"
	"testing"
)

// aliasFixture loads the aliaspass corpus and returns the alias map of
// the named function plus a resolver for its local variables.
func aliasFixture(t *testing.T, fn string) (*aliasMap, func(string) types.Object) {
	t.Helper()
	u := loadCorpus(t, "aliaspass", "github.com/tanklab/infless/internal/gateway/aliaspass")
	pkg := u.Pkgs[0]
	var decl *ast.FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn {
				decl = fd
			}
		}
	}
	if decl == nil {
		t.Fatalf("function %s not found in aliaspass corpus", fn)
	}
	am := buildAliasMap(pkg.Info, decl.Body)
	lookup := func(name string) types.Object {
		var obj types.Object
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name && obj == nil {
				if def := pkg.Info.Defs[id]; def != nil {
					obj = def
				}
			}
			return true
		})
		// Parameters are defined in the signature, not the body.
		if obj == nil {
			ast.Inspect(decl.Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == name && obj == nil {
					if def := pkg.Info.Defs[id]; def != nil {
						obj = def
					}
				}
				return true
			})
		}
		if obj == nil {
			t.Fatalf("variable %s not found in %s", name, fn)
		}
		return obj
	}
	return am, lookup
}

func TestAliasSources(t *testing.T) {
	cases := []struct {
		fn, local string
		want      int  // number of terminal sources
		elem      bool // every source is an element load
		unknown   bool // every source is opaque (param / package var)
		zero      bool // every source is a zero-value declaration
	}{
		{fn: "reassign", local: "x", want: 2, unknown: true},
		{fn: "chainCopy", local: "z", want: 1, unknown: true},
		{fn: "fieldLoad", local: "ev", want: 1},
		{fn: "indexLoad", local: "v", want: 1, elem: true, unknown: true},
		{fn: "rangeHeads", local: "e", want: 1, elem: true},
		{fn: "rangeHeads", local: "v", want: 1, elem: true},
		{fn: "rangeHeads", local: "k", want: 1, elem: true},
		{fn: "selfAssign", local: "x", want: 1},
		{fn: "zeroDecl", local: "x", want: 1, zero: true},
	}
	for _, tc := range cases {
		am, local := aliasFixture(t, tc.fn)
		srcs := am.Sources(local(tc.local))
		if len(srcs) != tc.want {
			t.Errorf("%s/%s: got %d sources, want %d (%+v)", tc.fn, tc.local, len(srcs), tc.want, srcs)
			continue
		}
		for _, s := range srcs {
			if s.Elem != tc.elem || s.Unknown != tc.unknown || s.Zero != tc.zero {
				t.Errorf("%s/%s: source %+v, want elem=%v unknown=%v zero=%v",
					tc.fn, tc.local, s, tc.elem, tc.unknown, tc.zero)
			}
		}
	}
}

// TestAliasSourcesRangeTargets: range-head sources carry the ranged
// container expression, not the iteration variable.
func TestAliasSourcesRangeTargets(t *testing.T) {
	am, local := aliasFixture(t, "rangeHeads")
	srcs := am.Sources(local("e"))
	if len(srcs) != 1 {
		t.Fatalf("got %d sources, want 1", len(srcs))
	}
	sel, ok := srcs[0].Expr.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "events" {
		t.Fatalf("range source should be the h.events selector, got %v", srcs[0].Expr)
	}
}
