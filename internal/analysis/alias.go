package analysis

// alias.go is a lightweight intraprocedural alias pass: for every local
// variable of one function body it records which source expressions the
// variable may refer to — across plain assignments, field loads, index
// loads, and range heads. It is deliberately conservative and flow-
// INsensitive (a may-analysis over all assignments in the body, no heap
// modeling, no kill on reassignment): hotalloc, the analyzer built on
// top, asks it where an append base may come from. Function literals
// are separate roots, exactly as in the CFG: a closure's assignments
// never feed the enclosing body's alias map.
//
// The pass answers one question, Sources(obj): the terminal expressions
// obj may alias, reached by chasing ident-to-ident copies and
// unwrapping parens, derefs and slice expressions (which share backing
// storage). A source drawn out of a container by a range head or an
// index load is marked Elem; a `var x T` declaration with no value is
// marked Zero; a variable with no recorded definition (parameter,
// receiver, closure capture) is marked Unknown.

import (
	"go/ast"
	"go/types"
)

// aliasSource is one terminal thing a local variable may refer to.
type aliasSource struct {
	// Expr is the originating expression: a call, selector, composite
	// literal, &-expression — anything that is not a further local.
	// Nil when Zero or Unknown is set.
	Expr ast.Expr
	// Elem marks a value drawn OUT of Expr (range value/key, index
	// load): the variable aliases an element, not the container.
	Elem bool
	// Zero marks a `var x T` declaration with no initializer.
	Zero bool
	// Unknown marks a variable with no recorded definition at all:
	// parameters, receivers, and captures enter the body opaque.
	Unknown bool
}

// aliasDef is one recorded definition of a local.
type aliasDef struct {
	expr ast.Expr // RHS expression; nil for a zero-value declaration
	elem bool     // the local receives an element of expr (range/index)
}

// aliasMap holds the definitions of one function body.
type aliasMap struct {
	info *types.Info
	defs map[types.Object][]aliasDef
}

// buildAliasMap scans one body (not descending into function literals)
// and records every definition of every local identifier.
func buildAliasMap(info *types.Info, body ast.Node) *aliasMap {
	a := &aliasMap{info: info, defs: map[types.Object][]aliasDef{}}
	if body == nil {
		return a
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			a.assign(n)
		case *ast.RangeStmt:
			a.rangeHead(n)
		case *ast.DeclStmt:
			a.decl(n)
		}
		return true
	})
	return a
}

func (a *aliasMap) record(lhs ast.Expr, def aliasDef) {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := a.info.Defs[id]
	if obj == nil {
		obj = a.info.Uses[id]
	}
	if obj == nil {
		return
	}
	a.defs[obj] = append(a.defs[obj], def)
}

func (a *aliasMap) assign(as *ast.AssignStmt) {
	switch {
	case len(as.Lhs) == len(as.Rhs):
		for i := range as.Lhs {
			a.record(as.Lhs[i], aliasDef{expr: as.Rhs[i]})
		}
	case len(as.Rhs) == 1:
		// Tuple forms: v, ok := m[k] / x.(T) / <-ch / f(). The first
		// variable receives the interesting value; the rest (ok-bools,
		// extra results) stay opaque through the Unknown fallback.
		switch rhs := as.Rhs[0].(type) {
		case *ast.IndexExpr:
			a.record(as.Lhs[0], aliasDef{expr: rhs.X, elem: true})
		default:
			a.record(as.Lhs[0], aliasDef{expr: as.Rhs[0]})
		}
	}
}

func (a *aliasMap) rangeHead(r *ast.RangeStmt) {
	// Both the key and the value are elements drawn from the ranged
	// container (for maps the key aliases nothing interesting, but the
	// conservative direction is to track it too).
	if r.Key != nil {
		a.record(r.Key, aliasDef{expr: r.X, elem: true})
	}
	if r.Value != nil {
		a.record(r.Value, aliasDef{expr: r.X, elem: true})
	}
}

func (a *aliasMap) decl(d *ast.DeclStmt) {
	gd, ok := d.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			switch {
			case len(vs.Values) == 0:
				a.record(name, aliasDef{})
			case i < len(vs.Values):
				a.record(name, aliasDef{expr: vs.Values[i]})
			}
		}
	}
}

// unwrapAlias strips the expression wrappers that preserve aliasing:
// parens, pointer derefs (the pointee is the same object), and slice
// expressions (the sub-slice shares the backing array).
func unwrapAlias(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return e
		}
	}
}

// Sources returns the terminal alias sources of obj, chasing local
// ident chains transitively (self-assignments terminate via the visited
// set). A definition through another local combines Elem flags: an
// element of an alias of X is an element of X.
func (a *aliasMap) Sources(obj types.Object) []aliasSource {
	var out []aliasSource
	visited := map[types.Object]bool{}
	a.sources(obj, false, visited, &out)
	return out
}

func (a *aliasMap) sources(obj types.Object, elem bool, visited map[types.Object]bool, out *[]aliasSource) {
	if visited[obj] {
		return
	}
	visited[obj] = true
	defs := a.defs[obj]
	if len(defs) == 0 {
		*out = append(*out, aliasSource{Unknown: true, Elem: elem})
		return
	}
	for _, d := range defs {
		if d.expr == nil {
			*out = append(*out, aliasSource{Zero: true, Elem: elem})
			continue
		}
		e := unwrapAlias(d.expr)
		if id, ok := e.(*ast.Ident); ok {
			if next := a.info.Uses[id]; next != nil {
				if _, isLocal := a.defs[next]; isLocal {
					a.sources(next, elem || d.elem, visited, out)
					continue
				}
				// An ident with no local defs (parameter, package var):
				// terminal but opaque.
				*out = append(*out, aliasSource{Expr: e, Unknown: true, Elem: elem || d.elem})
				continue
			}
		}
		*out = append(*out, aliasSource{Expr: e, Elem: elem || d.elem})
	}
}

// identObj resolves an identifier expression to its object, or nil.
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := unwrapAlias(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}
