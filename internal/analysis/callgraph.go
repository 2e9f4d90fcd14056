package analysis

// callgraph.go approximates the module's call graph over go/types:
// every declared function/method maps to the static call sites in its
// body. Calls through interfaces, function-typed variables, and
// closures stay unresolved — hotalloc, the analyzer built on top,
// documents that as an accepted approximation. Function literals are
// excluded from their enclosing function's summary: a closure runs
// later, so charging its effects to the definition site would fabricate
// paths that never execute together.

import (
	"go/ast"
	"go/types"
)

// callSite is one statically resolved call inside a function body.
type callSite struct {
	call   *ast.CallExpr
	callee *types.Func
}

// funcNode is one declared function of the unit.
type funcNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	// calls are the resolved call sites in the body, excluding
	// FuncLit subtrees.
	calls []callSite
}

// callGraph indexes the unit's declared functions.
type callGraph struct {
	nodes map[*types.Func]*funcNode
}

// buildCallGraph scans every FuncDecl of the unit.
func buildCallGraph(u *Unit) *callGraph {
	g := &callGraph{nodes: map[*types.Func]*funcNode{}}
	for _, pkg := range u.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &funcNode{fn: obj, decl: fd, pkg: pkg}
				node.calls = collectCalls(pkg.Info, fd.Body)
				g.nodes[obj] = node
			}
		}
	}
	return g
}

// collectCalls resolves the static call sites in body, not descending
// into function literals.
func collectCalls(info *types.Info, body ast.Node) []callSite {
	var calls []callSite
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := funcOf(info, call); fn != nil {
				calls = append(calls, callSite{call: call, callee: fn})
			}
		}
		return true
	})
	return calls
}
