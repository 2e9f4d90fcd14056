package analysis

// lockorder is a whole-program, flow-sensitive deadlock check: it
// records every mutex acquisition made while other mutexes are held —
// across branches, loops, defers, and (statically resolved) calls — and
// reports any cycle in the resulting lock-order graph. The race
// detector cannot see this hazard class (it needs an actual inverted
// interleaving at runtime); the lock graph needs only the shape of the
// code. The focus is the control plane's locking discipline:
// gateway.Server.deployMu → gateway.Server.mu (the engine lock) is the
// one order in the gateway, and the telemetry collector's
// mu/rmu/funcStats.mu must stay leaves under it — the engine feeds the
// collector with Server.mu held. (The invoke path takes Server.mu with
// TryLock, which the analysis does not see; it holds nothing else.)
//
// Mechanics: per function, a forward may-analysis tracks the held-lock
// set (union join); at every Lock/RLock the analyzer adds held→new
// edges, and at every statically resolved call it adds held→acquires(g)
// edges, where acquires(g) is the transitive set of locks g can take
// (fixpoint over the call-graph approximation). Lock identity is the
// declared mutex object — the struct field for `s.mu`-style locks, so
// every instance of a type shares one graph node — and `defer
// mu.Unlock()` keeps the lock held to function exit. Known
// approximations: function literals are separate roots with an empty
// held set (they run later); calls through interfaces or function
// values are unresolved (lockedcallback independently bans observer
// fan-out under a lock); and instances of the same type share a node,
// so a genuine two-instance handoff of the same field would need a
// suppression.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// LockOrderAnalyzer implements the lockorder check.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "report mutex acquisition cycles (potential deadlocks) over the whole program",
	Run:  runLockOrder,
}

// lockEdge is one observed "to acquired while from is held" site.
type lockEdge struct {
	pos token.Pos
	via string // callee name when the acquisition is inside a call, else ""
}

// lockGraph accumulates edges and display names keyed by the mutex's
// declared object.
type lockGraph struct {
	names map[types.Object]string
	edges map[types.Object]map[types.Object][]lockEdge
}

func (g *lockGraph) addEdge(from, to types.Object, e lockEdge) {
	if g.edges[from] == nil {
		g.edges[from] = map[types.Object][]lockEdge{}
	}
	g.edges[from][to] = append(g.edges[from][to], e)
}

// heldSet is the dataflow fact: the mutexes that may be held, with the
// position of the acquisition that added each.
type heldSet map[types.Object]token.Pos

func (h heldSet) with(obj types.Object, pos token.Pos) heldSet {
	out := make(heldSet, len(h)+1)
	for k, v := range h {
		out[k] = v
	}
	if _, ok := out[obj]; !ok {
		out[obj] = pos
	}
	return out
}

func (h heldSet) without(obj types.Object) heldSet {
	if _, ok := h[obj]; !ok {
		return h
	}
	out := make(heldSet, len(h))
	for k, v := range h {
		if k != obj {
			out[k] = v
		}
	}
	return out
}

func heldJoin(a, b heldSet) heldSet {
	if len(a) == 0 {
		return b
	}
	out := make(heldSet, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

func heldEqual(a, b heldSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

func runLockOrder(u *Unit) []Diagnostic {
	cg := buildCallGraph(u)
	graph := &lockGraph{
		names: map[types.Object]string{},
		edges: map[types.Object]map[types.Object][]lockEdge{},
	}

	// Phase 1: transitive acquires-sets per declared function.
	acquires := map[*types.Func]map[types.Object]bool{}
	for fn, node := range cg.nodes {
		set := map[types.Object]bool{}
		for _, cs := range node.calls {
			if _, kind := mutexOp(cs.callee); kind == "lock" {
				if obj, ok := lockObjOfCall(u, node.pkg, cs.call, graph); ok {
					set[obj] = true
				}
			}
		}
		acquires[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for fn, node := range cg.nodes {
			set := acquires[fn]
			for _, cs := range node.calls {
				for obj := range acquires[cs.callee] {
					if !set[obj] {
						set[obj] = true
						changed = true
					}
				}
			}
		}
	}

	// Phase 2: flow-sensitive held-set analysis of every function body
	// (and every function literal as a separate root), recording edges.
	for _, node := range cg.nodes {
		sweepLockOrder(u, node.pkg, node.decl.Body, graph, acquires)
	}

	return lockCycles(u, graph)
}

// sweepLockOrder runs the held-set dataflow over one body and each
// function literal within it (recursively), adding edges to graph.
func sweepLockOrder(u *Unit, pkg *Package, body *ast.BlockStmt, graph *lockGraph, acquires map[*types.Func]map[types.Object]bool) {
	cfg := BuildCFG(body)
	fx := Facts[heldSet]{
		Join:  heldJoin,
		Equal: heldEqual,
		Transfer: func(f heldSet, n ast.Node) heldSet {
			deferred := false
			if d, ok := n.(*ast.DeferStmt); ok {
				deferred = true
				n = d.Call
			}
			forEachCall(n, func(call *ast.CallExpr) {
				fn := funcOf(pkg.Info, call)
				if fn == nil {
					return
				}
				switch _, kind := mutexOp(fn); kind {
				case "lock":
					if obj, ok := lockObjOfCall(u, pkg, call, graph); ok {
						f = f.with(obj, call.Pos())
					}
				case "unlock":
					if deferred {
						return // defer mu.Unlock(): held to function end
					}
					if obj, ok := lockObjOfCall(u, pkg, call, graph); ok {
						f = f.without(obj)
					}
				}
			})
			return f
		},
	}
	ins := Forward(cfg, heldSet{}, fx)
	VisitWithFacts(cfg, ins, fx, func(f heldSet, n ast.Node) {
		deferred := false
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred = true
			n = d.Call
		}
		forEachCall(n, func(call *ast.CallExpr) {
			fn := funcOf(pkg.Info, call)
			if fn == nil {
				return
			}
			if _, kind := mutexOp(fn); kind != "" {
				if kind == "lock" {
					if obj, ok := lockObjOfCall(u, pkg, call, graph); ok {
						for held := range f {
							graph.addEdge(held, obj, lockEdge{pos: call.Pos()})
						}
						f = f.with(obj, call.Pos())
					}
				} else if !deferred {
					if obj, ok := lockObjOfCall(u, pkg, call, graph); ok {
						f = f.without(obj)
					}
				}
				return
			}
			if len(f) == 0 {
				return
			}
			for obj := range acquires[fn] {
				for held := range f {
					graph.addEdge(held, obj, lockEdge{pos: call.Pos(), via: fn.FullName()})
				}
			}
		})
	})
	for _, lit := range cfg.FuncLits {
		sweepLockOrder(u, pkg, lit.Body, graph, acquires)
	}
}

// forEachCall visits the CallExprs inside a statement-level node in
// syntactic order, not descending into function literals.
func forEachCall(n ast.Node, visit func(*ast.CallExpr)) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			visit(call)
		}
		return true
	})
}

// lockObjOfCall resolves the mutex operand of a Lock/Unlock call to its
// declared object and registers a display name for it. `s.mu.Lock()`
// resolves to the field (all instances share the node); a bare
// identifier resolves to its variable object.
func lockObjOfCall(u *Unit, pkg *Package, call *ast.CallExpr, graph *lockGraph) (types.Object, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	switch x := sel.X.(type) {
	case *ast.SelectorExpr:
		if s, ok := pkg.Info.Selections[x]; ok {
			obj := s.Obj()
			if _, named := graph.names[obj]; !named {
				graph.names[obj] = lockDisplayName(s.Recv(), obj)
			}
			return obj, true
		}
	case *ast.Ident:
		if obj := pkg.Info.Uses[x]; obj != nil {
			if _, named := graph.names[obj]; !named {
				name := obj.Name()
				if obj.Pkg() != nil {
					name = obj.Pkg().Name() + "." + name
				}
				graph.names[obj] = name
			}
			return obj, true
		}
	}
	return nil, false
}

// lockDisplayName renders "pkg.Type.field" for a field-based mutex.
func lockDisplayName(recv types.Type, field types.Object) string {
	t := recv
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		name := n.Obj().Name() + "." + field.Name()
		if n.Obj().Pkg() != nil {
			name = n.Obj().Pkg().Name() + "." + name
		}
		return name
	}
	return field.Name()
}

// lockCycles finds strongly connected components of the lock graph and
// reports the edges that close a cycle: for a two-lock inversion the
// minority direction is reported against the dominant one; self-edges
// (re-acquiring a held mutex) and larger cycles report every
// participating edge.
func lockCycles(u *Unit, g *lockGraph) []Diagnostic {
	var diags []Diagnostic

	// Self-edges first: acquiring a lock already held can self-deadlock
	// regardless of any other lock.
	for from, tos := range g.edges {
		for to, sites := range tos {
			if from != to {
				continue
			}
			for _, s := range sites {
				diags = append(diags, Diagnostic{
					Analyzer: "lockorder",
					Pos:      u.Fset.Position(s.pos),
					Message: g.names[from] + " acquired while already held" + viaSuffix(s) +
						"; sync mutexes are not reentrant",
				})
			}
		}
	}

	comp := sccOf(g)
	for from, tos := range g.edges {
		for to, sites := range tos {
			if from == to || comp[from] != comp[to] {
				continue
			}
			// from→to participates in a cycle. Report the minority
			// direction of each pair once per site; on a tie both
			// directions are reported.
			reverse := len(g.edges[to][from])
			if len(sites) > reverse && reverse > 0 {
				continue // dominant direction of a 2-cycle
			}
			for _, s := range sites {
				msg := "lock order inversion: " + g.names[to] + " acquired while " + g.names[from] +
					" is held" + viaSuffix(s)
				if reverse > 0 {
					msg += "; the dominant order is " + g.names[to] + " before " + g.names[from] +
						" (" + strconv.Itoa(reverse) + " site(s))"
				} else {
					msg += "; this edge closes a lock-order cycle"
				}
				diags = append(diags, Diagnostic{Analyzer: "lockorder", Pos: u.Fset.Position(s.pos), Message: msg})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return diags
}

func viaSuffix(s lockEdge) string {
	if s.via == "" {
		return ""
	}
	return " (via call to " + shortFuncName(s.via) + ")"
}

// shortFuncName trims a FullName like
// "(*github.com/x/y/internal/gateway.Server).deploy" down to
// "(*gateway.Server).deploy".
func shortFuncName(full string) string {
	i := strings.LastIndex(full, "/")
	if i < 0 {
		return full
	}
	prefix := ""
	if strings.HasPrefix(full, "(*") {
		prefix = "(*"
	} else if strings.HasPrefix(full, "(") {
		prefix = "("
	}
	return prefix + full[i+1:]
}

// sccOf computes strongly connected components (Tarjan) of the lock
// graph, returning a component id per node.
func sccOf(g *lockGraph) map[types.Object]int {
	index := map[types.Object]int{}
	low := map[types.Object]int{}
	onStack := map[types.Object]bool{}
	comp := map[types.Object]int{}
	var stack []types.Object
	next, ncomp := 0, 0

	var nodes []types.Object
	seen := map[types.Object]bool{}
	addNode := func(o types.Object) {
		if !seen[o] {
			seen[o] = true
			nodes = append(nodes, o)
		}
	}
	for from, tos := range g.edges {
		addNode(from)
		for to := range tos {
			addNode(to)
		}
	}

	var strongconnect func(v types.Object)
	strongconnect = func(v types.Object) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for w := range g.edges[v] {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = ncomp
				if w == v {
					break
				}
			}
			ncomp++
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}
	return comp
}
