package analysis

// goroutinelife proves that every goroutine the module spawns can stop.
// The data plane's long-running concurrency — the gateway's pacer,
// FitPool fan-out workers, loadgen workers, the bench runner —
// is torn down by hand-maintained convention (close a quit channel,
// close the work feed, cancel a context), and a `go` statement whose
// body misses the convention leaks a goroutine forever: invisible to
// unit tests, fatal at control-plane scale. For every `go` statement in
// non-test code the analyzer resolves the spawned body (a function
// literal in place, or the declaration of a statically resolved
// function/method call) and demands a provable termination path:
//
//   - a `for range ch` loop over a channel must have at least one
//     resolved close site somewhere in the module (the close owner is
//     what ends the range);
//   - an unbounded `for {}` / `for cond` loop must contain an exit
//     signal: a receive (select case or direct) from a channel some
//     close site resolves to, a receive from ctx.Done(), or a loop
//     condition consulting ctx.Err();
//   - three-clause `for init; cond; post` loops are treated as bounded
//     counters, and loops over slices/maps/arrays/integers terminate by
//     construction.
//
// The second leak shape is blocked-forever sends — the classic
// timeout-path leak: a spawned goroutine sends its result on an
// unbuffered channel while the only receiver sits in a multi-arm
// select, so the moment the receiver takes the timeout arm the sender
// blocks for the rest of the process. The analyzer flags a send, from a
// go-literal, on an unbuffered channel made in the spawning function
// whose receives all sit in selects with an alternative arm; buffering
// the channel (capacity >= number of sends) is the canonical fix.
//
// Approximations, by design: only the spawned body itself is analyzed
// (a helper the goroutine calls into is not descended into, except for
// the `go helper()` form, which resolves one level); a receive from a
// closable channel anywhere inside a loop counts as that loop's exit
// signal even if the loop could ignore it; `go` through a function
// value or interface method is skipped. Suppress with
// //lint:ignore goroutinelife <reason> where a goroutine is
// intentionally process-lifetime.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// GoroutineLifeAnalyzer implements the goroutinelife check.
var GoroutineLifeAnalyzer = &Analyzer{
	Name: "goroutinelife",
	Doc:  "every spawned goroutine has a provable termination path: a stop channel someone closes, a context, a drained work feed, or a bounded loop",
	Run:  runGoroutineLife,
}

func runGoroutineLife(u *Unit) []Diagnostic {
	closers := closeSites(u)
	decls := declBodies(u)
	var diags []Diagnostic
	for _, pkg := range u.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				forEachRoot(fd.Body, func(root *ast.BlockStmt) {
					diags = append(diags, sweepGoStmts(u, pkg, root, closers, decls)...)
				})
			}
		}
	}
	return diags
}

// declBodies indexes every declared function's body for the
// `go helper()` resolution.
func declBodies(u *Unit) map[*types.Func]*ast.BlockStmt {
	idx := map[*types.Func]*ast.BlockStmt{}
	for _, pkg := range u.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					idx[obj] = fd.Body
				}
			}
		}
	}
	return idx
}

// closeSites maps every channel object (field or variable) to the
// positions of the module's static close(...) calls on it, in file
// order. A field initialised from a local channel in a composite literal
// inherits the local's close sites: that is the close-once shape
// `quit: ch, stop: sync.OnceFunc(func() { close(ch) })`, whose field is
// receive-only so no close can name it.
func closeSites(u *Unit) map[types.Object][]token.Pos {
	sites := map[types.Object][]token.Pos{}
	var inits [][2]types.Object // {field, the variable its literal sets it from}
	for _, pkg := range u.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); !ok || id.Name != "close" || len(n.Args) != 1 {
						return true
					}
					if obj := chanTargetObj(pkg, n.Args[0]); obj != nil {
						sites[obj] = append(sites[obj], n.Pos())
					}
				case *ast.KeyValueExpr:
					key, ok := n.Key.(*ast.Ident)
					if !ok {
						return true
					}
					if field, ok := pkg.Info.Uses[key].(*types.Var); ok && field.IsField() {
						if src := chanTargetObj(pkg, n.Value); src != nil {
							inits = append(inits, [2]types.Object{field, src})
						}
					}
				}
				return true
			})
		}
	}
	for _, in := range inits {
		sites[in[0]] = append(sites[in[0]], sites[in[1]]...)
	}
	return sites
}

// chanTargetObj resolves a channel expression (possibly an element of a
// slice/map of channels) to the field or variable object it lives in.
func chanTargetObj(pkg *Package, e ast.Expr) types.Object {
	e = unwrapExpr(e)
	if idx, ok := e.(*ast.IndexExpr); ok {
		e = unwrapExpr(idx.X)
	}
	switch e := e.(type) {
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[e].(*types.Var); ok {
			return obj
		}
		if obj, ok := pkg.Info.Defs[e].(*types.Var); ok {
			return obj
		}
	case *ast.SelectorExpr:
		if s, ok := pkg.Info.Selections[e]; ok && s.Kind() == types.FieldVal {
			return s.Obj()
		}
	}
	return nil
}

// forEachRoot visits body and every function literal inside it as
// separate analysis roots (literals shallowly, mirroring the CFG's
// FuncLit discipline).
func forEachRoot(body *ast.BlockStmt, visit func(*ast.BlockStmt)) {
	visit(body)
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			forEachRoot(lit.Body, visit)
			return false
		}
		return true
	})
}

// sweepGoStmts checks every `go` statement syntactically in root
// (excluding nested literals, which are their own roots).
func sweepGoStmts(u *Unit, pkg *Package, root *ast.BlockStmt, closers map[types.Object][]token.Pos, decls map[*types.Func]*ast.BlockStmt) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		var body *ast.BlockStmt
		isLit := false
		if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
			body, isLit = lit.Body, true
		} else if fn := funcOf(pkg.Info, gs.Call); fn != nil {
			body = decls[fn]
		}
		if body == nil {
			return true // dynamic dispatch: unresolvable, accepted approximation
		}
		diags = append(diags, checkSpawnedBody(u, pkg, gs, body, closers)...)
		if isLit {
			diags = append(diags, checkBlockedSend(u, pkg, gs, body, root, closers)...)
		}
		return true
	})
	return diags
}

// checkSpawnedBody demands a termination path for every unbounded loop
// in the spawned body.
func checkSpawnedBody(u *Unit, pkg *Package, gs *ast.GoStmt, body *ast.BlockStmt, closers map[types.Object][]token.Pos) []Diagnostic {
	var diags []Diagnostic
	report := func(msg string) {
		diags = append(diags, Diagnostic{
			Analyzer: "goroutinelife",
			Pos:      u.Fset.Position(gs.Pos()),
			Message:  msg,
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch loop := n.(type) {
		case *ast.RangeStmt:
			t, ok := pkg.Info.Types[loop.X]
			if !ok {
				return true
			}
			if _, isChan := t.Type.Underlying().(*types.Chan); !isChan {
				return true // slices/maps/ints terminate by construction
			}
			obj := chanTargetObj(pkg, loop.X)
			if obj == nil {
				return true // unresolvable channel expression: accepted approximation
			}
			if len(closers[obj]) == 0 {
				report("goroutine ranges over channel " + obj.Name() + " (line " +
					strconv.Itoa(u.Fset.Position(loop.Pos()).Line) +
					") but nothing in the module closes it; the loop, and the goroutine, can never end")
			}
		case *ast.ForStmt:
			if loop.Cond != nil && loop.Post != nil {
				return true // three-clause counter loop: bounded by construction
			}
			if !loopHasExitSignal(pkg, loop, closers) {
				report("goroutine has no provable termination: the loop at line " +
					strconv.Itoa(u.Fset.Position(loop.Pos()).Line) +
					" neither receives on a channel anyone closes nor consults a context; " +
					"select on a stop channel or ctx.Done() inside the loop")
			}
		}
		return true
	})
	return diags
}

// loopHasExitSignal reports whether the loop (condition plus body,
// excluding nested function literals) contains a receive from a channel
// with a resolved close site, a receive from ctx.Done(), or a condition
// consulting ctx.Err().
func loopHasExitSignal(pkg *Package, loop *ast.ForStmt, closers map[types.Object][]token.Pos) bool {
	found := false
	scan := func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if found {
				return false
			}
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			switch m := m.(type) {
			case *ast.UnaryExpr:
				if m.Op != token.ARROW {
					return true
				}
				if isCtxMethodCall(pkg, m.X, "Done") {
					found = true
					return false
				}
				if obj := chanTargetObj(pkg, m.X); obj != nil && len(closers[obj]) > 0 {
					found = true
					return false
				}
			case *ast.CallExpr:
				if isCtxMethodCall(pkg, m, "Err") {
					found = true
					return false
				}
			}
			return true
		})
	}
	scan(loop.Cond)
	scan(loop.Body)
	return found
}

// isCtxMethodCall reports whether e is a call of the named method on a
// context.Context value (ctx.Done(), ctx.Err()).
func isCtxMethodCall(pkg *Package, e ast.Expr, method string) bool {
	call, ok := unwrapExpr(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	t, ok := pkg.Info.Types[sel.X]
	return ok && isContextType(t.Type)
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}

// checkBlockedSend flags the timeout-path leak: the spawned literal
// sends on an unbuffered channel made in the spawning function, and the
// spawning function's receive sits in a select with an alternative arm.
func checkBlockedSend(u *Unit, pkg *Package, gs *ast.GoStmt, body *ast.BlockStmt, encl *ast.BlockStmt, closers map[types.Object][]token.Pos) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		send, ok := n.(*ast.SendStmt)
		if !ok {
			return true
		}
		obj := chanTargetObj(pkg, send.Chan)
		if obj == nil || !unbufferedLocalChan(pkg, encl, obj) {
			return true
		}
		if selectCanAbandonReceive(pkg, encl, obj) {
			diags = append(diags, Diagnostic{
				Analyzer: "goroutinelife",
				Pos:      u.Fset.Position(gs.Pos()),
				Message: "goroutine sends on unbuffered " + obj.Name() +
					" while the receiver sits in a multi-arm select; once the receiver takes " +
					"another arm the send blocks forever — make " + obj.Name() + " buffered",
			})
		}
		return true
	})
	return diags
}

// unbufferedLocalChan reports whether obj is defined in body by an
// unbuffered make(chan T).
func unbufferedLocalChan(pkg *Package, body *ast.BlockStmt, obj types.Object) bool {
	unbuffered := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || pkg.Info.Defs[id] != obj {
				continue
			}
			call, ok := as.Rhs[i].(*ast.CallExpr)
			if !ok {
				continue
			}
			if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "make" {
				continue
			}
			if _, isChan := pkg.Info.Types[call].Type.Underlying().(*types.Chan); !isChan {
				continue
			}
			if len(call.Args) == 1 {
				unbuffered = true
			} else if len(call.Args) == 2 {
				if tv, ok := pkg.Info.Types[call.Args[1]]; ok && tv.Value != nil && tv.Value.String() == "0" {
					unbuffered = true
				}
			}
		}
		return true
	})
	return unbuffered
}

// selectCanAbandonReceive reports whether body contains a select with a
// receive from obj plus at least one alternative arm — the shape where
// the receiver can return without ever receiving.
func selectCanAbandonReceive(pkg *Package, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		sel, ok := n.(*ast.SelectStmt)
		if !ok || len(sel.Body.List) < 2 {
			return true
		}
		for _, c := range sel.Body.List {
			comm := c.(*ast.CommClause)
			if comm.Comm == nil {
				continue
			}
			if recvTargets(pkg, comm.Comm, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// recvTargets reports whether the select communication stmt receives
// from obj.
func recvTargets(pkg *Package, comm ast.Stmt, obj types.Object) bool {
	hit := false
	ast.Inspect(comm, func(n ast.Node) bool {
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			if chanTargetObj(pkg, u.X) == obj {
				hit = true
			}
		}
		return !hit
	})
	return hit
}
