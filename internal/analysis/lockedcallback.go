package analysis

// lockedcallback is an intra-procedural check that runtime.Observer
// callbacks and exported telemetry Collector methods are never invoked
// between a mutex Lock and its Unlock in the gateway, telemetry or core
// packages' own code. Observers are arbitrary user code and Collector
// entry points take their own locks; calling either while holding a lock
// is the deadlock/reentrancy hazard class the race detector cannot see
// (it needs an actual interleaving; this needs only the call graph
// shape). One such call is by design and out of this check's sight: the
// gateway's engine fires every hook with Server.mu held (the contract on
// gateway.Config.Observer), from internal/sim, whose event loop has no
// lock of its own. What stays forbidden is a second, ad-hoc notification
// path from a handler holding mu.
//
// The walk is source-order within one function body: Lock()/RLock() on
// a receiver path (e.g. "f.mu") marks it held, Unlock()/RUnlock()
// releases it, a deferred Unlock holds it to the end of the function.
// Function literals are analyzed as separate bodies: a closure runs
// later, when the enclosing lock is no longer (necessarily) held.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// lockedCallbackScopes is where the discipline applies: the gateway
// (whose handlers hold mu around the engine and the registry), the
// telemetry collector, and the registry in internal/core.
var lockedCallbackScopes = []string{"internal/gateway", "internal/telemetry", "internal/core"}

// LockedCallbackAnalyzer implements the lockedcallback check.
var LockedCallbackAnalyzer = &Analyzer{
	Name: "lockedcallback",
	Doc:  "forbid Observer/Collector calls while holding a mutex in gateway and telemetry",
	Run:  runLockedCallback,
}

func runLockedCallback(u *Unit) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range u.Pkgs {
		if !inScope(pkg.Path, lockedCallbackScopes) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				bodies := []*ast.BlockStmt{fd.Body}
				for len(bodies) > 0 {
					body := bodies[0]
					bodies = bodies[1:]
					var lits []*ast.BlockStmt
					diags = append(diags, sweepLocks(u, pkg, body, &lits)...)
					bodies = append(bodies, lits...)
				}
			}
		}
	}
	return diags
}

// sweepLocks walks one body in source order tracking held mutexes and
// reporting callback invocations made while any is held. Nested
// function literals are collected into lits for separate sweeps.
func sweepLocks(u *Unit, pkg *Package, body *ast.BlockStmt, lits *[]*ast.BlockStmt) []Diagnostic {
	var diags []Diagnostic
	held := map[string]token.Pos{}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			*lits = append(*lits, n.Body)
			return false
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held to the end of the
			// function; other deferred calls run outside this sweep, and
			// deferred closures are swept as separate bodies.
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				*lits = append(*lits, lit.Body)
			}
			return false
		case *ast.CallExpr:
			fn := funcOf(pkg.Info, n)
			if fn == nil {
				return true
			}
			if _, kind := mutexOp(fn); kind != "" {
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					path := types.ExprString(sel.X)
					if kind == "lock" {
						held[path] = n.Pos()
					} else {
						delete(held, path)
					}
				}
				return true
			}
			if target := callbackTarget(fn); target != "" && len(held) > 0 {
				path, at := oneHeld(held)
				diags = append(diags, Diagnostic{
					Analyzer: "lockedcallback",
					Pos:      u.Fset.Position(n.Pos()),
					Message: target + " invoked while " + path + " is held (locked at line " +
						strconv.Itoa(u.Fset.Position(at).Line) + "); release the lock before notifying observers or telemetry",
				})
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return diags
}

// mutexOp classifies fn as a sync.Mutex/RWMutex lock or unlock.
func mutexOp(fn *types.Func) (recv string, kind string) {
	named := recvNamed(fn)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", ""
	}
	name := named.Obj().Name()
	if name != "Mutex" && name != "RWMutex" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return name, "lock"
	case "Unlock", "RUnlock":
		return name, "unlock"
	}
	return "", ""
}

// callbackTarget reports whether fn is an observer/telemetry entry
// point: any method of runtime.Observer / runtime.Observers, or an
// exported method of telemetry.Collector.
func callbackTarget(fn *types.Func) string {
	named := recvNamed(fn)
	if named == nil || named.Obj().Pkg() == nil {
		// Interface methods: receiver is the interface named type, which
		// recvNamed handles; a nil here means not a method.
		return ""
	}
	obj := named.Obj()
	path := obj.Pkg().Path()
	switch {
	case strings.HasSuffix(path, "internal/runtime") && (obj.Name() == "Observer" || obj.Name() == "Observers"):
		return "runtime." + obj.Name() + "." + fn.Name()
	case strings.HasSuffix(path, "internal/telemetry") && obj.Name() == "Collector" && fn.Exported():
		return "telemetry.Collector." + fn.Name()
	}
	return ""
}

// oneHeld picks the report's representative held mutex
// deterministically (lowest path) — one report per call is enough.
func oneHeld(held map[string]token.Pos) (string, token.Pos) {
	var best string
	for path := range held {
		if best == "" || path < best {
			best = path
		}
	}
	return best, held[best]
}
