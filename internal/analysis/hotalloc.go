package analysis

// hotalloc is the source-level half of the zero-allocation gate:
// check.sh's gw_dispatch smoke pins an in-process invocation under
// 1.2 B, but a benchmark only reports the regression — it cannot
// name the line that caused it, and it only covers the one path the
// benchmark drives. hotalloc turns the contract into a directive:
//
//	//lint:hotpath
//	func (s *Server) ServeHTTP(...) { ... }
//
// Every function so marked, and everything it reaches through
// statically resolved calls, must contain no allocating constructs:
//
//   - map and slice composite literals, make, new, &T{} literals;
//   - function literals (closure allocation + capture);
//   - any call into package fmt;
//   - non-constant string concatenation (+ / += on strings);
//   - append to an empty composite literal, zero-capacity on every
//     call (appends to anything named — parameters, pooled buffers —
//     are allowed: most amortize);
//   - interface boxing at go/types-visible sites: a non-pointer-shaped,
//     non-constant concrete value passed to an interface parameter,
//     returned as an interface result, or explicitly converted
//     (pointers, maps, chans and funcs live in the iface word and do
//     not allocate; interface-to-interface passes are free);
//   - variadic calls that materialize an argument slice.
//
// `//lint:coldpath` on a callee stops the descent and exempts its call
// sites from the variadic/boxing checks — the declared slow path
// (error responses, first-touch construction) may allocate. Placing
// either directive on anything but a function declaration is itself a
// diagnostic. Calls through interfaces or function values are not
// followed (documented approximation — the benchmark gate still backs
// this check at runtime).

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAllocAnalyzer implements the hotalloc check.
var HotAllocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "functions marked //lint:hotpath and everything they reach must not allocate",
	Run:  runHotAlloc,
}

const (
	hotpathDirective  = "lint:hotpath"
	coldpathDirective = "lint:coldpath"
)

func runHotAlloc(u *Unit) []Diagnostic {
	cg := buildCallGraph(u)
	var diags []Diagnostic

	// Directive collection: hotpath seeds, coldpath stops, misuse.
	hot := map[*types.Func]bool{}
	cold := map[*types.Func]bool{}
	docGroups := map[*ast.CommentGroup]bool{}
	for _, pkg := range u.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				docGroups[fd.Doc] = true
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				switch pathDirective(fd.Doc) {
				case hotpathDirective:
					if fd.Body == nil {
						continue
					}
					hot[fn] = true
				case coldpathDirective:
					cold[fn] = true
				}
			}
		}
	}
	for _, pkg := range u.Pkgs {
		for _, f := range pkg.Files {
			for _, group := range f.Comments {
				if docGroups[group] {
					continue
				}
				for _, c := range group.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if strings.HasPrefix(text, hotpathDirective) || strings.HasPrefix(text, coldpathDirective) {
						name, _, _ := strings.Cut(text, " ")
						diags = append(diags, Diagnostic{
							Analyzer: "hotalloc",
							Pos:      u.Fset.Position(c.Pos()),
							Message:  "//" + name + " applies only to function declarations; move the directive onto the func it gates",
						})
					}
				}
			}
		}
	}

	// Reachability: BFS from the hotpath seeds, stopping at coldpath.
	root := map[*types.Func]*types.Func{} // reached fn → its hotpath seed
	var work []*types.Func
	for fn := range hot {
		root[fn] = fn
		work = append(work, fn)
	}
	for len(work) > 0 {
		fn := work[0]
		work = work[1:]
		node := cg.nodes[fn]
		if node == nil {
			continue
		}
		for _, cs := range node.calls {
			callee := cs.callee.Origin()
			if cold[callee] {
				continue
			}
			if _, seen := root[callee]; seen || cg.nodes[callee] == nil {
				continue
			}
			root[callee] = root[fn]
			work = append(work, callee)
		}
	}

	// Per reached function: scan the body for allocating constructs.
	for fn, seed := range root {
		node := cg.nodes[fn]
		if node == nil || node.decl.Body == nil {
			continue
		}
		diags = append(diags, scanHotBody(u, node.pkg, node.decl.Body, seed, cold)...)
	}
	return diags
}

// pathDirective returns the hot/cold directive found in a doc group,
// or "".
func pathDirective(doc *ast.CommentGroup) string {
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		name, _, _ := strings.Cut(text, " ")
		if name == hotpathDirective || name == coldpathDirective {
			return name
		}
	}
	return ""
}

// hotRootSuffix renders the "reachable from" tail of every finding.
func hotRootSuffix(seed *types.Func) string {
	return " on the //lint:hotpath path through " + shortFuncName(seed.FullName()) +
		"; hoist the allocation out of the request path or mark a //lint:coldpath boundary"
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

// scanHotBody flags the allocating constructs in one hot function body.
// Function literals are themselves findings (closure allocation), and
// their bodies are not scanned further — the closure runs later, under
// its own profile.
func scanHotBody(u *Unit, pkg *Package, body *ast.BlockStmt, seed *types.Func, cold map[*types.Func]bool) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, what string) {
		diags = append(diags, Diagnostic{
			Analyzer: "hotalloc",
			Pos:      u.Fset.Position(pos),
			Message:  what + " allocates" + hotRootSuffix(seed),
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "closure literal")
			return false
		case *ast.CompositeLit:
			switch pkg.Info.TypeOf(n).Underlying().(type) {
			case *types.Map:
				report(n.Pos(), "map literal")
			case *types.Slice:
				report(n.Pos(), "slice literal")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite literal")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(pkg, n) && !isConstExpr(pkg, n) {
				report(n.Pos(), "string concatenation")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(pkg, n.Lhs[0]) {
				report(n.Pos(), "string concatenation")
			}
		case *ast.CallExpr:
			diags = append(diags, scanHotCall(u, pkg, n, seed, cold)...)
		}
		return true
	})
	return diags
}

// scanHotCall applies the call-shaped checks: builtins, fmt, variadic
// argument slices, and interface boxing of arguments.
func scanHotCall(u *Unit, pkg *Package, call *ast.CallExpr, seed *types.Func, cold map[*types.Func]bool) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, what string) {
		diags = append(diags, Diagnostic{
			Analyzer: "hotalloc",
			Pos:      u.Fset.Position(pos),
			Message:  what + " allocates" + hotRootSuffix(seed),
		})
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make")
			case "new":
				report(call.Pos(), "new")
			case "append":
				if len(call.Args) > 0 && zeroCapBase(call.Args[0]) {
					report(call.Pos(), "append to a zero-capacity base")
				}
			}
			return diags
		}
	}
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		// Explicit conversion: flag concrete→interface boxing.
		if len(call.Args) == 1 && boxes(pkg, tv.Type, call.Args[0]) {
			report(call.Pos(), "interface conversion of "+types.ExprString(call.Args[0]))
		}
		return diags
	}
	fn := funcOf(pkg.Info, call)
	if fn != nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			report(call.Pos(), "call to fmt."+fn.Name())
			return diags
		}
		if cold[fn.Origin()] {
			return diags // declared slow path: its call site may box/variadic
		}
	}
	sig, _ := pkg.Info.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return diags
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= sig.Params().Len() {
		// A bare variadic call with at least one variadic argument
		// materializes the argument slice.
		report(call.Pos(), "variadic call (argument slice)")
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < sig.Params().Len()-1 || !sig.Variadic():
			if i < sig.Params().Len() {
				pt = sig.Params().At(i).Type()
			}
		case call.Ellipsis.IsValid():
			pt = sig.Params().At(sig.Params().Len() - 1).Type()
		default:
			if s, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		}
		if pt != nil && boxes(pkg, pt, arg) {
			report(arg.Pos(), "interface boxing of "+types.ExprString(arg))
		}
	}
	return diags
}

// isStringExpr reports whether e has string type.
func isStringExpr(pkg *Package, e ast.Expr) bool {
	t := pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isConstExpr reports whether e folds to a compile-time constant.
func isConstExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	return ok && tv.Value != nil
}

// zeroCapBase reports whether the append base is zero-capacity on every
// call by its syntax alone: an empty composite literal. Anything named
// (locals, parameters, pooled buffers) is allowed — most amortize, and
// the 0 allocs/op benchmark gate catches the ones that do not.
func zeroCapBase(e ast.Expr) bool {
	lit, ok := unwrapExpr(e).(*ast.CompositeLit)
	return ok && len(lit.Elts) == 0
}

// boxes reports whether passing arg as target type performs an
// allocating interface conversion: target is an interface, arg's
// concrete type is not pointer-shaped, and arg is not a constant.
func boxes(pkg *Package, target types.Type, arg ast.Expr) bool {
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return false
	}
	tv, ok := pkg.Info.Types[arg]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.Value != nil || tv.IsNil() {
		return false // constants and nil are boxed statically
	}
	if _, ok := tv.Type.Underlying().(*types.Interface); ok {
		return false // interface→interface: no allocation
	}
	return !pointerShaped(tv.Type)
}

// pointerShaped reports whether values of t live directly in an
// interface word (no allocation on conversion).
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}
