package analysis

// chanlife machine-checks channel lifecycle discipline against the
// declarative ChannelContracts table (invariants.go). Go's runtime
// semantics make channel teardown a protocol, not a type: closing twice
// panics, sending after close panics, and which function owns the close
// is pure convention. The data plane's conventions — Server.Close is the
// only closer of the pacer's quit, FitPool.Close the only closer of
// jobs, a reply slot is deliberately never closed — were previously
// enforced by comment. chanlife enforces them:
//
//   - close ownership: the module must contain exactly Closers static
//     close sites for each contracted channel identity (0 declares a
//     never-closed channel). A refactor that adds a second closer, or
//     deletes the one closer and leaks every ranging worker, fails lint.
//   - signal purity: a SignalOnly channel (quit/done) is close-only;
//     any send through it is diagnosed — receivers wait for the close,
//     and a send on a closed signal channel panics the sender.
//   - no use after close: within any one function body, a send to or a
//     second close of a contracted channel that is reachable after a
//     close on SOME path (may-analysis over the CFG, union join) is
//     diagnosed at the offending statement.
//   - coverage: a channel-typed struct field in a contracted package
//     with no table entry is itself diagnosed — every long-lived
//     channel must declare its close owner, even if the answer is
//     "nobody".
//
// Contracts resolve against the type-checked tree, so a stale entry
// (renamed field, deleted function) is a diagnostic too: the table rots
// loudly, not silently.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// ChanLifeAnalyzer implements the chanlife check.
var ChanLifeAnalyzer = &Analyzer{
	Name: "chanlife",
	Doc:  "channel lifecycle contracts: exactly the declared close sites per channel, signal channels close-only, no send or re-close reachable after a close",
	Run:  runChanLife,
}

// chanIdentity is one resolved contract: the channel's field/variable
// objects (a local contract can resolve to several shadowed objects;
// they share the contract) plus the anchor for count diagnostics.
type chanIdentity struct {
	contract *ChannelContract
	objs     []types.Object
	anchor   token.Pos
}

func runChanLife(u *Unit) []Diagnostic {
	table := u.Channels
	if table == nil {
		table = ChannelContracts
	}
	var diags []Diagnostic
	var idents []*chanIdentity
	byObj := map[types.Object]*chanIdentity{}
	for i := range table {
		c := &table[i]
		id, d := resolveChannelContract(u, c)
		diags = append(diags, d...)
		if id == nil {
			continue
		}
		idents = append(idents, id)
		for _, obj := range id.objs {
			byObj[obj] = id
		}
	}

	closers := closeSites(u)
	diags = append(diags, checkCloserCounts(u, idents, closers)...)
	diags = append(diags, checkSignalSends(u, byObj)...)
	diags = append(diags, checkUseAfterClose(u, byObj)...)
	diags = append(diags, checkFieldCoverage(u, table)...)
	return diags
}

// resolveChannelContract binds one contract to its channel objects in
// every in-scope package. A contract whose scope matches no loaded
// package is skipped (corpus runs load subsets of the tree); a contract
// whose scope matches but whose type/field/function/variable does not
// resolve is a stale-table diagnostic.
func resolveChannelContract(u *Unit, c *ChannelContract) (*chanIdentity, []Diagnostic) {
	id := &chanIdentity{contract: c}
	sawScope := false
	for _, pkg := range u.Pkgs {
		if !inScope(pkg.Path, []string{c.Pkg}) {
			continue
		}
		sawScope = true
		if c.Field != "" {
			if obj := lookupChanField(pkg, c.Type, c.Field); obj != nil {
				id.objs = append(id.objs, obj)
				if id.anchor == token.NoPos {
					id.anchor = obj.Pos()
				}
			}
		} else {
			objs := lookupChanLocals(pkg, c.Func, c.Var)
			id.objs = append(id.objs, objs...)
			if id.anchor == token.NoPos && len(objs) > 0 {
				id.anchor = objs[0].Pos()
			}
		}
	}
	if !sawScope {
		return nil, nil
	}
	if len(id.objs) == 0 {
		anchor := token.NoPos
		for _, pkg := range u.Pkgs {
			if inScope(pkg.Path, []string{c.Pkg}) && len(pkg.Files) > 0 {
				anchor = pkg.Files[0].Pos()
				break
			}
		}
		return nil, []Diagnostic{{
			Analyzer: "chanlife",
			Pos:      u.Fset.Position(anchor),
			Message: "stale ChannelContract: " + c.DisplayName() + " does not resolve in " +
				c.Pkg + "; update or remove the table entry",
		}}
	}
	return id, nil
}

// lookupChanField finds the channel-typed field Type.Field in pkg.
func lookupChanField(pkg *Package, typeName, fieldName string) types.Object {
	obj := pkg.Types.Scope().Lookup(typeName)
	if obj == nil {
		return nil
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == fieldName {
			return f
		}
	}
	return nil
}

// lookupChanLocals finds every channel-carrying local named varName
// defined in the body of funcName ("Func" or "Recv.Method"), including
// inside its function literals. Shadowed redefinitions all share the
// contract.
func lookupChanLocals(pkg *Package, funcName, varName string) []types.Object {
	recv, name := "", funcName
	if dot := strings.IndexByte(funcName, '.'); dot >= 0 {
		recv, name = funcName[:dot], funcName[dot+1:]
	}
	var objs []types.Object
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name != name || recvTypeName(fd) != recv {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || id.Name != varName {
					return true
				}
				obj, ok := pkg.Info.Defs[id].(*types.Var)
				if ok && carriesChan(obj.Type()) {
					objs = append(objs, obj)
				}
				return true
			})
		}
	}
	return objs
}

// recvTypeName returns the receiver's base type name, or "" for plain
// functions.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		if id, ok := idx.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// carriesChan reports whether t is a channel or a slice/array/map of
// channels (the bench runner's done []chan struct{} shape).
func carriesChan(t types.Type) bool {
	switch t := t.Underlying().(type) {
	case *types.Chan:
		return true
	case *types.Slice:
		return carriesChan(t.Elem())
	case *types.Array:
		return carriesChan(t.Elem())
	case *types.Map:
		return carriesChan(t.Elem())
	}
	return false
}

// checkCloserCounts compares each identity's static close sites against
// its declared Closers.
func checkCloserCounts(u *Unit, idents []*chanIdentity, closers map[types.Object][]token.Pos) []Diagnostic {
	var diags []Diagnostic
	for _, id := range idents {
		var sites []token.Pos
		for _, obj := range id.objs {
			sites = append(sites, closers[obj]...)
		}
		sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
		if len(sites) == id.contract.Closers {
			continue
		}
		msg := "channel " + id.contract.DisplayName() + " declares " +
			strconv.Itoa(id.contract.Closers) + " close site(s), found " + strconv.Itoa(len(sites))
		if len(sites) > 0 {
			var where []string
			for _, p := range sites {
				pos := u.Fset.Position(p)
				where = append(where, pos.Filename+":"+strconv.Itoa(pos.Line))
			}
			msg += " (" + strings.Join(where, ", ") + ")"
		}
		msg += "; close ownership is part of the contract — fix the code or the table"
		diags = append(diags, Diagnostic{
			Analyzer: "chanlife",
			Pos:      u.Fset.Position(id.anchor),
			Message:  msg,
		})
	}
	return diags
}

// checkSignalSends diagnoses every send on a SignalOnly channel.
func checkSignalSends(u *Unit, byObj map[types.Object]*chanIdentity) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range u.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				send, ok := n.(*ast.SendStmt)
				if !ok {
					return true
				}
				obj := chanTargetObj(pkg, send.Chan)
				if obj == nil {
					return true
				}
				if id, ok := byObj[obj]; ok && id.contract.SignalOnly {
					diags = append(diags, Diagnostic{
						Analyzer: "chanlife",
						Pos:      u.Fset.Position(send.Pos()),
						Message: "send on signal-only channel " + id.contract.DisplayName() +
							"; receivers wait for the close, and a send after close panics — close it instead",
					})
				}
				return true
			})
		}
	}
	return diags
}

// chanDirectObj resolves a channel expression to its object like
// chanTargetObj, but refuses indexed accesses (done[i]): an element of
// a channel container has per-element identity the object-granularity
// may-analysis cannot track — a loop closing done[i] closes a different
// element each iteration, not the same channel twice. Indexed channels
// are covered by the close-site count and signal-purity checks instead.
func chanDirectObj(pkg *Package, e ast.Expr) types.Object {
	if _, ok := unwrapAlias(e).(*ast.IndexExpr); ok {
		return nil
	}
	return chanTargetObj(pkg, e)
}

// closedFact maps each contracted channel object to the position of a
// close that may already have executed on some path to this point.
type closedFact map[types.Object]token.Pos

func (f closedFact) with(obj types.Object, pos token.Pos) closedFact {
	out := make(closedFact, len(f)+1)
	for k, v := range f {
		out[k] = v
	}
	out[obj] = pos
	return out
}

// checkUseAfterClose runs the per-body may-analysis: a send to or a
// second close of a contracted channel reachable after a close on some
// path is a diagnostic at the offending statement.
func checkUseAfterClose(u *Unit, byObj map[types.Object]*chanIdentity) []Diagnostic {
	if len(byObj) == 0 {
		return nil
	}
	fx := Facts[closedFact]{
		Join: func(a, b closedFact) closedFact {
			if len(b) == 0 {
				return a
			}
			if len(a) == 0 {
				return b
			}
			out := make(closedFact, len(a)+len(b))
			for k, v := range a {
				out[k] = v
			}
			for k, v := range b {
				if prev, ok := out[k]; !ok || v < prev {
					out[k] = v
				}
			}
			return out
		},
		Equal: func(a, b closedFact) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if _, ok := b[k]; !ok {
					return false
				}
			}
			return true
		},
		Transfer: nil, // set below, needs pkg
	}

	var diags []Diagnostic
	for _, pkg := range u.Pkgs {
		pkg := pkg
		fx.Transfer = func(f closedFact, n ast.Node) closedFact {
			forEachShallowClose(pkg, n, func(obj types.Object, pos token.Pos) {
				if _, contracted := byObj[obj]; contracted {
					f = f.with(obj, pos)
				}
			})
			return f
		}
		visitBody := func(body *ast.BlockStmt) {
			cfg := BuildCFG(body)
			ins := Forward(cfg, closedFact{}, fx)
			VisitWithFacts(cfg, ins, fx, func(f closedFact, n ast.Node) {
				if len(f) == 0 {
					return
				}
				if send, ok := n.(*ast.SendStmt); ok {
					obj := chanDirectObj(pkg, send.Chan)
					if pos, closed := f[obj]; obj != nil && closed {
						diags = append(diags, Diagnostic{
							Analyzer: "chanlife",
							Pos:      u.Fset.Position(send.Pos()),
							Message: "send to " + byObj[obj].contract.DisplayName() +
								" may follow its close at line " + strconv.Itoa(u.Fset.Position(pos).Line) +
								"; a send on a closed channel panics",
						})
					}
					return
				}
				forEachShallowClose(pkg, n, func(obj types.Object, pos token.Pos) {
					if prev, closed := f[obj]; closed {
						if _, contracted := byObj[obj]; contracted {
							diags = append(diags, Diagnostic{
								Analyzer: "chanlife",
								Pos:      u.Fset.Position(pos),
								Message: "close of " + byObj[obj].contract.DisplayName() +
									" may follow an earlier close at line " + strconv.Itoa(u.Fset.Position(prev).Line) +
									"; a double close panics",
							})
						}
					}
				})
			})
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				forEachRoot(fd.Body, visitBody)
			}
		}
	}
	return diags
}

// forEachShallowClose finds close(...) calls on directly-named channels
// syntactically inside n, not descending into function literals (a
// literal's body is its own analysis root and runs under a different
// dynamic context) and skipping indexed accesses (see chanDirectObj).
func forEachShallowClose(pkg *Package, n ast.Node, visit func(obj types.Object, pos token.Pos)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "close" || len(call.Args) != 1 {
			return true
		}
		if obj := chanDirectObj(pkg, call.Args[0]); obj != nil {
			visit(obj, call.Pos())
		}
		return true
	})
}

// checkFieldCoverage diagnoses channel-typed struct fields in
// contracted packages that have no ChannelContract entry.
func checkFieldCoverage(u *Unit, table []ChannelContract) []Diagnostic {
	var scopes []string
	for i := range table {
		scopes = append(scopes, table[i].Pkg)
	}
	var diags []Diagnostic
	for _, pkg := range u.Pkgs {
		if !inScope(pkg.Path, scopes) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if _, isChan := f.Type().Underlying().(*types.Chan); !isChan {
					continue
				}
				if channelContractFor(table, pkg.Path, name, f.Name()) == nil {
					diags = append(diags, Diagnostic{
						Analyzer: "chanlife",
						Pos:      u.Fset.Position(f.Pos()),
						Message: "channel field " + name + "." + f.Name() +
							" has no ChannelContract entry; declare its close owner in the table (Closers: 0 if nobody closes it)",
					})
				}
			}
		}
	}
	return diags
}

// channelContractFor finds the table entry covering pkgPath's
// typeName.fieldName, if any.
func channelContractFor(table []ChannelContract, pkgPath, typeName, fieldName string) *ChannelContract {
	for i := range table {
		c := &table[i]
		if c.Field == "" {
			continue
		}
		if c.Type == typeName && c.Field == fieldName && inScope(pkgPath, []string{c.Pkg}) {
			return c
		}
	}
	return nil
}
