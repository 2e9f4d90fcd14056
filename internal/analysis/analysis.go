// Package analysis is infless-lint: a standard-library-only static
// analysis suite (go/parser + go/types, no external analysis framework)
// that enforces the invariants the platform's correctness rests on —
// the §5.3 byte-identical determinism guarantee of the simulation
// packages and the single-sourcing of runtime policies extracted in the
// shared internal/runtime layer.
//
// Eight analyzers run over the whole module. Five are syntactic or
// type-based:
//
//   - wallclock:      no wall-clock time or global math/rand in the
//     deterministic packages; time flows through simclock, randomness
//     through seeded *rand.Rand sources.
//   - maporder:       no map iteration that feeds ordered output
//     (slice appends, printed/written output, float accumulation)
//     unless the keys are sorted.
//   - singledef:      the lifecycle policies, the latency histogram and
//     the placement index are each defined exactly once, in their home
//     file (the AST-level replacement for check.sh's old grep guards),
//     and the HomeTypes (sync's Pool) are named only inside
//     internal/pool, whose API carries the pool ownership contract by
//     type; driven by the declarative tables in invariants.go.
//   - serverscan:     the scheduler never scans Cluster.EachServer;
//     placement goes through the free-capacity index (BestFit/FirstFit).
//   - lockedcallback: runtime.Observer callbacks and telemetry
//     Collector entry points are never invoked between a mutex Lock and
//     its Unlock in the gateway or telemetry packages.
//
// Two walk more than one function: hotalloc the static call graph
// (callgraph.go), errflow a per-function control-flow graph (cfg.go):
//
//   - hotalloc:       functions marked //lint:hotpath and everything
//     they reach in the call graph contain no allocating constructs
//     (composite literals, make/new, closures, fmt, string
//     concatenation, interface boxing); //lint:coldpath stops the
//     descent at deliberate slow paths.
//   - errflow:        control-plane packages never silently drop error
//     results, whether discarded at the call or assigned to a variable
//     no path reads.
//
// One covers the goroutines the module spawns:
//
//   - goroutinelife:  every `go` statement has a provable termination
//     path — the spawned body selects or receives on a stop channel
//     somebody closes (or ctx.Done()), ranges over a channel with a
//     resolved close owner, or runs a bounded loop; a send from a
//     spawned goroutine on an unbuffered local channel whose receiver
//     sits in a multi-arm select is the classic timeout-path leak and
//     is diagnosed.
//
// What the suite does not police is held elsewhere: lock order by there
// being one mutex per package (the import DAG orders the rest), channel
// close discipline by receive-only types and sync.OnceFunc, context
// cancellation by go vet's lostcancel (DESIGN.md §10 has the table).
//
// A finding can be suppressed with a directive on the same line or the
// line above:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; an empty reason is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding, rendered as "file:line:col: [name] message".
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one type-checked package of the unit under analysis.
type Package struct {
	Path  string // import path (or the override a test loaded it under)
	Dir   string // directory relative to the module root
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Unit is the whole program the analyzers see. Analyzers receive the
// full unit (not one package at a time) because single-definition
// checks are inherently whole-program.
type Unit struct {
	Fset *token.FileSet
	Pkgs []*Package

	// Invariants and Forbidden override the production tables from
	// invariants.go; nil means production. Tests point them at testdata.
	Invariants []SingleDef
	Forbidden  []ForbiddenDecl
}

// Analyzer is one named check over a Unit.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(u *Unit) []Diagnostic
}

// inScope reports whether pkgPath falls under any of the given
// module-relative package scopes. Matching is by path segment, so the
// scope "internal/sim" covers internal/sim and internal/sim/foo but not
// internal/simclock, and works regardless of the module prefix.
func inScope(pkgPath string, scopes []string) bool {
	p := "/" + pkgPath + "/"
	for _, s := range scopes {
		if strings.Contains(p, "/"+s+"/") {
			return true
		}
	}
	return false
}

// deterministicScopes are the packages under the byte-identical
// determinism guarantee: the simulator runs real scheduling code against
// simulated machines, so any wall-clock read or unordered iteration here
// silently breaks -parallel N == -parallel 1.
var deterministicScopes = []string{
	"internal/artifact",
	"internal/sim",
	"internal/simclock",
	"internal/scheduler",
	"internal/cluster",
	"internal/batching",
	"internal/queueing",
	"internal/runtime",
	"internal/workload",
	"internal/bench",
}

// ignoreDirective is one parsed //lint:ignore comment. line is the
// source line it suppresses: its own line for a trailing directive, the
// next line for a directive standing on a line of its own.
type ignoreDirective struct {
	name   string
	reason string
	file   string
	line   int
	pos    token.Position // the directive's own position, for unused reports
}

const directivePrefix = "lint:ignore"

// directives collects every //lint:ignore in the unit, emitting a
// diagnostic for each directive with a missing analyzer name or an
// empty reason (suppression without a recorded justification is exactly
// the silent rot the suite exists to prevent).
func directives(u *Unit) ([]ignoreDirective, []Diagnostic) {
	var dirs []ignoreDirective
	var diags []Diagnostic
	for _, pkg := range u.Pkgs {
		for _, f := range pkg.Files {
			code := codeLines(u.Fset, f)
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, directivePrefix) {
						continue
					}
					rest := strings.TrimSpace(strings.TrimPrefix(text, directivePrefix))
					name, reason, _ := strings.Cut(rest, " ")
					reason = strings.TrimSpace(reason)
					pos := u.Fset.Position(c.Pos())
					if name == "" || reason == "" {
						diags = append(diags, Diagnostic{
							Analyzer: "directive",
							Pos:      pos,
							Message:  "//lint:ignore needs an analyzer name and a non-empty reason: //lint:ignore <analyzer> <reason>",
						})
						continue
					}
					line := pos.Line
					if !code[line] {
						line++ // own-line directive covers the line below
					}
					dirs = append(dirs, ignoreDirective{name: name, reason: reason, file: pos.Filename, line: line, pos: pos})
				}
			}
		}
	}
	return dirs, diags
}

// codeLines returns the set of lines carrying non-comment tokens, used
// to tell a trailing directive from one standing on its own line.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		}
		if n.Pos().IsValid() {
			lines[fset.Position(n.Pos()).Line] = true
		}
		if n.End().IsValid() {
			lines[fset.Position(n.End()).Line] = true
		}
		return true
	})
	return lines
}

// splitIgnored partitions diagnostics into active and suppressed, and
// records which directives suppressed something.
func splitIgnored(diags []Diagnostic, dirs []ignoreDirective) (active, suppressed []Diagnostic, used []bool) {
	type key struct {
		file string
		line int
		name string
	}
	idx := map[key]int{}
	for i, d := range dirs {
		idx[key{d.file, d.line, d.name}] = i
	}
	used = make([]bool, len(dirs))
	for _, d := range diags {
		if i, ok := idx[key{d.Pos.Filename, d.Pos.Line, d.Analyzer}]; ok {
			used[i] = true
			suppressed = append(suppressed, d)
			continue
		}
		active = append(active, d)
	}
	return active, suppressed, used
}

// RunAllDetail runs the analyzers over the unit and applies
// //lint:ignore suppressions, returning both the surviving diagnostics
// (including malformed- and unused-directive findings) and the
// suppressed ones, each sorted by position. A directive naming one of
// the run analyzers that suppresses nothing is itself a diagnostic —
// dead suppressions outlive the code they excused and hide the next
// real finding on that line. Directives naming analyzers outside the
// run set are left alone so partial runs stay quiet.
func RunAllDetail(u *Unit, analyzers []*Analyzer) (active, suppressed []Diagnostic) {
	// The analyzers run concurrently — each is a pure function of the
	// (immutable once loaded) unit — with the same discipline as
	// bench.RunStream: results land in slots keyed by input index and
	// are folded in input order, so parallelism changes wall clock and
	// nothing else.
	results := make([][]Diagnostic, len(analyzers))
	var wg sync.WaitGroup
	for i, a := range analyzers {
		wg.Add(1)
		go func(i int, a *Analyzer) {
			defer wg.Done()
			results[i] = a.Run(u)
		}(i, a)
	}
	wg.Wait()
	var all []Diagnostic
	names := map[string]bool{}
	for i, a := range analyzers {
		names[a.Name] = true
		all = append(all, results[i]...)
	}
	dirs, dirDiags := directives(u)
	active, suppressed, used := splitIgnored(all, dirs)
	active = append(active, dirDiags...)
	for i, d := range dirs {
		if used[i] || !names[d.name] {
			continue
		}
		active = append(active, Diagnostic{
			Analyzer: "directive",
			Pos:      d.pos,
			Message:  "//lint:ignore " + d.name + " suppresses nothing; remove the stale directive",
		})
	}
	sortDiags(active)
	sortDiags(suppressed)
	return active, suppressed
}

// RunAll is RunAllDetail without the suppressed half.
func RunAll(u *Unit, analyzers []*Analyzer) []Diagnostic {
	active, _ := RunAllDetail(u, analyzers)
	return active
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Analyzers returns the full infless-lint suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WallclockAnalyzer,
		MapOrderAnalyzer,
		SingleDefAnalyzer,
		ServerScanAnalyzer,
		LockedCallbackAnalyzer,
		HotAllocAnalyzer,
		ErrFlowAnalyzer,
		GoroutineLifeAnalyzer,
	}
}

// funcOf resolves a call's callee to a *types.Func, or nil (builtins,
// type conversions, calls through function-typed variables).
func funcOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// recvNamed returns the named type of a method's receiver, unwrapping
// pointers, or nil for package-level functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n
	}
	return nil
}

// unwrapExpr strips the expression wrappers that still name the same
// storage: parens, pointer derefs (the pointee is the same object), and
// slice expressions (the sub-slice shares the backing array).
func unwrapExpr(e ast.Expr) ast.Expr {
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
