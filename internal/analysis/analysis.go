// Package analysis is infless-lint: a standard-library-only static
// analysis suite (go/parser + go/types, no external analysis framework)
// for the defects no test catches: an unordered map walk in the
// deterministic packages, an allocation on a zero-alloc path.
//
// Two analyzers run over the whole module:
//
//   - maporder: no map iteration that feeds ordered output (slice
//     appends, printed/written output, float accumulation) in the
//     deterministic packages unless the keys are sorted.
//   - hotalloc: functions marked //lint:hotpath and everything they
//     reach in the static call graph (callgraph.go) contain no
//     allocating constructs (composite literals, make/new, closures,
//     fmt, string concatenation, interface boxing); //lint:coldpath
//     stops the descent at deliberate slow paths.
//
// What the suite does not police is held elsewhere (DESIGN.md §10 has
// the table): wall-clock values and global math/rand in the simulator by
// the determinism tests (bench.TestParallelAllDeterministic,
// gateway.TestDriverEquivalence, sim.TestExecMemoMatchesExecTime) and
// the sim_fleet repetition digest, and any wall-clock read in the
// deterministic packages outside two host-time measurements by the
// go/parser registry in registry_test.go (wallClockSites); scheduler
// scans of the server list by
// hotalloc on the Schedule path; single definitions, private policy
// re-implementations and sync.Pool outside internal/pool by the
// go/parser registry in registry_test.go, which also holds every `go`
// statement to the leak test that joins it; lock order by there being
// one mutex per package (the import DAG orders the rest); channel close
// discipline by receive-only types and sync.OnceFunc; context
// cancellation by go vet's lostcancel; the gateway client's dropped
// Body.Close errors by gateway.TestClientReturnsBodyCloseError.
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
// full unit (not one package at a time) because hotalloc's call graph
// crosses packages.
type Unit struct {
	Fset *token.FileSet
	Pkgs []*Package
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
// simulated machines, so an unordered iteration here silently breaks
// -parallel N == -parallel 1.
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
	var all []Diagnostic
	names := map[string]bool{}
	for _, a := range analyzers {
		names[a.Name] = true
		all = append(all, a.Run(u)...)
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
	return []*Analyzer{MapOrderAnalyzer, HotAllocAnalyzer}
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
