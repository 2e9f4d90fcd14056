// Package registry holds the module's declaration-level rules as tables,
// checked against one go/parser walk (no type-checking) of every non-test
// Go file of the module, benchmark/ included:
//
//   - spawnSites: each `go` statement belongs to a row, keyed by file and
//     enclosing function, that names the test proving those goroutines
//     end (a settle-and-compare on runtime.NumGoroutine in that package)
//     or states why none is needed;
//   - singleDefs: each shared policy, the latency histogram and the
//     placement index is declared exactly once in the module, in its
//     home file;
//   - forbiddenDecls: the private re-implementations the data planes
//     used to grow are declared nowhere but their allowed package;
//   - sync.Pool is named only in internal/pool, whose API carries the
//     pool ownership contract by type;
//   - wallClockSites: the deterministic packages read the wall clock
//     (time.Now, time.Since) only in the rows' functions, which measure
//     the host and feed no decision.
//
// Adding, moving or removing a `go` statement or a guarded declaration
// fails a test naming its file and row until the table says so. The
// package has no non-test files.
package registry

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// spawnSite is one function's `go` statements. Exactly one of test and
// reason is set: test names a Test function in the file's own package.
type spawnSite struct {
	file, fn string // module-relative file, enclosing function declaration
	count    int
	test     string
	reason   string
}

var spawnSites = []spawnSite{
	{"internal/gateway/gateway.go", "newServer", 1, "TestCloseJoinsPacer", ""},
	{"internal/cluster/fanout.go", "startFitPool", 1, "TestFitPoolCloseStopsWorkers", ""},
	{"internal/loadgen/loadgen.go", "runClosed", 1, "TestRunLeavesNoGoroutines", ""},
	{"internal/loadgen/loadgen.go", "runOpen", 1, "TestRunLeavesNoGoroutines", ""},
	{"internal/bench/runner.go", "RunStream", 2, "TestRunnerLeavesNoGoroutines", ""},
	{"internal/bench/runner.go", "parallelFor", 1, "TestRunnerLeavesNoGoroutines", ""},
	{"cmd/infless-gateway/main.go", "main", 1, "",
		"process lifetime: main joins the serve goroutine through the buffered errCh"},
	{"benchmark/gateway.go", "drive", 1, "",
		"frozen harness: wg.Wait in the same function joins the callers"},
	{"benchmark/layers.go", "churnFunctions", 1, "",
		"frozen harness: wg.Wait in the same function joins the churner"},
}

// singleDef says the declaration kind ("func", "type" or "method", the
// latter by receiver base type) named name exists exactly once in the
// module, in file.
type singleDef struct {
	kind, recv, name, file, why string
}

var singleDefs = []singleDef{
	{"func", "", "BatchTimeout", "internal/runtime/runtime.go",
		"the Eq. 1 batch-timeout policy is shared by both data planes"},
	{"func", "", "ScaleAheadTarget", "internal/runtime/runtime.go",
		"the alpha scale-ahead sizing rule is shared by both data planes"},
	{"type", "", "RateEstimator", "internal/runtime/rate.go",
		"one arrival-rate estimator serves the simulator and the gateway"},
	{"type", "", "Histogram", "internal/metrics/histogram.go",
		"every latency quantile in the tree comes from the log-bucketed histogram"},
	{"method", "Histogram", "Quantile", "internal/metrics/histogram.go",
		"Report figures, Prometheus buckets and JSON snapshots share one quantile estimator"},
	{"type", "", "freeIndex", "internal/cluster/index.go",
		"placement queries go through the one free-capacity index"},
	{"method", "Cluster", "BestFit", "internal/cluster/cluster.go",
		"best-fit placement has one implementation, backed by the shard indexes"},
	{"type", "", "shard", "internal/cluster/shard.go",
		"the partitioned resource view is defined once, next to its merge rule"},
	{"method", "Cluster", "BestFitShards", "internal/cluster/shard.go",
		"the deterministic shard merge (least key, lowest id on ties) has one implementation"},
	{"type", "", "FitPool", "internal/cluster/fanout.go",
		"the parallel shard fan-out and its chunk merge live with the shard layout"},
	{"type", "", "RateStripes", "internal/runtime/rates.go",
		"one per-function rate map serves the engine on both planes"},
	{"type", "", "planeRing", "internal/runtime/rates.go",
		"the plane-wide arrival aggregate has one implementation"},
	{"func", "", "Legacy", "internal/artifact/artifact.go",
		"the scalar 900ms+MB/220MBps cold-start formula has one home; sim calls it"},
	{"type", "", "Hierarchy", "internal/artifact/artifact.go",
		"the per-tier bandwidth/latency model is defined once, next to its tier enum"},
	{"type", "", "Cache", "internal/artifact/cache.go",
		"one deterministic per-server artifact LRU serves the engine on both planes"},
}

// forbiddenDecl says no declaration of kind and name exists outside the
// package scope pkg.
type forbiddenDecl struct {
	kind, name, pkg, why string
}

var forbiddenDecls = []forbiddenDecl{
	{"func", "batchTimeout", "internal/runtime", "lifecycle policy helpers live in internal/runtime only"},
	{"type", "rateEstimator", "internal/runtime", "lifecycle policy helpers live in internal/runtime only"},
	{"type", "fitPool", "internal/cluster", "shard fan-out pools live next to the merge they depend on"},
	{"type", "artifactCache", "internal/artifact", "artifact residency tracking has one implementation; planes hold an artifact.Cache"},
	{"type", "tierSpec", "internal/artifact", "per-tier bandwidth/latency tables live in internal/artifact only"},
}

// wallClockScopes are the packages whose behaviour must not depend on
// the wall clock: the packages under the byte-identical determinism
// guarantee (the simulator runs real scheduling code against simulated
// machines) plus the policy, ledger and model packages the simulator
// runs. The gateway and the load generator live in wall time and are not
// listed.
var wallClockScopes = []string{
	"internal/artifact", "internal/sim", "internal/simclock", "internal/scheduler",
	"internal/cluster", "internal/batching", "internal/queueing", "internal/runtime",
	"internal/workload", "internal/bench",
	"internal/baselines", "internal/coldstart", "internal/core", "internal/metrics",
	"internal/model", "internal/perf", "internal/profiler", "internal/telemetry",
}

// wallClockSite is one function of wallClockScopes that reads the wall
// clock, with its number of reads and why the read decides nothing.
type wallClockSite struct {
	file, fn string
	count    int
	why      string
}

var wallClockSites = []wallClockSite{
	{"internal/bench/runner.go", "RunStream", 4,
		"RunResult.Took reports each experiment's host time; no table reads it"},
	{"internal/bench/scale.go", "Fig17a", 2,
		"fig17a measures Schedule's host time; the runner runs it alone"},
}

// poolHome is the one package that may name sync.Pool: pool.Of's
// handle, cleared by Put, is the ownership contract.
const poolHome = "internal/pool"

// decl is one top-level declaration, or (kind "sync.Pool") one mention
// of sync.Pool, at pos ("file:line").
type decl struct {
	kind, recv, name, file, pos string
}

// tree is what the walk of the module's non-test files yields.
type tree struct {
	spawns map[[2]string]int // `go` statements by file and enclosing function
	clock  map[[2]string]int // time.Now and time.Since by file and enclosing function
	decls  []decl
}

// moduleTree parses the module once for every table in this file.
var moduleTree = sync.OnceValues(func() (*tree, error) {
	root, err := findModuleRoot(".")
	if err != nil {
		return nil, err
	}
	return parseModule(root)
})

// findModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("registry: no go.mod found above %s", dir)
		}
		abs = parent
	}
}

func repoRootT(t *testing.T) string {
	t.Helper()
	root, err := findModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// packageDirs lists the directories under root holding non-test Go
// files, skipping testdata, vendor, hidden and underscore directories.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if paths, err := goFiles(path, false); err == nil && len(paths) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// inScope reports whether the module-relative path p falls under any of
// scopes. Matching is by path segment, so the scope "internal/sim" covers
// internal/sim and internal/sim/foo but not internal/simclock.
func inScope(p string, scopes []string) bool {
	p = "/" + p + "/"
	for _, s := range scopes {
		if strings.Contains(p, "/"+s+"/") {
			return true
		}
	}
	return false
}

// parseModule walks the non-test files of the module rooted at root.
func parseModule(root string) (*tree, error) {
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	tr := &tree{spawns: map[[2]string]int{}, clock: map[[2]string]int{}}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		paths, err := goFiles(dir, false)
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			rel, err := filepath.Rel(root, p)
			if err != nil {
				return nil, err
			}
			src, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			f, err := parser.ParseFile(fset, filepath.ToSlash(rel), src, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			tr.add(fset, f)
		}
	}
	return tr, nil
}

func parsedTree(t *testing.T) *tree {
	t.Helper()
	tr, err := moduleTree()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// add records f's `go` statements and wall-clock reads (one inside a
// function literal counts toward the declaration that holds the literal,
// or "package scope" for a variable's), its top-level declarations and
// its mentions of sync.Pool, under whatever names the file imports sync
// and time as.
func (tr *tree) add(fset *token.FileSet, f *ast.File) {
	file := fset.Position(f.Pos()).Filename
	at := func(n ast.Node) string { return fmt.Sprintf("%s:%d", file, fset.Position(n.Pos()).Line) }
	syncName, timeName := "", ""
	for _, imp := range f.Imports {
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
		}
		switch imp.Path.Value {
		case `"sync"`:
			syncName = cmp.Or(name, "sync")
			if syncName == "." {
				tr.decls = append(tr.decls, decl{"sync.Pool", "", "Pool", file, at(imp)})
			}
		case `"time"`:
			timeName = cmp.Or(name, "time")
		}
	}
	for _, d := range f.Decls {
		fn := "package scope"
		switch d := d.(type) {
		case *ast.FuncDecl:
			fn = d.Name.Name
			kind, recv := "func", ""
			if d.Recv != nil && len(d.Recv.List) > 0 {
				kind, recv = "method", recvBaseName(d.Recv.List[0].Type)
			}
			tr.decls = append(tr.decls, decl{kind, recv, d.Name.Name, file, at(d)})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					tr.decls = append(tr.decls, decl{"type", "", ts.Name.Name, file, at(ts)})
				}
			}
		}
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				tr.spawns[[2]string{file, fn}]++
			case *ast.SelectorExpr:
				x, ok := n.X.(*ast.Ident)
				switch {
				case !ok:
				case x.Name == syncName && n.Sel.Name == "Pool":
					tr.decls = append(tr.decls, decl{"sync.Pool", "", "Pool", file, at(n)})
				case x.Name == timeName && (n.Sel.Name == "Now" || n.Sel.Name == "Since"):
					tr.clock[[2]string{file, fn}]++
				}
			case *ast.Ident:
				if timeName == "." && (n.Name == "Now" || n.Name == "Since") {
					tr.clock[[2]string{file, fn}]++
				}
			}
			return true
		})
	}
}

// declProblems checks the singleDefs, forbiddenDecls and sync.Pool rules
// and returns one line per violation, naming the file and the row.
func (tr *tree) declProblems() []string {
	var problems []string
	for _, row := range singleDefs {
		name := row.name
		if row.recv != "" {
			name = row.recv + "." + name
		}
		var at []string
		home := 0
		for _, d := range tr.decls {
			if d.kind == row.kind && d.recv == row.recv && d.name == row.name {
				at = append(at, d.pos)
				if d.file == row.file {
					home++
				}
			}
		}
		if len(at) != 1 || home != 1 {
			problems = append(problems, fmt.Sprintf("%s %s is declared at %v; singleDefs wants it exactly once, in %s (%s)",
				row.kind, name, at, row.file, row.why))
		}
	}
	for _, d := range tr.decls {
		dir := path.Dir(d.file)
		if d.kind == "sync.Pool" && !inScope(dir, []string{poolHome}) {
			problems = append(problems, d.pos+": sync.Pool may be named only in "+poolHome+"; pool objects through pool.Of")
		}
		for _, row := range forbiddenDecls {
			if d.kind == row.kind && d.name == row.name && !inScope(dir, []string{row.pkg}) {
				problems = append(problems, fmt.Sprintf("%s: %s %s is declared outside %s, against forbiddenDecls (%s)",
					d.pos, d.kind, d.name, row.pkg, row.why))
			}
		}
	}
	return problems
}

// clockProblems checks the wall-clock reads of wallClockScopes against
// wallClockSites and returns one line per function that differs.
func (tr *tree) clockProblems() []string {
	var problems []string
	allowed := map[[2]string]int{}
	for _, row := range wallClockSites {
		allowed[[2]string{row.file, row.fn}] = row.count
	}
	for key, n := range tr.clock {
		if inScope(path.Dir(key[0]), wallClockScopes) && n != allowed[key] {
			problems = append(problems, fmt.Sprintf("%s: %s reads the wall clock %d times; wallClockSites allows %d "+
				"(a deterministic package must not depend on host time)", key[0], key[1], n, allowed[key]))
		}
	}
	for _, row := range wallClockSites {
		if n := tr.clock[[2]string{row.file, row.fn}]; n == 0 {
			problems = append(problems, fmt.Sprintf("%s: %s reads no wall clock; drop its wallClockSites row", row.file, row.fn))
		}
	}
	slices.Sort(problems)
	return problems
}

// recvBaseName unwraps a receiver type expression to its base type name
// (handles pointers and generic instantiations like *Pool[T]).
func recvBaseName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// goFiles lists dir's .go files: the test files when tests is set, the
// others otherwise.
func goFiles(dir string, tests bool) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && strings.HasSuffix(name, "_test.go") == tests {
			paths = append(paths, filepath.Join(dir, name))
		}
	}
	return paths, nil
}

// hasTestFunc reports whether one of dir's _test.go files declares a
// top-level function named name.
func hasTestFunc(t *testing.T, dir, name string) bool {
	t.Helper()
	paths, err := goFiles(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
				return true
			}
		}
	}
	return false
}

func TestSpawnSitesAreJoined(t *testing.T) {
	root := repoRootT(t)
	got := parsedTree(t).spawns
	want := map[[2]string]int{}
	for _, s := range spawnSites {
		want[[2]string{s.file, s.fn}] += s.count
		switch {
		case (s.test == "") == (s.reason == ""):
			t.Errorf("%s %s: a row names a joining test or states a reason, exactly one", s.file, s.fn)
		case s.test != "" && !hasTestFunc(t, filepath.Join(root, filepath.Dir(s.file)), s.test):
			t.Errorf("%s %s: joining test %s is not declared in %s's _test.go files", s.file, s.fn, s.test, filepath.Dir(s.file))
		}
	}
	for site, n := range got {
		if want[site] != n {
			t.Errorf("%s: %s has %d go statement(s), spawnSites says %d; its row must name the test that joins them",
				site[0], site[1], n, want[site])
		}
	}
	for site, n := range want {
		if _, ok := got[site]; !ok {
			t.Errorf("%s: %s has no go statement, spawnSites says %d; delete or move its row", site[0], site[1], n)
		}
	}
}

// TestSingleDefProductionTables holds the live tree to singleDefs,
// forbiddenDecls and the sync.Pool rule.
func TestSingleDefProductionTables(t *testing.T) {
	for _, p := range parsedTree(t).declProblems() {
		t.Error(p)
	}
}

func TestNoWallClockInDeterministicPackages(t *testing.T) {
	for _, p := range parsedTree(t).clockProblems() {
		t.Error(p)
	}
}

// TestNoWallClockMutants adds one file reading the wall clock to the
// parsed tree at a time and expects exactly one problem naming it.
func TestNoWallClockMutants(t *testing.T) {
	base := parsedTree(t)
	for _, c := range []struct{ file, src string }{
		{"internal/scheduler/zz_mutant.go",
			"package scheduler\n\nimport \"time\"\n\nfunc (p *Plan) zz() bool { return time.Now().IsZero() }\n"},
		{"internal/sim/zz_mutant.go",
			"package sim\n\nimport clock \"time\"\n\nvar zz = clock.Since\n"},
		{"internal/core/zz_mutant.go",
			"package core\n\nimport . \"time\"\n\nfunc zz() { _ = Now() }\n"},
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, c.file, c.src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		mut := &tree{spawns: map[[2]string]int{}, clock: maps.Clone(base.clock)}
		mut.add(fset, f)
		got := mut.clockProblems()
		if len(got) != 1 || !strings.HasPrefix(got[0], c.file+":") {
			t.Errorf("%s: want one problem naming the file, got %q", c.src, got)
		}
	}
}

// TestDriverSeededHomeTypes walks a small module on disk with the
// driver's package discovery: of the five files naming sync.Pool, only
// the one in internal/loadgen is reported, by root-relative file and
// line; internal/pool is the home, and the walk skips _test.go files,
// testdata and underscore directories.
func TestDriverSeededHomeTypes(t *testing.T) {
	root := t.TempDir()
	const body = "\n\nimport \"sync\"\n\nvar zzPool sync.Pool\n"
	for _, file := range []string{
		"internal/pool/pool.go",
		"internal/loadgen/loadgen.go",
		"internal/loadgen/loadgen_test.go",
		"internal/loadgen/testdata/x/x.go",
		"internal/loadgen/_old/x.go",
	} {
		p := filepath.Join(root, filepath.FromSlash(file))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("package "+path.Base(path.Dir(file))+body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := parseModule(root)
	if err != nil {
		t.Fatal(err)
	}
	got := slices.DeleteFunc(tr.declProblems(), func(p string) bool { return !strings.Contains(p, "sync.Pool may be named") })
	want := "internal/loadgen/loadgen.go:5: sync.Pool may be named only in internal/pool"
	if len(got) != 1 || !strings.HasPrefix(got[0], want) {
		t.Fatalf("seeded home-type violation: want one problem starting %q, got %q", want, got)
	}
}

// TestSingleDef adds one mutant file to the parsed tree at a time and
// expects exactly one problem, naming the file and the row it breaks.
func TestSingleDef(t *testing.T) {
	base := parsedTree(t)
	for _, c := range []struct{ file, src, want string }{
		{"internal/sim/zz_mutant.go", "package sim\n\nfunc BatchTimeout() {}\n", "func BatchTimeout"},
		{"internal/sim/zz_mutant.go", "package sim\n\nfunc (h *Histogram) Quantile() {}\n", "method Histogram.Quantile"},
		{"internal/scheduler/zz_mutant.go", "package scheduler\n\ntype shard struct{}\n", "type shard"},
		{"internal/gateway/zz_mutant.go", "package gateway\n\ntype rateEstimator struct{}\n", "type rateEstimator"},
		{"internal/loadgen/zz_mutant.go", "package loadgen\n\nimport s \"sync\"\n\nvar zzPool s.Pool\n", "sync.Pool"},
		{"internal/loadgen/zz_mutant.go", "package loadgen\n\nimport . \"sync\"\n\nvar zzPool Pool\n", "sync.Pool"},
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, c.file, c.src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		mut := &tree{spawns: map[[2]string]int{}, decls: slices.Clone(base.decls)}
		mut.add(fset, f)
		got := mut.declProblems()
		if len(got) != 1 || !strings.Contains(got[0], c.file) || !strings.Contains(got[0], c.want) {
			t.Errorf("%s: want one problem naming the file and %q, got %q", c.src, c.want, got)
		}
	}
}
