package analysis

// spawn_test.go accounts for every goroutine the module spawns. Each
// `go` statement in non-test code belongs to a row of spawnSites, keyed
// by file and enclosing function, and each row names the test that
// proves those goroutines end (a settle-and-compare on
// runtime.NumGoroutine in that package) or states why none is needed.
// Adding, moving or removing a `go` statement fails
// TestSpawnSitesAreJoined until its row says how the new goroutine is
// joined.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
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
	{"internal/analysis/analysis.go", "RunAllDetail", 1, "TestRunAllLeavesNoGoroutines", ""},
	{"cmd/infless-gateway/main.go", "main", 1, "",
		"process lifetime: main joins the serve goroutine through the buffered errCh"},
	{"benchmark/gateway.go", "drive", 1, "",
		"frozen harness: wg.Wait in the same function joins the callers"},
	{"benchmark/layers.go", "churnFunctions", 1, "",
		"frozen harness: wg.Wait in the same function joins the churner"},
}

// goStatements parses every non-test file the lint loader would load
// and counts `go` statements by file and enclosing function declaration
// (a statement inside a function literal counts toward the declaration
// that holds the literal, or "package scope" for a variable's).
func goStatements(t *testing.T, root string) map[[2]string]int {
	t.Helper()
	dirs, err := packageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	counts := map[[2]string]int{}
	for _, dir := range dirs {
		for _, path := range goFiles(t, dir, false) {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn := "package scope"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					fn = fd.Name.Name
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if _, ok := n.(*ast.GoStmt); ok {
						counts[[2]string{filepath.ToSlash(rel), fn}]++
					}
					return true
				})
			}
		}
	}
	return counts
}

// goFiles lists dir's .go files: the test files when tests is set, the
// others otherwise.
func goFiles(t *testing.T, dir string, tests bool) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && strings.HasSuffix(name, "_test.go") == tests {
			paths = append(paths, filepath.Join(dir, name))
		}
	}
	return paths
}

// hasTestFunc reports whether one of dir's _test.go files declares a
// top-level function named name.
func hasTestFunc(t *testing.T, dir, name string) bool {
	t.Helper()
	fset := token.NewFileSet()
	for _, path := range goFiles(t, dir, true) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
				return true
			}
		}
	}
	return false
}

func TestSpawnSitesAreJoined(t *testing.T) {
	root := repoRootT(t)
	got := goStatements(t, root)
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

// TestRunAllLeavesNoGoroutines: RunAll joins the goroutine it runs each
// analyzer on before it returns.
func TestRunAllLeavesNoGoroutines(t *testing.T) {
	u := loadCorpus(t, "hotalloc/bad", "github.com/tanklab/infless/internal/gateway/habad")
	base := runtime.NumGoroutine()
	if diags := RunAll(u, Analyzers()); len(diags) == 0 {
		t.Fatal("the hotalloc bad corpus produced no diagnostics")
	}
	deadline := time.Now().Add(5 * time.Second)
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
