package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

var (
	update = flag.Bool("update", false, "rewrite the lines of "+figureDigestFile+" this run renders")
	fig11  = flag.Bool("fig11", false, "run TestFig11Digest (make figures-check)")
)

// figureDigestFile pins every experiment's quick-mode, seed-1 table (as
// renderAll returns it) to a SHA-256, so a change that moves any figure
// fails TestParallelAllDeterministic by name.
const figureDigestFile = "testdata/figures.sha256"

// TestRunStreamOrdered: emission must follow input order with all
// results intact, regardless of which worker finishes first.
func TestRunStreamOrdered(t *testing.T) {
	var running int32
	var sawParallel, exclusiveViolated atomic.Bool
	exps := make([]Experiment, 24)
	for i := range exps {
		i := i
		wallClock := i == 11 // one exclusively-scheduled experiment mid-pack
		exps[i] = Experiment{
			ID:        fmt.Sprintf("exp%02d", i),
			WallClock: wallClock,
			Run: func(o Options) *Table {
				n := atomic.AddInt32(&running, 1)
				if n > 1 {
					sawParallel.Store(true)
					if wallClock {
						exclusiveViolated.Store(true)
					}
				}
				// Earlier experiments sleep longer, so without the ordering
				// barrier later ones would emit first.
				time.Sleep(time.Duration(len(exps)-i) * time.Millisecond)
				if wallClock && atomic.LoadInt32(&running) > 1 {
					exclusiveViolated.Store(true)
				}
				atomic.AddInt32(&running, -1)
				tb := newTable(fmt.Sprintf("exp%02d", i), "", []string{"seed"}, []string{"seed"})
				tb.Put("seed", val(float64(o.Seed), f0))
				return tb
			},
		}
	}
	var got []string
	RunStream(exps, Options{Seed: 42}, 8, func(r RunResult) {
		if r.Table.Value("seed", "seed") != 42 {
			t.Fatalf("experiment %s ran with wrong options", r.Experiment.ID)
		}
		got = append(got, r.Table.ID)
	})
	if len(got) != len(exps) {
		t.Fatalf("emitted %d results, want %d", len(got), len(exps))
	}
	for i, id := range got {
		if want := fmt.Sprintf("exp%02d", i); id != want {
			t.Fatalf("emission order broken at %d: got %s, want %s", i, id, want)
		}
	}
	if !sawParallel.Load() {
		t.Fatal("RunStream(workers=8) never ran two experiments concurrently")
	}
	if exclusiveViolated.Load() {
		t.Fatal("a WallClock experiment shared the pool with another experiment")
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 57
		hits := make([]int32, n)
		Options{Parallel: workers}.parallelFor(n, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

// leavesNoGoroutines runs f and fails unless it returns within the
// deadline and the goroutine count then settles back to its value
// before f ran, dumping all stacks on a leak.
func leavesNoGoroutines(t *testing.T, what string, f func()) {
	t.Helper()
	base := runtime.NumGoroutine()
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		f()
	}()
	deadline := time.Now().Add(5 * time.Second)
	select {
	case <-returned:
	case <-time.After(time.Until(deadline)):
		t.Fatalf("%s did not return: it waits on a worker that never exits", what)
	}
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%s leaked goroutines: %d live, baseline %d\n%s", what, n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunnerLeavesNoGoroutines: RunStream's workers and index feeder,
// and parallelFor's workers, are all gone when the call returns.
func TestRunnerLeavesNoGoroutines(t *testing.T) {
	exps := make([]Experiment, 6)
	for i := range exps {
		exps[i] = Experiment{ID: fmt.Sprintf("exp%d", i), Run: func(Options) *Table { return &Table{} }}
	}
	emitted := 0
	leavesNoGoroutines(t, "RunStream", func() {
		RunStream(exps, Options{}, 4, func(RunResult) { emitted++ })
	})
	if emitted != len(exps) {
		t.Fatalf("RunStream emitted %d results, want %d", emitted, len(exps))
	}
	var ran atomic.Int32
	leavesNoGoroutines(t, "parallelFor", func() {
		Options{Parallel: 4}.parallelFor(16, func(int) { ran.Add(1) })
	})
	if ran.Load() != 16 {
		t.Fatalf("parallelFor ran %d bodies, want 16", ran.Load())
	}
}

// renderAll runs every experiment at the given parallelism and returns
// the table and JSON renderings, in emission order. WallClock
// experiments (fig17a) have their measured cell values scrubbed first:
// host timings are not seed-derived, so the determinism contract covers
// their structure (id, title, columns, series names, notes) only.
func renderAll(t *testing.T, exps []Experiment, parallel int) (tables, jsons []string) {
	t.Helper()
	opts := Options{Quick: true, Seed: 1, Parallel: parallel}
	RunStream(exps, opts, parallel, func(r RunResult) {
		if r.Experiment.WallClock {
			for _, row := range r.Table.Rows {
				for i := range row.Cells {
					row.Cells[i] = "x"
				}
			}
		}
		tables = append(tables, r.Table.String())
		j, err := json.Marshal(r.Table)
		if err != nil {
			t.Fatal(err)
		}
		jsons = append(jsons, string(j))
	})
	return tables, jsons
}

// TestParallelAllDeterministic is the runner's contract: running the
// experiment suite with -parallel 8 must produce byte-identical output
// (both the table and -json renderings, in the same order) as -parallel
// 1. It is the determinism check for every experiment but fig11, whose
// runScenario path fig3b/12a/15/table4 share and which alone would more
// than double the run (TestFig11Digest holds its digest). -short (the
// race pass) keeps the sweep-fanning and large-scale experiments plus
// the exclusively-scheduled fig17a. Both hold each table they render to
// its digest in figureDigestFile; -update rewrites those lines.
func TestParallelAllDeterministic(t *testing.T) {
	var exps []Experiment
	if testing.Short() {
		for _, id := range []string{"fig16", "fig17a", "fig17b", "fig18a", "fig18b"} {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("unknown experiment %s", id)
			}
			exps = append(exps, e)
		}
	} else {
		for _, e := range All() {
			if e.ID != "fig11" {
				exps = append(exps, e)
			}
		}
	}
	serialTables, serialJSON := renderAll(t, exps, 1)
	parTables, parJSON := renderAll(t, exps, 8)
	if len(parTables) != len(serialTables) {
		t.Fatalf("parallel emitted %d tables, serial %d", len(parTables), len(serialTables))
	}
	for i := range serialTables {
		if parTables[i] != serialTables[i] {
			t.Errorf("%s: table rendering differs between -parallel 1 and -parallel 8:\nserial:\n%s\nparallel:\n%s",
				exps[i].ID, serialTables[i], parTables[i])
		}
		if parJSON[i] != serialJSON[i] {
			t.Errorf("%s: JSON rendering differs between -parallel 1 and -parallel 8", exps[i].ID)
		}
	}
	checkFigureDigests(t, exps, serialTables, !testing.Short())
}

// TestFig11Digest holds fig11, the paper's headline figure, to its line
// in figureDigestFile: one quick-mode, seed-1 render, ≈ 15 s on a 2-core
// host, so it runs only under -fig11 (make figures-check; make
// figures-update adds -update).
func TestFig11Digest(t *testing.T) {
	if !*fig11 {
		t.Skip("fig11 renders only under -fig11: make figures-check")
	}
	e, ok := ByID("fig11")
	if !ok {
		t.Fatal("unknown experiment fig11")
	}
	tables, _ := renderAll(t, []Experiment{e}, 1)
	checkFigureDigests(t, []Experiment{e}, tables, false)
}

// checkFigureDigests compares the SHA-256 of each rendered table with
// its experiment's line in figureDigestFile, naming every table whose
// digest differs. A full run also checks that the file has one line per
// experiment of All() and no other. -update instead rewrites the lines
// of the tables rendered, keeping the rest.
func checkFigureDigests(t *testing.T, exps []Experiment, tables []string, full bool) {
	t.Helper()
	raw, err := os.ReadFile(figureDigestFile)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatalf("%v (create it with -update)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if id, sum, ok := strings.Cut(line, " "); ok {
			want[id] = sum
		}
	}
	got := map[string]string{}
	for i, e := range exps {
		sum := sha256.Sum256([]byte(tables[i]))
		got[e.ID] = hex.EncodeToString(sum[:])
	}
	if *update {
		var b strings.Builder
		for _, e := range All() {
			sum, ok := got[e.ID]
			if !ok {
				if sum, ok = want[e.ID]; !ok {
					sum = "not-run"
				}
			}
			fmt.Fprintf(&b, "%s %s\n", e.ID, sum)
		}
		if err := os.WriteFile(figureDigestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, e := range exps {
		if want[e.ID] != got[e.ID] {
			t.Errorf("%s: table digest %s, %s has %q: a figure moved (rerun with -update if that is intended)",
				e.ID, got[e.ID], figureDigestFile, want[e.ID])
		}
	}
	if !full {
		return
	}
	for _, e := range All() {
		if _, ok := want[e.ID]; !ok {
			t.Errorf("%s: no line in %s (add it with -update)", e.ID, figureDigestFile)
		}
		delete(want, e.ID)
	}
	for id := range want {
		t.Errorf("%s: in %s but not an experiment", id, figureDigestFile)
	}
}
