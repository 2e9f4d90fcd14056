package bench

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

var quick = Options{Quick: true, Seed: 1}

func TestTableRendering(t *testing.T) {
	tb := newTable("x", "demo", []string{"row1"}, []string{"a", "b"})
	tb.Put("row1", val(1, f0), text("2"))
	tb.Note("hello %d", 7)
	out := tb.String()
	for _, want := range []string{"== x: demo ==", "row1", "hello 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if v := tb.Value("row1", "a"); v != 1 {
		t.Errorf("Value(row1, a) = %v, want 1", v)
	}
	if v := tb.Value("row1", "b"); !math.IsNaN(v) {
		t.Errorf("Value of a text cell = %v, want NaN", v)
	}
}

func TestTableCSV(t *testing.T) {
	tb := newTable("x", "demo", []string{"row\"1"}, []string{"a", "b,c"})
	tb.Put("row\"1", text("1"), text("2"))
	got := tb.CSV()
	want := "series,a,\"b,c\"\n\"row\"\"1\",1,2\n"
	if got != want {
		t.Fatalf("csv = %q, want %q", got, want)
	}
}

// TestTableDeclarationOrder: the rendering follows the declared series
// whatever order Put comes in; a series never filled is a section
// heading, its name alone; a name declared twice fills in declaration
// order.
func TestTableDeclarationOrder(t *testing.T) {
	render := func(order []string) string {
		tb := newTable("x", "demo", []string{"[head]", "a", "b", "a"}, []string{"v"})
		for i, s := range order {
			tb.Put(s, val(float64(i), f0))
		}
		j, err := json.Marshal(tb)
		if err != nil {
			t.Fatal(err)
		}
		return tb.String() + tb.CSV() + string(j)
	}
	ab, ba := render([]string{"a", "b", "a"}), render([]string{"b", "a", "a"})
	if ab == ba {
		t.Fatal("the two fill orders carry different values but rendered alike")
	}
	want := "== x: demo ==\nseries  v\n[head]\na       0\nb       1\na       2\n" +
		"series,v\n[head],\na,0\nb,1\na,2\n" +
		`{"ID":"x","Title":"demo","Cols":["v"],"Rows":[{"Name":"[head]","Cells":null},` +
		`{"Name":"a","Cells":["0"]},{"Name":"b","Cells":["1"]},{"Name":"a","Cells":["2"]}],"Notes":null}`
	if ab != want {
		t.Fatalf("render =\n%s\nwant\n%s", ab, want)
	}
	if !strings.HasPrefix(ba, "== x: demo ==\nseries  v\n[head]\na       1\nb       0\na       2\n") {
		t.Fatalf("Put in another order moved the rows:\n%s", ba)
	}
}

func TestQueueingValidationShape(t *testing.T) {
	tb := QueueingValidation(quick)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		an := tb.Value(r.Name, "analyticMs")
		sim := tb.Value(r.Name, "simulatedMs")
		if !(an > 0 && sim > 0) {
			t.Fatalf("%s: non-positive latencies %v/%v", r.Name, an, sim)
		}
		// The analytic model must stay within 50%% of the simulator.
		rel := (an - sim) / sim
		if rel < -0.5 || rel > 0.5 {
			t.Errorf("%s: analytic %v vs simulated %v (rel %.2f)", r.Name, an, sim, rel)
		}
	}
}

func TestAllHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if _, ok := ByID(e.ID); !ok {
			t.Errorf("ByID(%s) failed", e.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID should reject unknown ids")
	}
}

func TestTable1Shape(t *testing.T) {
	tb := Table1(quick)
	if len(tb.Rows) != 11 {
		t.Fatalf("table1 rows = %d, want 11", len(tb.Rows))
	}
}

func TestFig2aShape(t *testing.T) {
	tb := Fig2a(quick)
	// MNIST fits everywhere; Bert must be unloadable at small memory.
	mnistOK := !math.IsNaN(tb.Value("MNIST", tb.Cols[0]))
	bertX := math.IsNaN(tb.Value("Bert-v1", tb.Cols[0]))
	if !mnistOK || !bertX {
		t.Errorf("fig2a heatmap shape wrong: mnistOK=%v bertX=%v", mnistOK, bertX)
	}
}

func TestFig2cShape(t *testing.T) {
	tb := Fig2c(quick)
	// The headline: mean over-provisioning > 50%, recorded in the note.
	found := false
	for _, n := range tb.Notes {
		if strings.Contains(n, "mean over-provisioning") {
			found = true
		}
	}
	if !found {
		t.Fatal("fig2c note missing")
	}
}

func TestFig3aShape(t *testing.T) {
	tb := Fig3a(quick)
	inv1 := tb.Value("one-to-one", "invocations")
	inv4 := tb.Value("otp-batch4", "invocations")
	if !(inv4 < inv1) {
		t.Errorf("OTP batching should reduce invocations: %v vs %v", inv4, inv1)
	}
	mem1 := tb.Value("one-to-one", "memGB.s")
	mem4 := tb.Value("otp-batch4", "memGB.s")
	if !(mem4 < mem1) {
		t.Errorf("OTP batching should reduce memory GB.s: %v vs %v", mem4, mem1)
	}
}

func TestFig7Shape(t *testing.T) {
	tb := Fig7(quick)
	// The dominant ResNet-50 row must be Conv2D with > 90% share.
	for i, r := range tb.Rows {
		if strings.Contains(r.Name, "[ResNet-50]") {
			next := tb.Rows[i+1].Name
			if !strings.Contains(next, "Conv2D") {
				t.Fatalf("ResNet-50 dominant op = %s", next)
			}
			if v := tb.Value(next, "timeShare"); !(v >= 0.90) {
				t.Fatalf("Conv2D share = %v%%, want > 90", 100*v)
			}
			return
		}
	}
	t.Fatal("ResNet-50 section missing")
}

func TestFig8Shape(t *testing.T) {
	tb := Fig8(quick)
	// The paper's Figure 8 reports the three models below under 10%;
	// heavily-branched extras (TextCNN's parallel towers) may run a bit
	// higher, since COP's max-over-branches ignores contention.
	strict := map[string]bool{"ResNet-50": true, "MobileNet": true, "LSTM-2365": true}
	for _, r := range tb.Rows {
		mean := tb.Value(r.Name, "meanErr")
		limit := 0.15
		if strict[r.Name] {
			limit = 0.10
		}
		if !(mean <= limit) {
			t.Errorf("%s mean prediction error %.1f%% exceeds %v%%", r.Name, 100*mean, 100*limit)
		}
	}
}

func TestFig16Shape(t *testing.T) {
	tb := Fig16(quick)
	hhp := tb.Value("hhp", "meanCold")
	lsth := tb.Value("lsth-0.5", "meanCold")
	if !(lsth < hhp) {
		t.Errorf("LSTH mean cold rate %.1f%% should beat HHP %.1f%%", 100*lsth, 100*hhp)
	}
}

func TestFig17aShape(t *testing.T) {
	tb := Fig17a(quick)
	for _, r := range tb.Rows {
		if per := tb.Value(r.Name, "perInstanceUs"); !(per <= 500) {
			t.Errorf("%s: %vus per instance exceeds the paper's 0.5ms", r.Name, per)
		}
	}
}

func TestFig17bShape(t *testing.T) {
	tb := Fig17b(quick)
	inf := tb.Value("infless", "fragment")
	batch := tb.Value("batch", "fragment")
	batchRS := tb.Value("batch+rs", "fragment")
	if !(inf < batch) {
		t.Errorf("INFless fragmentation %v should beat BATCH %v", inf, batch)
	}
	if !(batchRS <= batch) {
		t.Errorf("BATCH+RS %v should not exceed BATCH %v", batchRS, batch)
	}
}

func TestFig18aShape(t *testing.T) {
	tb := Fig18a(quick)
	for _, r := range tb.Rows {
		vi := tb.Value(r.Name, "infless")
		vb := tb.Value(r.Name, "batch")
		vo := tb.Value(r.Name, "openfaas+")
		if !(vi > vb && vi > vo) {
			t.Errorf("%s: INFless %v should beat BATCH %v and OpenFaaS+ %v", r.Name, vi, vb, vo)
		}
	}
}

func TestFig18bShape(t *testing.T) {
	tb := Fig18b(quick)
	first := tb.Value(tb.Rows[0].Name, "thpt/res")
	last := tb.Value(tb.Rows[len(tb.Rows)-1].Name, "thpt/res")
	if !(last > first) {
		t.Errorf("relaxing the SLO should raise throughput/resource: %v -> %v", first, last)
	}
}

// Slow end-to-end experiments run only outside -short.
func TestFig3bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow stress test")
	}
	tb := Fig3b(quick)
	one := tb.Value("openfaas+", "goodput")
	batch := tb.Value("batch", "goodput")
	inf := tb.Value("infless", "goodput")
	if !(one < batch && batch < inf) {
		t.Errorf("fig3b ordering violated: %v, %v, %v", one, batch, inf)
	}
}

func TestFig12aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow multi-trace comparison")
	}
	tb := Fig12a(quick)
	for _, col := range tb.Cols {
		inf := tb.Value("infless", col)
		batch := tb.Value("batch", col)
		ofp := tb.Value("openfaas+", col)
		if !(inf > batch && inf > ofp) {
			t.Errorf("%s: INFless %v must beat BATCH %v and OpenFaaS+ %v", col, inf, batch, ofp)
		}
	}
}

func TestFig14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow provisioning run")
	}
	tb := Fig14(quick)
	batch := tb.Value("batch", "areaWeighted.s")
	inf := tb.Value("infless", "areaWeighted.s")
	if !(inf < batch) {
		t.Errorf("INFless provisioning area %v should be below BATCH %v", inf, batch)
	}
}

// TestFig11Shape also holds fig11's table to its line in
// figureDigestFile: fig11 has no parallelFor and no wall-clock cells, so
// this render is the one TestParallelAllDeterministic leaves out.
func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow stress suite")
	}
	e, ok := ByID("fig11")
	if !ok {
		t.Fatal("unknown experiment fig11")
	}
	tb := Fig11(quick)
	checkFigureDigests(t, []Experiment{e}, []string{tb.String()}, false)
	inf := tb.Value("infless", "OSVT")
	bb := tb.Value("infless-bb", "OSVT")
	batch := tb.Value("batch", "OSVT")
	rs := tb.Value("infless-rs", "OSVT")
	if !(inf > batch) {
		t.Errorf("INFless OSVT goodput %v should beat BATCH %v", inf, batch)
	}
	if !(bb < inf) {
		t.Errorf("disabling batching should hurt: %v vs %v", bb, inf)
	}
	if !(rs < inf) {
		t.Errorf("disabling RS should hurt: %v vs %v", rs, inf)
	}
}

func TestFig15Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow trace suite")
	}
	tb := Fig15(quick)
	// INFless must stay in single digits on every trace.
	for _, col := range []string{"sporadic", "periodic", "bursty"} {
		if v := tb.Value("infless", col); !(v <= 0.05) {
			t.Errorf("INFless violation rate %.1f%% on the %s trace exceeds 5%%", 100*v, col)
		}
	}
}

func TestGoodputAndHelpers(t *testing.T) {
	if nearestPow2(1) != 1 || nearestPow2(3) != 2 || nearestPow2(32) != 32 || nearestPow2(31) != 16 {
		t.Fatal("nearestPow2 wrong")
	}
	o := Options{}
	o.defaults()
	if o.Seed != 1 {
		t.Fatal("default seed")
	}
	if o.dur(time.Second, time.Minute) != time.Minute {
		t.Fatal("full duration expected by default")
	}
	o.Quick = true
	if o.dur(time.Second, time.Minute) != time.Second {
		t.Fatal("quick duration expected")
	}
}
