package profiler

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/perf"
)

func noiselessDB() *DB {
	opts := DefaultDBOptions()
	opts.NoiseSD = 0
	return NewDB(opts)
}

func TestDBCoversCatalogGrid(t *testing.T) {
	db := noiselessDB()
	// classes * batches * (cpu*gpu - {0,0} combos)
	wantConfigs := len(DefaultCPUGrid)*len(DefaultGPUGrid) - 1
	want := len(perf.Catalog) * len(DefaultBatches) * wantConfigs
	if len(db.entries) != want {
		t.Fatalf("db size = %d, want %d", len(db.entries), want)
	}
}

// With zero measurement noise and a chain-only model, COP must be exact:
// the ground-truth op model is affine in work, which the two-point fit
// recovers perfectly, and chains sum in both worlds.
func TestExactOnChainsWithoutNoise(t *testing.T) {
	db := noiselessDB()
	p := &Predictor{DB: db}
	m := model.MustGet("Bert-v1") // pure sequence chain
	for _, b := range []int{1, 4, 32} {
		for _, res := range []perf.Resources{{CPU: 4}, {GPU: 4}, {CPU: 2, GPU: 2}} {
			got := p.Raw(m, b, res)
			want := m.ExecTime(b, res, model.ExecOptions{})
			rel := math.Abs(float64(got-want)) / float64(want)
			if rel > 0.001 {
				t.Errorf("b=%d res=%v: predicted %v vs truth %v (rel %.4f)", b, res, got, want, rel)
			}
		}
	}
}

// Figure 8: mean COP prediction error against noisy ground truth stays
// below 10% for representative models, and is worst for models with more
// overlapping execution paths (the paper singles out LSTM-2365).
func TestPredictionErrorUnder10Percent(t *testing.T) {
	db := NewDB(DefaultDBOptions())
	p := &Predictor{DB: db}
	rng := rand.New(rand.NewSource(99))
	for _, name := range []string{"ResNet-50", "MobileNet", "LSTM-2365", "Bert-v1", "SSD"} {
		m := model.MustGet(name)
		var sumErr float64
		n := 0
		for _, b := range []int{1, 2, 4, 8, 16} {
			for _, res := range []perf.Resources{{CPU: 2}, {CPU: 8}, {GPU: 2}, {GPU: 6}, {CPU: 4, GPU: 2}} {
				pred := float64(p.Raw(m, b, res))
				truth := float64(m.ExecTime(b, res, model.DefaultExecOptions(rng)))
				sumErr += math.Abs(pred-truth) / truth
				n++
			}
		}
		mean := sumErr / float64(n)
		if mean > 0.10 {
			t.Errorf("%s: mean prediction error %.1f%% exceeds 10%%", name, mean*100)
		}
		if mean <= 0 {
			t.Errorf("%s: implausible zero error with noisy truth", name)
		}
	}
}

func TestSafetyOffset(t *testing.T) {
	db := noiselessDB()
	p := NewPredictor(db)
	m := model.MustGet("ResNet-50")
	raw := p.Raw(m, 4, perf.Resources{CPU: 4})
	pred := p.Predict(m, 4, perf.Resources{CPU: 4})
	ratio := float64(pred) / float64(raw)
	if math.Abs(ratio-1.10) > 0.001 {
		t.Errorf("safety ratio = %.3f, want 1.10", ratio)
	}
}

func TestInflationAblation(t *testing.T) {
	db := noiselessDB()
	p := NewPredictor(db)
	m := model.MustGet("ResNet-50")
	base := p.Predict(m, 4, perf.Resources{CPU: 4})
	p.InflateFactor = 1.5
	op15 := p.Predict(m, 4, perf.Resources{CPU: 4})
	p.InflateFactor = 2.0
	op2 := p.Predict(m, 4, perf.Resources{CPU: 4})
	if !(base < op15 && op15 < op2) {
		t.Errorf("inflation ordering violated: %v %v %v", base, op15, op2)
	}
	if r := float64(op2) / float64(base); math.Abs(r-2.0) > 0.01 {
		t.Errorf("OP2 / base = %.3f, want 2.0", r)
	}
}

func TestOpTimeSnapsOffGrid(t *testing.T) {
	db := noiselessDB()
	on, err := db.OpTime("MatMul", 0.5, 1, 8, perf.Resources{CPU: 4})
	if err != nil {
		t.Fatal(err)
	}
	off, err := db.OpTime("MatMul", 0.5, 1, 8, perf.Resources{CPU: 5}) // snaps to 4
	if err != nil {
		t.Fatal(err)
	}
	if on != off {
		t.Errorf("snap(5) should equal grid 4: %v vs %v", off, on)
	}
}

func TestOpTimeZeroResources(t *testing.T) {
	db := noiselessDB()
	d, err := db.OpTime("MatMul", 0.5, 1, 1, perf.Resources{})
	if err != nil || d <= 0 {
		t.Fatalf("zero-resource lookup: %v, %v", d, err)
	}
}

func TestOpTimeUnknownClass(t *testing.T) {
	db := noiselessDB()
	if _, err := db.OpTime("Bogus", 0.5, 1, 1, perf.Resources{CPU: 1}); err == nil {
		t.Fatal("expected error for unknown class")
	}
}

func TestPredictionMonotoneInBatch(t *testing.T) {
	db := noiselessDB()
	p := &Predictor{DB: db}
	for _, m := range model.Table1() {
		prev := time.Duration(0)
		for _, b := range DefaultBatches {
			got := p.Raw(m, b, perf.Resources{CPU: 2, GPU: 2})
			if got <= prev {
				t.Errorf("%s: prediction not increasing at b=%d", m.Name, b)
			}
			prev = got
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	a := NewDB(DefaultDBOptions())
	b := NewDB(DefaultDBOptions())
	m := model.MustGet("SSD")
	pa := (&Predictor{DB: a}).Raw(m, 8, perf.Resources{GPU: 4})
	pb := (&Predictor{DB: b}).Raw(m, 8, perf.Resources{GPU: 4})
	if pa != pb {
		t.Errorf("same seed, different predictions: %v vs %v", pa, pb)
	}
}

func TestSnap(t *testing.T) {
	grid := []int{0, 1, 2, 4, 8, 16}
	cases := map[int]int{0: 0, 3: 2, 5: 4, 6: 4, 7: 8, 100: 16}
	for in, want := range cases {
		if got := snap(in, grid); got != want {
			t.Errorf("snap(%d) = %d, want %d", in, got, want)
		}
	}
}
