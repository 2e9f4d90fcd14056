package bench

// queueing.go validates the analytic batch-queueing model (the foundation
// of the BATCH baseline's controller) against the discrete-event
// simulator — an accuracy experiment beyond the paper's own figures.

import (
	"time"

	"github.com/tanklab/infless/internal/batching"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/perf"
	"github.com/tanklab/infless/internal/queueing"
	"github.com/tanklab/infless/internal/scheduler"
	"github.com/tanklab/infless/internal/sim"
	"github.com/tanklab/infless/internal/telemetry"
)

// QueueingValidation compares the analytic mean response of one batch
// station against the simulator across arrival rates.
func QueueingValidation(opts Options) *Table {
	opts.defaults()
	dur := opts.dur(2*time.Minute, 10*time.Minute)
	rates := []float64{30, 60, 120, 200}
	series := labels("lambda=%v", rates)
	t := newTable("queueing", "Analytic batch-queueing model vs simulator (ResNet-50, b=8, fixed config)", series,
		[]string{"analyticMs", "simulatedMs", "relErr"})

	m := model.MustGet("ResNet-50")
	res := perf.Resources{CPU: 2, GPU: 1}
	const b = 8
	texec := m.ExecTime(b, res, model.ExecOptions{Contention: 0.35})
	slo := 400 * time.Millisecond
	timeout := slo - texec
	bounds, err := batching.RateBounds(texec, slo, b)
	if err != nil {
		panic(err)
	}
	cand := scheduler.Candidate{B: b, Res: res, TExec: texec, Bounds: bounds}

	for i, lam := range rates {
		an, err := queueing.Analyze(queueing.Params{
			Lambda:  lam,
			B:       b,
			Timeout: timeout,
			Service: func(int) time.Duration { return texec },
		})
		if err != nil {
			panic(err)
		}
		// Simulator: a single fixed instance with the same parameters.
		col := telemetry.New(telemetry.Options{})
		runScenario(&fixedController{cand: cand}, []fnSpec{{"station", m.Name, slo, lam}}, "constant", dur, opts,
			sim.Config{Warmup: 10 * time.Second, Collector: col})
		simMean := col.Recorder("station").Mean()
		rel := 0.0
		if simMean > 0 {
			rel = (float64(an.MeanResponse) - float64(simMean)) / float64(simMean)
		}
		t.Put(series[i], val(ms(an.MeanResponse), f1), val(ms(simMean), f1), val(rel, percent("%+.1f%%")))
	}
	t.Note("the M[x]/D/1-style model is the analytic core of BATCH's controller; both worlds share texec=%v", texec.Round(time.Millisecond))
	return t
}

// fixedController pins one instance with a fixed candidate configuration.
type fixedController struct {
	cand scheduler.Candidate
}

func (c *fixedController) Name() string { return "fixed-station" }

func (c *fixedController) Init(e *sim.Engine) {
	for _, f := range e.Functions() {
		e.Launch(f, c.cand, 0)
	}
}

func (c *fixedController) Route(e *sim.Engine, f *sim.FunctionState, r *sim.Request) *sim.Instance {
	for _, inst := range f.Instances() {
		if inst.CanAccept() {
			return inst
		}
	}
	return nil
}

func (c *fixedController) Tick(e *sim.Engine, f *sim.FunctionState) { e.FlushPending(f) }
