package bench

// local.go reproduces the local-cluster evaluation (Section 5.2):
// Figures 3b, 11, 12, 13, 14, 15, 16 and Table 4.

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/baselines"
	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/coldstart"
	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/perf"
	"github.com/tanklab/infless/internal/sim"
	"github.com/tanklab/infless/internal/telemetry"
	"github.com/tanklab/infless/internal/workload"
)

// fnSpec declares one function of a scenario.
type fnSpec struct {
	name  string
	model string
	slo   time.Duration
	rps   float64 // base rate; scaled by scenario loads
}

// The two application scenarios of Section 5.1.
func osvtFns(rps float64) []fnSpec {
	return []fnSpec{
		{"osvt-detect", "SSD", 200 * time.Millisecond, rps},
		{"osvt-license", "MobileNet", 200 * time.Millisecond, rps},
		{"osvt-classify", "ResNet-50", 200 * time.Millisecond, rps},
	}
}

func qaFns(rps float64) []fnSpec {
	return []fnSpec{
		{"qa-textcnn", "TextCNN-69", 50 * time.Millisecond, rps},
		{"qa-lstm", "LSTM-2365", 50 * time.Millisecond, rps},
		{"qa-dssm", "DSSM-2389", 50 * time.Millisecond, rps},
	}
}

func controllerFor(system string) sim.Controller {
	switch system {
	case "infless":
		return core.New(core.Options{})
	case "infless-bb": // batching disabled (BB ablation)
		o := core.Options{}
		o.Sched.ForceBatchOne = true
		return core.New(o)
	case "infless-rs": // resource scheduling disabled (RS ablation)
		o := core.Options{}
		o.Sched.DisableRS = true
		return core.New(o)
	case "infless-op1.5":
		return core.New(core.Options{PredictionInflate: 1.5})
	case "infless-op2":
		return core.New(core.Options{PredictionInflate: 2.0})
	case "batch":
		return baselines.NewBatchSys()
	case "openfaas+":
		return baselines.NewOpenFaaSPlus()
	}
	panic("bench: unknown system " + system)
}

// runScenario executes one system against functions with traces derived
// from the given pattern.
func runScenario(system string, fns []fnSpec, pattern string, dur time.Duration, opts Options, cfg sim.Config) *sim.Result {
	opts.defaults()
	cfg.Duration = dur
	if cfg.Cluster == nil {
		cfg.Cluster = cluster.Testbed()
	}
	if cfg.Seed == 0 {
		cfg.Seed = opts.Seed
	}
	if cfg.Storage == nil && opts.Storage != "" {
		st, err := artifact.Profile(opts.Storage)
		if err != nil {
			panic(err)
		}
		if st.Enabled {
			cfg.Storage = &st
		}
	}
	e := sim.New(controllerFor(system), cfg)
	for i, fn := range fns {
		var tr *workload.Trace
		if pattern == "constant" {
			tr = workload.Constant(fn.rps, dur, time.Minute)
		} else {
			var err error
			tr, err = workload.ByName(pattern, workload.Options{
				Seed:    opts.Seed + int64(i),
				Days:    int(dur/(24*time.Hour)) + 1,
				BaseRPS: fn.rps,
			})
			if err != nil {
				panic(err)
			}
		}
		e.AddFunction(sim.FunctionSpec{
			Name:  fn.name,
			Model: model.MustGet(fn.model),
			SLO:   fn.slo,
			Trace: tr,
		})
	}
	return e.Run()
}

// goodput is the rate of requests served within their SLO over the
// measured (post-warmup) window.
func goodput(res *sim.Result, warmup time.Duration) float64 {
	var good float64
	for _, f := range res.Functions {
		fs := res.Telemetry.Function(f.Spec.Name)
		total := float64(fs.Served + fs.Dropped)
		good += total * (1 - fs.SLOViolationRate)
	}
	return good / (res.Duration - warmup).Seconds()
}

// Fig3b compares maximum sustained goodput of the one-to-one platform,
// OTP batching and INFless on the testbed (the motivation headline:
// INFless ~3x over OTP batching).
func Fig3b(opts Options) *Table {
	opts.defaults()
	dur := opts.dur(40*time.Second, 2*time.Minute)
	t := &Table{ID: "fig3b", Title: "Stress-test goodput, ResNet-20 (requests/s within SLO)",
		Cols: []string{"goodput", "vsOneToOne"}}
	// A deliberately small box (4 cores, 2 GPU units) so the offered load
	// saturates every system and the comparison measures capacity.
	fns := []fnSpec{{"resnet20", "ResNet-20", 200 * time.Millisecond, 20000}}
	warmup := dur / 4
	var base float64
	for _, sys := range []string{"openfaas+", "batch", "infless"} {
		cfg := sim.Config{Cluster: cluster.New(cluster.Options{
			Servers:   1,
			PerServer: perf.Resources{CPU: 4, GPU: 2},
		}), Warmup: warmup}
		res := runScenario(sys, fns, "constant", dur, opts, cfg)
		g := goodput(res, warmup)
		if sys == "openfaas+" {
			base = g
		}
		t.AddRow(sys, fmt.Sprintf("%.0f", g), fmt.Sprintf("%.2fx", g/base))
	}
	t.Note("paper: OTP batching +30%% over Lambda; INFless ~3x over OTP batching")
	return t
}

// Fig11 runs the stress test of Section 5.2 on both scenarios, including
// the component ablation (BB = built-in batching, OP = operator
// prediction accuracy, RS = resource scheduling).
func Fig11(opts Options) *Table {
	opts.defaults()
	dur := opts.dur(40*time.Second, 2*time.Minute)
	t := &Table{ID: "fig11", Title: "Max goodput under stress (requests/s within SLO)",
		Cols: []string{"OSVT", "QA", "OSVTdrop", "QAdrop"}}
	systems := []string{"openfaas+", "batch", "infless", "infless-bb", "infless-op1.5", "infless-op2", "infless-rs"}
	var inflessOSVT, inflessQA float64
	rows := map[string][2]float64{}
	for _, sys := range systems {
		// OSVT saturates the 8-server testbed; the QA models are tiny, so
		// their stress test runs on a 2-server slice to keep the offered
		// load (and the event count) tractable while still binding.
		warmup := dur / 4
		osvt := goodput(runScenario(sys, osvtFns(30000), "constant", dur, opts, sim.Config{Warmup: warmup}), warmup)
		qaCfg := sim.Config{Cluster: cluster.New(cluster.Options{Servers: 4}), Warmup: warmup}
		qa := goodput(runScenario(sys, qaFns(15000), "constant", dur, opts, qaCfg), warmup)
		rows[sys] = [2]float64{osvt, qa}
		if sys == "infless" {
			inflessOSVT, inflessQA = osvt, qa
		}
	}
	for _, sys := range systems {
		r := rows[sys]
		t.AddRow(sys, fmt.Sprintf("%.0f", r[0]), fmt.Sprintf("%.0f", r[1]),
			pct(1-r[0]/inflessOSVT), pct(1-r[1]/inflessQA))
	}
	t.Note("drop columns: goodput loss relative to full INFless (paper: BB 45.6%%/60%%, OP2 35.4%%/34.3%%, RS 21.9%%/7%%)")
	return t
}

// Fig12a measures normalized throughput (requests per beta-weighted
// resource-second) under the three production trace patterns.
func Fig12a(opts Options) *Table {
	opts.defaults()
	// The sporadic pattern has idle stretches of up to 4 hours; the run
	// must span several of them to produce traffic at all.
	dur := opts.dur(4*time.Hour, 24*time.Hour)
	t := &Table{ID: "fig12a", Title: "Normalized throughput across production traces",
		Cols: []string{"sporadic", "periodic", "bursty"}}
	vals := map[string][]string{}
	ratios := map[string][]float64{}
	for _, sys := range []string{"infless", "batch", "openfaas+"} {
		for _, pattern := range []string{"sporadic", "periodic", "bursty"} {
			res := runScenario(sys, osvtFns(60), pattern, dur, opts, sim.Config{})
			v := res.ThroughputPerResource()
			vals[sys] = append(vals[sys], f2(v))
			ratios[sys] = append(ratios[sys], v)
		}
	}
	for _, sys := range []string{"infless", "batch", "openfaas+"} {
		t.AddRow(sys, vals[sys]...)
	}
	for i, pattern := range []string{"sporadic", "periodic", "bursty"} {
		if ratios["batch"][i] == 0 || ratios["openfaas+"][i] == 0 {
			continue
		}
		t.Note("%s: INFless %.1fx vs BATCH, %.1fx vs OpenFaaS+", pattern,
			ratios["infless"][i]/ratios["batch"][i], ratios["infless"][i]/ratios["openfaas+"][i])
	}
	return t
}

// Fig12b sweeps the OSVT latency SLO and compares INFless with BATCH.
func Fig12b(opts Options) *Table {
	opts.defaults()
	dur := opts.dur(30*time.Second, 2*time.Minute)
	t := &Table{ID: "fig12b", Title: "Stress goodput per resource across latency SLOs (OSVT)",
		Cols: []string{"infless", "batch", "ratio"}}
	slos := []time.Duration{100, 200, 300, 400, 500}
	points := make([][2]float64, len(slos))
	opts.parallelFor(len(slos), func(i int) {
		sloDur := slos[i] * time.Millisecond
		fns := osvtFns(15000)
		for j := range fns {
			fns[j].slo = sloDur
		}
		run := func(sys string) float64 {
			warmup := dur / 4
			res := runScenario(sys, fns, "constant", dur, opts, sim.Config{Warmup: warmup})
			used := res.Telemetry.Resources.WeightedSeconds
			if used <= 0 {
				return 0
			}
			return goodput(res, warmup) * res.Duration.Seconds() / used
		}
		points[i] = [2]float64{run("infless"), run("batch")}
	})
	for i, slo := range slos {
		vi, vb := points[i][0], points[i][1]
		t.AddRow(fmt.Sprintf("slo=%v", slo*time.Millisecond), f2(vi), f2(vb), fmt.Sprintf("%.2fx", vi/vb))
	}
	t.Note("paper: INFless 1.6x-3.5x over BATCH across SLOs")
	return t
}

// Fig13 shows the batch-size and resource-configuration mix for
// ResNet-50 (INFless non-uniform vs BATCH uniform), aggregated across the
// paper's SLO sweep.
func Fig13(opts Options) *Table {
	opts.defaults()
	dur := opts.dur(8*time.Minute, 30*time.Minute)
	t := &Table{ID: "fig13", Title: "Throughput share by batch size + instance configs (ResNet-50, SLO sweep)",
		Cols: []string{"b=1", "b=2", "b=4", "b=8", "b=16", "b=32", "configs"}}
	for _, sys := range []string{"infless", "batch"} {
		batchServed := map[int]uint64{}
		configs := map[string]bool{}
		var total uint64
		for _, sloMs := range []time.Duration{150, 200, 250, 300, 350} {
			fns := []fnSpec{{"resnet", "ResNet-50", sloMs * time.Millisecond, 1500}}
			res := runScenario(sys, fns, "bursty", dur, opts, sim.Config{})
			for used, cnt := range res.Telemetry.Functions[0].BatchServed {
				batchServed[nearestPow2(used)] += cnt
				total += cnt
			}
			for c := range res.Functions[0].ConfigCount {
				configs[c] = true
			}
		}
		cells := make([]string, 0, 7)
		for _, b := range []int{1, 2, 4, 8, 16, 32} {
			if total == 0 {
				cells = append(cells, "-")
			} else {
				cells = append(cells, pct(float64(batchServed[b])/float64(total)))
			}
		}
		cells = append(cells, fmt.Sprintf("%d distinct", len(configs)))
		t.AddRow(sys, cells...)
	}
	t.Note("paper: BATCH concentrates on 2 batch sizes / 3 configs; INFless mixes batch sizes and many configs")
	return t
}

func nearestPow2(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// Fig14 tracks provisioned resources over a rise-and-fall load for BATCH
// and INFless.
func Fig14(opts Options) *Table {
	opts.defaults()
	dur := opts.dur(30*time.Minute, 2*time.Hour)
	// A load ramp: up, plateau, down — the Figure 14 shape.
	steps := int(dur / time.Minute)
	tr := &workload.Trace{Name: "ramp", Step: time.Minute, RPS: make([]float64, steps)}
	for i := range tr.RPS {
		frac := float64(i) / float64(steps)
		switch {
		case frac < 0.3:
			tr.RPS[i] = 100 + 2900*frac/0.3
		case frac < 0.5:
			tr.RPS[i] = 3000
		case frac < 0.7:
			tr.RPS[i] = 3000 * (1 - (frac-0.5)/0.2)
		default:
			tr.RPS[i] = 0 // tail idle: keep-alive policies differ most here
		}
	}
	t := &Table{ID: "fig14", Title: "Provisioned resources over a ramp load (ResNet-50)",
		Cols: []string{"meanWeighted", "peakWeighted", "areaWeighted.s"}}
	var areas []float64
	for _, sys := range []string{"batch", "infless"} {
		e := sim.New(controllerFor(sys), sim.Config{
			Cluster: cluster.Testbed(), Duration: dur, Seed: opts.Seed,
			Collector: telemetry.New(telemetry.Options{ResourceSampleEvery: 15 * time.Second}),
		})
		e.AddFunction(sim.FunctionSpec{Name: "resnet", Model: model.MustGet("ResNet-50"), SLO: 200 * time.Millisecond, Trace: tr})
		used := e.Run().Telemetry.Resources
		var mean, peak float64
		for _, p := range used.Series {
			mean += p.Weighted
			if p.Weighted > peak {
				peak = p.Weighted
			}
		}
		if len(used.Series) > 0 {
			mean /= float64(len(used.Series))
		}
		area := used.WeightedSeconds
		areas = append(areas, area)
		t.AddRow(sys, f2(mean), f2(peak), fmt.Sprintf("%.0f", area))
	}
	if len(areas) == 2 && areas[0] > 0 {
		t.Note("INFless provisions %.0f%% less resource-time than BATCH (paper: ~60%%)", 100*(1-areas[1]/areas[0]))
	}
	return t
}

// Fig15 reports SLO violation rates per system per trace, and the
// latency breakdown of INFless under two SLO settings.
func Fig15(opts Options) *Table {
	opts.defaults()
	dur := opts.dur(4*time.Hour, 24*time.Hour) // sporadic traffic needs hours to appear
	t := &Table{ID: "fig15", Title: "SLO violation rate per trace + INFless latency breakdown",
		Cols: []string{"sporadic", "periodic", "bursty"}}
	for _, sys := range []string{"infless", "batch", "openfaas+"} {
		var cells []string
		for _, pattern := range []string{"sporadic", "periodic", "bursty"} {
			res := runScenario(sys, osvtFns(60), pattern, dur, opts, sim.Config{})
			cells = append(cells, pct(res.ViolationRate()))
		}
		t.AddRow(sys, cells...)
	}
	// Breakdown at SLO 150ms and 350ms (Figure 15 b/c).
	for _, slo := range []time.Duration{150 * time.Millisecond, 350 * time.Millisecond} {
		fns := osvtFns(150)
		for i := range fns {
			fns[i].slo = slo
		}
		col := telemetry.New(telemetry.Options{})
		runScenario("infless", fns, "constant", opts.dur(40*time.Second, 2*time.Minute), opts, sim.Config{Collector: col})
		var cold, queue, exec time.Duration
		var n time.Duration
		for _, fn := range fns {
			c, q, x := col.Recorder(fn.name).Breakdown()
			cold += c
			queue += q
			exec += x
			n++
		}
		t.AddRow(fmt.Sprintf("breakdown@%v", slo),
			"cold="+ms(cold/n)+"ms", "queue="+ms(queue/n)+"ms", "exec="+ms(exec/n)+"ms")
	}
	t.Note("paper: INFless <= 3.1%% violations on average; queueing time regulated to roughly equal execution time")
	return t
}

// checkpointMB is the artifact size fig16 and fig16t replay at.
const checkpointMB = 2048

// coldStartTraces generates the three low-rate invocation traces of
// fig16 and fig16t, with the Figure 9(a) structure: long-term periodicity
// (regimes alternating on a multi-hour cycle, beyond HHP's 4-hour
// histogram) and short-term bursts, with lognormal gap dispersion. Cold
// starts are a low-traffic phenomenon, so gaps sit in the
// seconds-to-minutes range.
func coldStartTraces(seed int64, days int) map[string][]time.Duration {
	gen := func(seed int64, denseMed, sparseMed time.Duration, sigma float64, burst bool) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		var arrivals []time.Duration
		now := time.Duration(0)
		for now < time.Duration(days)*24*time.Hour {
			var med time.Duration
			if int(now/(6*time.Hour))%2 == 0 {
				med = denseMed
			} else {
				med = sparseMed
			}
			gap := time.Duration(float64(med) * math.Exp(rng.NormFloat64()*sigma))
			if burst && rng.Intn(100) == 0 { // STB: a sudden flurry
				for i := 0; i < 20; i++ {
					now += time.Duration(rng.Intn(2000)) * time.Millisecond
					arrivals = append(arrivals, now)
				}
			}
			now += gap
			arrivals = append(arrivals, now)
		}
		return arrivals
	}
	return map[string][]time.Duration{
		"sporadic": gen(seed, 2*time.Minute, 15*time.Minute, 1.0, true),
		"periodic": gen(seed+1, 30*time.Second, 5*time.Minute, 0.7, false),
		"bursty":   gen(seed+2, 30*time.Second, 5*time.Minute, 0.7, true),
	}
}

// Fig16 replays low-rate invocation traces against the cold-start
// policies (fixed keep-alive, HHP, LSTH with gamma in {0.3, 0.5, 0.7}).
func Fig16(opts Options) *Table {
	opts.defaults()
	days := 3
	if opts.Quick {
		days = 2
	}
	t := &Table{ID: "fig16", Title: "Cold-start rate / idle waste per invocation",
		Cols: []string{"sporadic", "periodic", "bursty", "meanCold", "meanWaste.s"}}

	arrivalSets := coldStartTraces(opts.Seed, days)
	lsth := func(gamma float64) func() coldstart.Policy {
		return func() coldstart.Policy { return coldstart.NewLSTH(coldstart.LSTHOptions{Gamma: gamma}) }
	}
	policies := []struct {
		name   string
		policy func() coldstart.Policy
	}{
		{"fixed-300s", func() coldstart.Policy { return coldstart.Fixed{KeepAlive: coldstart.DefaultFixedKeepAlive} }},
		{"hhp", func() coldstart.Policy { return coldstart.NewHHP() }},
		{"lsth-0.3", lsth(0.3)},
		{"lsth-0.5", lsth(0.5)},
		{"lsth-0.7", lsth(0.7)},
	}
	type polRow struct {
		cells    []string
		meanCold float64
	}
	rows := make([]polRow, len(policies))
	opts.parallelFor(len(policies), func(i int) {
		var cells []string
		var coldSum, wasteSum float64
		for _, pattern := range []string{"sporadic", "periodic", "bursty"} {
			p := coldstart.LegacyTier(policies[i].policy())
			r := coldstart.Evaluate(p, artifact.Default(), checkpointMB, false, arrivalSets[pattern])
			cells = append(cells, pct(r.ColdRate()))
			coldSum += r.ColdRate()
			wasteSum += r.WastePerInvocation().Seconds()
		}
		meanCold := coldSum / 3
		cells = append(cells, pct(meanCold), fmt.Sprintf("%.1f", wasteSum/3))
		rows[i] = polRow{cells: cells, meanCold: meanCold}
	})
	hhpCold := 0.0
	for i, p := range policies {
		if p.name == "hhp" {
			hhpCold = rows[i].meanCold
		}
		t.AddRow(p.name, rows[i].cells...)
	}
	if hhpCold > 0 {
		t.Note("paper: LSTH reduces cold-start rate by 21.9%% vs HHP (measured above via meanCold) and idle waste by 24.3%%")
		t.Note("waste here is the per-invocation policy replay; the system-level resource-waste reduction shows up as provisioning area in fig14")
	}
	return t
}

// Fig16T replays the Figure 16-style traces against the tier-aware
// cold-start stack: plain LSTH (the legacy SSD-resting shape), LSTH
// with multi-tier demotion (keep-alive shortened to the blended median,
// artifact paused in DRAM through the distribution's tail), and tiering
// plus InstaInfer-style opportunistic pre-loading. Waste is the
// warm-instance-equivalent resident time (DRAM pauses charged at a
// fraction of a warm instance); startup is the mean start delay over
// all invocations.
func Fig16T(opts Options) *Table {
	opts.defaults()
	days := 3
	if opts.Quick {
		days = 2
	}
	t := &Table{ID: "fig16t", Title: "Cold-start 2.0: LSTH vs tiering vs tiering+pre-loading",
		Cols: []string{"sporadic", "periodic", "bursty", "meanCold", "meanWaste.s", "meanStartup.ms"}}

	arrivalSets := coldStartTraces(opts.Seed, days)
	h := artifact.Default()
	type variant struct {
		name    string
		policy  func() coldstart.Policy
		preload bool
	}
	variants := []variant{
		{"lsth", func() coldstart.Policy {
			return coldstart.LegacyTier(coldstart.NewLSTH(coldstart.LSTHOptions{}))
		}, false},
		{"lsth+tier", func() coldstart.Policy {
			return coldstart.NewLSTH(coldstart.LSTHOptions{})
		}, false},
		{"lsth+tier+preload", func() coldstart.Policy {
			return coldstart.NewLSTH(coldstart.LSTHOptions{})
		}, true},
	}
	type tierRow struct{ cells []string }
	rows := make([]tierRow, len(variants))
	opts.parallelFor(len(variants), func(i int) {
		v := variants[i]
		var cells []string
		var coldSum, wasteSum, startSum float64
		for _, pattern := range []string{"sporadic", "periodic", "bursty"} {
			r := coldstart.Evaluate(v.policy(), h, checkpointMB, v.preload, arrivalSets[pattern])
			cells = append(cells, pct(r.ColdRate()))
			coldSum += r.ColdRate()
			wasteSum += r.WastePerInvocation().Seconds()
			startSum += float64(r.MeanStartup()) / float64(time.Millisecond)
		}
		cells = append(cells,
			pct(coldSum/3),
			fmt.Sprintf("%.1f", wasteSum/3),
			fmt.Sprintf("%.0f", startSum/3))
		rows[i] = tierRow{cells: cells}
	})
	for i, v := range variants {
		t.AddRow(v.name, rows[i].cells...)
	}
	t.Note("tiered LSTH holds instances fully warm only to the blended median and parks artifacts in DRAM through the tail")
	t.Note("pre-loading covers post-pause arrivals from a warm peer's borrowed memory at DRAM-resume cost, no waste charge")
	return t
}

// Table4 derives the computation-cost comparison: resources per 100 RPS
// and dollar cost per request, using the paper's prices ($0.034/h per
// CPU, $2.5/h per 2080Ti GPU).
func Table4(opts Options) *Table {
	opts.defaults()
	dur := opts.dur(20*time.Minute, 2*time.Hour)
	t := &Table{ID: "table4", Title: "Computation cost comparison (periodic trace, OSVT)",
		Cols: []string{"CPUs/100RPS", "GPUs/100RPS", "$/request"}}
	const (
		cpuHour = 0.034
		gpuHour = 2.5 // per physical GPU = 10 units
	)
	row := func(name string, cpuSecs, gpuUnitSecs, served float64, durSecs float64) {
		if served == 0 {
			t.AddRow(name, "-", "-", "-")
			return
		}
		rps := served / durSecs
		cpus := cpuSecs / durSecs / (rps / 100)
		gpus := gpuUnitSecs / 10 / durSecs / (rps / 100)
		cost := (cpuSecs/3600*cpuHour + gpuUnitSecs/10/3600*gpuHour) / served
		t.AddRow(name, f2(cpus), f2(gpus), fmt.Sprintf("%.2e", cost))
	}
	var peak float64
	for _, sys := range []string{"openfaas+", "batch", "infless"} {
		res := runScenario(sys, osvtFns(120), "periodic", dur, opts, sim.Config{})
		row(sys, res.Telemetry.Resources.CPUCoreSeconds, res.Telemetry.Resources.GPUUnitSeconds, float64(res.Served()), dur.Seconds())
		if sys == "openfaas+" {
			// EC2 static provisioning: hold peak-sized one-to-one capacity
			// for the whole run.
			tr, _ := workload.ByName("periodic", workload.Options{Days: int(dur/(24*time.Hour)) + 1, Seed: opts.Seed, BaseRPS: 120})
			peak = tr.Peak() * 3 // three OSVT functions
			served := float64(res.Served())
			// Each (2 CPU, 1 GPU-unit) instance sustains ~1/texec RPS.
			perInst := 40.0
			instances := peak / perInst
			row("aws-ec2-static", instances*2*dur.Seconds(), instances*1*dur.Seconds(), served, dur.Seconds())
		}
	}
	t.Note("prices: $0.034/h per CPU, $2.5/h per GPU (Table 4); paper: INFless >10x cheaper per request than EC2/OpenFaaS+")
	return t
}

// AlphaSweep is the extra ablation called out in DESIGN.md: the dispatch
// damping constant alpha trades scaling stability against utilization
// (the paper fixes alpha = 0.8).
func AlphaSweep(opts Options) *Table {
	opts.defaults()
	dur := opts.dur(15*time.Minute, time.Hour)
	t := &Table{ID: "alpha", Title: "Dispatcher damping alpha: launches vs efficiency (bursty ResNet-50)",
		Cols: []string{"launches", "thpt/res", "violation"}}
	for _, alpha := range []float64{0.5, 0.7, 0.8, 0.9, 1.0} {
		ctrl := core.New(core.Options{Alpha: alpha})
		e := sim.New(ctrl, sim.Config{Cluster: cluster.Testbed(), Duration: dur, Seed: opts.Seed})
		tr := workload.Bursty(workload.Options{Days: 1, Seed: opts.Seed, BaseRPS: 3000})
		e.AddFunction(sim.FunctionSpec{Name: "resnet", Model: model.MustGet("ResNet-50"), SLO: 200 * time.Millisecond, Trace: tr})
		res := e.Run()
		t.AddRow(fmt.Sprintf("alpha=%.1f", alpha),
			fmt.Sprintf("%d", res.Telemetry.Functions[0].Launches),
			f2(res.ThroughputPerResource()),
			pct(res.ViolationRate()))
	}
	t.Note("low alpha scales in lazily (stable, wasteful); alpha=1 tracks r_low aggressively (oscillation risk)")
	return t
}
