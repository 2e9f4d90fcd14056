package bench

// local.go reproduces the local-cluster evaluation (Section 5.2):
// Figures 3b, 11, 12, 13, 14, 15, 16 and Table 4.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/coldstart"
	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/perf"
	"github.com/tanklab/infless/internal/scenario"
	"github.com/tanklab/infless/internal/scheduler"
	"github.com/tanklab/infless/internal/sim"
	"github.com/tanklab/infless/internal/telemetry"
	"github.com/tanklab/infless/internal/workload"
)

// ablations are fig11's INFless variants by series name: BB disables
// built-in batching, RS resource scheduling, and OP inflates operator
// predictions.
var ablations = map[string]core.Options{
	"infless-bb":    {Sched: scheduler.Options{ForceBatchOne: true}},
	"infless-rs":    {Sched: scheduler.Options{DisableRS: true}},
	"infless-op1.5": {PredictionInflate: 1.5},
	"infless-op2":   {PredictionInflate: 2.0},
}

// spec is a figure's run of series sys (a Spec System or an ablation)
// serving fns for dur on the testbed, each offered pattern at rps;
// function i's traffic is seeded o.Seed + i.
func (o Options) spec(sys string, fns []scenario.Function, pattern string, rps float64, dur time.Duration) scenario.Spec {
	o.defaults()
	s := scenario.Spec{System: sys, Functions: slices.Clone(fns), Storage: o.Storage, Seed: o.Seed, Duration: dur}
	if a, ok := ablations[sys]; ok {
		s.System, s.INFless = "infless", a
	}
	for i := range s.Functions {
		s.Functions[i].Traffic = scenario.Traffic{Pattern: pattern, RPS: rps, Seed: o.Seed + int64(i)}
	}
	return s
}

// stress runs s with its first quarter as warm-up and returns the result
// and its goodput: the rate of requests served within their SLO over the
// measured window.
func stress(s scenario.Spec) (*sim.Result, float64) {
	s.Warmup = s.Duration / 4
	res := scenario.Run(s)
	var good float64
	for _, f := range res.Functions {
		fs := res.Telemetry.Function(f.Spec.Name)
		total := float64(fs.Served + fs.Dropped)
		good += total * (1 - fs.SLOViolationRate)
	}
	return res, good / (res.Duration - s.Warmup).Seconds()
}

// Fig3b compares maximum sustained goodput of the one-to-one platform,
// OTP batching and INFless on the testbed (the motivation headline:
// INFless ~3x over OTP batching).
func Fig3b(opts Options) *Table {
	opts.defaults()
	dur := opts.dur(40*time.Second, 2*time.Minute)
	systems := []string{"openfaas+", "batch", "infless"}
	t := newTable("fig3b", "Stress-test goodput, ResNet-20 (requests/s within SLO)", systems,
		[]string{"goodput", "vsOneToOne"})
	// A deliberately small box (4 cores, 2 GPU units) so the offered load
	// saturates every system and the comparison measures capacity.
	fns := []scenario.Function{{Name: "resnet20", Model: "ResNet-20", SLO: 200 * time.Millisecond}}
	var base float64
	for _, sys := range systems {
		s := opts.spec(sys, fns, "constant", 20000, dur)
		s.Cluster = cluster.Options{Servers: 1, PerServer: perf.Resources{CPU: 4, GPU: 2}}
		_, g := stress(s)
		if sys == "openfaas+" {
			base = g
		}
		t.Put(sys, val(g, f0), val(g/base, verb("%.2fx")))
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
	systems := []string{"openfaas+", "batch", "infless", "infless-bb", "infless-op1.5", "infless-op2", "infless-rs"}
	t := newTable("fig11", "Max goodput under stress (requests/s within SLO)", systems,
		[]string{"OSVT", "QA", "OSVTdrop", "QAdrop"})
	var inflessOSVT, inflessQA float64
	rows := map[string][2]float64{}
	for _, sys := range systems {
		// OSVT saturates the 8-server testbed; the QA models are tiny, so
		// their stress test runs on a 2-server slice to keep the offered
		// load (and the event count) tractable while still binding.
		_, osvt := stress(opts.spec(sys, scenario.OSVT(), "constant", 30000, dur))
		s := opts.spec(sys, scenario.QA(), "constant", 15000, dur)
		s.Cluster = cluster.Options{Servers: 4}
		_, qa := stress(s)
		rows[sys] = [2]float64{osvt, qa}
		if sys == "infless" {
			inflessOSVT, inflessQA = osvt, qa
		}
	}
	for _, sys := range systems {
		r := rows[sys]
		t.Put(sys, val(r[0], f0), val(r[1], f0), val(1-r[0]/inflessOSVT, pct), val(1-r[1]/inflessQA, pct))
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
	systems, patterns := []string{"infless", "batch", "openfaas+"}, []string{"sporadic", "periodic", "bursty"}
	t := newTable("fig12a", "Normalized throughput across production traces", systems, patterns)
	vals := map[string][]cell{}
	for _, sys := range systems {
		for _, pattern := range patterns {
			res := scenario.Run(opts.spec(sys, scenario.OSVT(), pattern, 60, dur))
			vals[sys] = append(vals[sys], val(res.ThroughputPerResource(), f2))
		}
	}
	for _, sys := range systems {
		t.Put(sys, vals[sys]...)
	}
	for _, pattern := range patterns {
		inf, batch, ofp := t.Value("infless", pattern), t.Value("batch", pattern), t.Value("openfaas+", pattern)
		if batch == 0 || ofp == 0 {
			continue
		}
		t.Note("%s: INFless %.1fx vs BATCH, %.1fx vs OpenFaaS+", pattern, inf/batch, inf/ofp)
	}
	return t
}

// Fig12b sweeps the OSVT latency SLO and compares INFless with BATCH.
func Fig12b(opts Options) *Table {
	opts.defaults()
	dur := opts.dur(30*time.Second, 2*time.Minute)
	slos := []time.Duration{100, 200, 300, 400, 500}
	t := newTable("fig12b", "Stress goodput per resource across latency SLOs (OSVT)", labels("slo=%dms", slos),
		[]string{"infless", "batch", "ratio"})
	points := make([][2]float64, len(slos))
	opts.parallelFor(len(slos), func(i int) {
		sloDur := slos[i] * time.Millisecond
		fns := scenario.OSVT()
		for j := range fns {
			fns[j].SLO = sloDur
		}
		run := func(sys string) float64 {
			res, goodput := stress(opts.spec(sys, fns, "constant", 15000, dur))
			used := res.Telemetry.Resources.WeightedSeconds
			if used <= 0 {
				return 0
			}
			return goodput * res.Duration.Seconds() / used
		}
		points[i] = [2]float64{run("infless"), run("batch")}
	})
	for i, r := range t.Rows {
		vi, vb := points[i][0], points[i][1]
		t.Put(r.Name, val(vi, f2), val(vb, f2), val(vi/vb, verb("%.2fx")))
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
	systems := []string{"infless", "batch"}
	t := newTable("fig13", "Throughput share by batch size + instance configs (ResNet-50, SLO sweep)", systems,
		[]string{"b=1", "b=2", "b=4", "b=8", "b=16", "b=32", "configs"})
	for _, sys := range systems {
		batchServed := map[int]uint64{}
		configs := map[string]bool{}
		var total uint64
		for _, sloMs := range []time.Duration{150, 200, 250, 300, 350} {
			fns := []scenario.Function{{Name: "resnet", Model: "ResNet-50", SLO: sloMs * time.Millisecond}}
			res := scenario.Run(opts.spec(sys, fns, "bursty", 1500, dur))
			for used, cnt := range res.Telemetry.Functions[0].BatchServed {
				batchServed[nearestPow2(used)] += cnt
				total += cnt
			}
			for c := range res.Functions[0].ConfigCount {
				configs[c] = true
			}
		}
		cells := make([]cell, 0, 7)
		for _, b := range []int{1, 2, 4, 8, 16, 32} {
			if total == 0 {
				cells = append(cells, text("-"))
			} else {
				cells = append(cells, val(float64(batchServed[b])/float64(total), pct))
			}
		}
		t.Put(sys, append(cells, val(float64(len(configs)), verb("%.0f distinct")))...)
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
	systems := []string{"batch", "infless"}
	t := newTable("fig14", "Provisioned resources over a ramp load (ResNet-50)", systems,
		[]string{"meanWeighted", "peakWeighted", "areaWeighted.s"})
	var areas []float64
	for _, sys := range systems {
		s := opts.spec(sys, []scenario.Function{{Name: "resnet", Model: "ResNet-50", SLO: 200 * time.Millisecond}}, "", 0, dur)
		s.Functions[0].Traffic.Trace = tr
		s.Collector = telemetry.New(telemetry.Options{ResourceSampleEvery: 15 * time.Second})
		used := scenario.Run(s).Telemetry.Resources
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
		t.Put(sys, val(mean, f2), val(peak, f2), val(area, f0))
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
	systems, patterns := []string{"infless", "batch", "openfaas+"}, []string{"sporadic", "periodic", "bursty"}
	// Breakdown at SLO 150ms and 350ms (Figure 15 b/c).
	breakdowns := []time.Duration{150 * time.Millisecond, 350 * time.Millisecond}
	t := newTable("fig15", "SLO violation rate per trace + INFless latency breakdown",
		append(systems, labels("breakdown@%v", breakdowns)...), patterns)
	for _, sys := range systems {
		var cells []cell
		for _, pattern := range patterns {
			res := scenario.Run(opts.spec(sys, scenario.OSVT(), pattern, 60, dur))
			cells = append(cells, val(res.ViolationRate(), pct))
		}
		t.Put(sys, cells...)
	}
	for _, slo := range breakdowns {
		fns := scenario.OSVT()
		for i := range fns {
			fns[i].SLO = slo
		}
		s := opts.spec("infless", fns, "constant", 150, opts.dur(40*time.Second, 2*time.Minute))
		s.Collector = telemetry.New(telemetry.Options{})
		scenario.Run(s)
		var cold, queue, exec time.Duration
		var n time.Duration
		for _, fn := range fns {
			c, q, x := s.Collector.Recorder(fn.Name).Breakdown()
			cold += c
			queue += q
			exec += x
			n++
		}
		t.Put(fmt.Sprintf("breakdown@%v", slo), val(ms(cold/n), verb("cold=%.1fms")),
			val(ms(queue/n), verb("queue=%.1fms")), val(ms(exec/n), verb("exec=%.1fms")))
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

// coldRow is one cold-start policy of fig16 and fig16t.
type coldRow struct {
	name    string
	policy  func() coldstart.Policy
	preload bool
}

// coldStartTable replays each row's policy, one row per worker, over the
// three coldStartTraces: the cold rate per trace, then the means of the
// cold rate, the waste per invocation and, where cols has room, the
// startup delay.
func coldStartTable(opts Options, id, title string, rows []coldRow, cols []string) *Table {
	opts.defaults()
	days := 3
	if opts.Quick {
		days = 2
	}
	arrivalSets := coldStartTraces(opts.Seed, days)
	var names []string
	for _, r := range rows {
		names = append(names, r.name)
	}
	t := newTable(id, title, names, cols)
	cells := make([][]cell, len(rows))
	opts.parallelFor(len(rows), func(i int) {
		var coldSum, wasteSum, startSum float64
		for _, pattern := range []string{"sporadic", "periodic", "bursty"} {
			r := coldstart.Evaluate(rows[i].policy(), artifact.Default(), checkpointMB, rows[i].preload, arrivalSets[pattern])
			cells[i] = append(cells[i], val(r.ColdRate(), pct))
			coldSum += r.ColdRate()
			wasteSum += r.WastePerInvocation().Seconds()
			startSum += ms(r.MeanStartup())
		}
		cells[i] = append(cells[i], val(coldSum/3, pct), val(wasteSum/3, f1), val(startSum/3, f0))
	})
	for i, r := range rows {
		t.Put(r.name, cells[i][:len(cols)]...)
	}
	return t
}

// Fig16 replays low-rate invocation traces against the cold-start
// policies (fixed keep-alive, HHP, LSTH with gamma in {0.3, 0.5, 0.7}),
// each resting its artifact on SSD (the legacy shape).
func Fig16(opts Options) *Table {
	legacy := func(p func() coldstart.Policy) func() coldstart.Policy {
		return func() coldstart.Policy { return coldstart.LegacyTier(p()) }
	}
	lsth := func(gamma float64) func() coldstart.Policy {
		return legacy(func() coldstart.Policy { return coldstart.NewLSTH(coldstart.LSTHOptions{Gamma: gamma}) })
	}
	t := coldStartTable(opts, "fig16", "Cold-start rate / idle waste per invocation", []coldRow{
		{"fixed-300s", legacy(func() coldstart.Policy { return coldstart.Fixed{KeepAlive: coldstart.DefaultFixedKeepAlive} }), false},
		{"hhp", legacy(func() coldstart.Policy { return coldstart.NewHHP() }), false},
		{"lsth-0.3", lsth(0.3), false},
		{"lsth-0.5", lsth(0.5), false},
		{"lsth-0.7", lsth(0.7), false},
	}, []string{"sporadic", "periodic", "bursty", "meanCold", "meanWaste.s"})
	if t.Value("hhp", "meanCold") > 0 {
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
	lsth := func() coldstart.Policy { return coldstart.NewLSTH(coldstart.LSTHOptions{}) }
	t := coldStartTable(opts, "fig16t", "Cold-start 2.0: LSTH vs tiering vs tiering+pre-loading", []coldRow{
		{"lsth", func() coldstart.Policy { return coldstart.LegacyTier(lsth()) }, false},
		{"lsth+tier", lsth, false},
		{"lsth+tier+preload", lsth, true},
	}, []string{"sporadic", "periodic", "bursty", "meanCold", "meanWaste.s", "meanStartup.ms"})
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
	t := newTable("table4", "Computation cost comparison (periodic trace, OSVT)",
		[]string{"openfaas+", "aws-ec2-static", "batch", "infless"}, []string{"CPUs/100RPS", "GPUs/100RPS", "$/request"})
	const (
		cpuHour = 0.034
		gpuHour = 2.5 // per physical GPU = 10 units
	)
	row := func(name string, cpuSecs, gpuUnitSecs, served float64, durSecs float64) {
		if served == 0 {
			t.Put(name, text("-"), text("-"), text("-"))
			return
		}
		rps := served / durSecs
		cpus := cpuSecs / durSecs / (rps / 100)
		gpus := gpuUnitSecs / 10 / durSecs / (rps / 100)
		cost := (cpuSecs/3600*cpuHour + gpuUnitSecs/10/3600*gpuHour) / served
		t.Put(name, val(cpus, f2), val(gpus, f2), val(cost, verb("%.2e")))
	}
	var peak float64
	for _, sys := range []string{"openfaas+", "batch", "infless"} {
		res := scenario.Run(opts.spec(sys, scenario.OSVT(), "periodic", 120, dur))
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
	alphas := []float64{0.5, 0.7, 0.8, 0.9, 1.0}
	t := newTable("alpha", "Dispatcher damping alpha: launches vs efficiency (bursty ResNet-50)",
		labels("alpha=%.1f", alphas), []string{"launches", "thpt/res", "violation"})
	for _, alpha := range alphas {
		s := opts.spec("infless", []scenario.Function{{Name: "resnet", Model: "ResNet-50", SLO: 200 * time.Millisecond}}, "bursty", 3000, dur)
		s.INFless.Alpha = alpha
		res := scenario.Run(s)
		t.Put(fmt.Sprintf("alpha=%.1f", alpha), val(float64(res.Telemetry.Functions[0].Launches), f0),
			val(res.ThroughputPerResource(), f2), val(res.ViolationRate(), pct))
	}
	t.Note("low alpha scales in lazily (stable, wasteful); alpha=1 tracks r_low aggressively (oscillation risk)")
	return t
}
