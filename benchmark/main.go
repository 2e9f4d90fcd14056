// Command benchmark is the repository's one performance benchmark: it
// runs one workload against both planes' public entry points, checks the
// outputs, and prints every metric by name with its unit.
//
//	go run ./benchmark --workload gw_dispatch --seed 1 --seconds 20 --trace 0
//
// Run it from the repository root: the metric names, units and bounds
// come from BENCHMARK.json there. README.md in this directory has the
// workload and metric tables and how to read the trace.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// spec is the part of BENCHMARK.json the program reads: the single list
// of workloads and of metrics with their units and bounds.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadSpec() (*spec, error) {
	buf, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("read BENCHMARK.json (run from the repository root): %w", err)
	}
	var s spec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// runner is what the run protocol drives: one workload, set up once. One value serves one
// set-up: the protocol builds a fresh one for every repeated set-up and
// for the traced pass.
type runner interface {
	// setup builds the system under test from the seed-generated inputs
	// and runs the fixed-work warm-up; its wall time is setup_s.
	setup(tr *tracer) error
	// segment runs one fixed-work segment and checks its outputs.
	segment(tr *tracer) (segment, error)
	// report returns the workload's own end-to-end metrics (the policy
	// outcomes) given the wall-clock aggregate, after its final checks.
	report(w wallClock) (map[string]float64, error)
	// layers runs after the traced segments, on the traced instance: the
	// observer's counts, the span roll-up and the isolated timings of
	// the layer functions this workload exercises.
	layers(tr *tracer, w wallClock) (map[string]float64, error)
	// minSegments is the least number of segments a run must measure.
	minSegments() int
	close()
}

// segment is the outcome of one fixed-work segment.
type segment struct {
	ops    int64   // operations completed and checked
	failed int64   // operations whose output check failed
	latNs  []int64 // wall time per operation; nil where latency is virtual
}

// wallClock aggregates the measured segments.
type wallClock struct {
	segments   int
	samples    int64
	throughput float64 // operations per wall second, best-eighth mean
	p50Ms      float64
	tailMs     float64 // p99, or the highest percentile the sample supports
	tailQ      float64
	cpuUs      float64
	allocBytes float64 // per operation
	mallocs    float64 // per operation
}

type newRunner func(seed int64) runner

var workloads = map[string]newRunner{
	"gw_dispatch": func(seed int64) runner { return newGateway(seed, false) },
	"gw_http":     func(seed int64) runner { return newGateway(seed, true) },
	"sim_fleet":   func(seed int64) runner { return newSimFleet(seed) },
	"sched_scale": func(seed int64) runner { return newSchedScale(seed) },
}

// Protocol constants. Set-up is repeated because one set-up is about a
// second of CPU-bound work, too short to repeat within a tenth on a
// shared host; the median of five is what setup_s reports.
const (
	setupRepeats   = 5
	tracedSegments = 3
	// wallClockSegments is the least number of segments behind a
	// best-eighth mean on the wall-clock workloads.
	wallClockSegments = 32
	// tracedShare is the part of --seconds a traced run spends on
	// untraced segments (it needs them only for trace.overhead_pct).
	tracedShare = 0.4
)

func main() {
	name := flag.String("workload", "", "gw_dispatch | gw_http | sim_fleet | sched_scale (selfcheck also takes all)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs (traces, RNG draws); never a program option")
	seconds := flag.Float64("seconds", 20, "how long to run measured segments")
	trace := flag.Int("trace", 0, "1 adds the traced pass and prints the per-layer metrics instead of the end-to-end ones")
	selfcheck := flag.Bool("selfcheck", false, "run the workload 5 times and report the spread of every end-to-end metric")
	flag.Parse()

	sp, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *selfcheck {
		if err := runSelfcheck(context.Background(), sp, *name, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	mk, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	out, err := run(*name, mk, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *name, err))
	}
	if err := emit(sp, out, *trace == 1); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// outcome is everything one run measured.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	medians           map[string]float64 // plain median across segments, wall-clock metrics only
	segThroughput     []float64          // per segment, in order: shows drift and disturbed segments
	segCalib          []float64          // the spin loop's ns before each segment
	setups            []float64          // seconds, in order
	wall              wallClock
}

// run is the protocol every workload follows: repeated set-up, then
// fixed-work segments until the time is used, then (with trace) a fresh
// traced instance.
func run(name string, mk newRunner, seed int64, dur time.Duration, traced bool) (*outcome, error) {
	repeats := setupRepeats
	if traced {
		dur = time.Duration(float64(dur) * tracedShare)
		repeats = 1
	}
	out := &outcome{metrics: map[string]float64{}, medians: map[string]float64{}}
	// The first set-up builds the instance the segments run on; the other
	// timed set-ups build throwaway instances between segments, spread
	// over the run, so that a few seconds of host interference cannot
	// sit under most of them.
	timedSetup := func() (runner, error) {
		w := mk(seed)
		t0 := time.Now()
		if err := w.setup(nil); err != nil {
			w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
		return w, nil
	}
	w, err := timedSetup()
	if err != nil {
		return nil, err
	}
	defer w.close()
	throwaway := func() error {
		extra, err := timedSetup()
		if err == nil {
			extra.close()
		}
		return err
	}

	var thr, p50, tail, cpu, calib []float64
	var allocBytes, mallocs uint64
	var measured time.Duration
	for len(thr) < w.minSegments() || measured < dur {
		if len(out.setups) < repeats && measured >= dur*time.Duration(len(out.setups))/time.Duration(repeats) {
			if err := throwaway(); err != nil {
				return nil, err
			}
		}
		calib = append(calib, float64(calibrate()))
		before := readCounters()
		seg, err := w.segment(nil)
		after := readCounters()
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", len(thr), err)
		}
		out.attempted += seg.ops + seg.failed
		out.failed += seg.failed
		if seg.ops == 0 {
			return nil, fmt.Errorf("segment %d completed no operation", len(thr))
		}
		allocBytes += after.alloc - before.alloc
		mallocs += after.mallocs - before.mallocs
		wall := after.wall.Sub(before.wall)
		measured += wall
		ops := float64(seg.ops)
		thr = append(thr, ops/wall.Seconds())
		cpu = append(cpu, float64(after.cpu-before.cpu)/1e3/ops)
		if seg.latNs != nil {
			slices.Sort(seg.latNs)
			p50 = append(p50, float64(quantileSorted(seg.latNs, 0.5))/1e6)
			t, q := tailQuantile(seg.latNs)
			tail = append(tail, float64(t)/1e6)
			out.wall.tailQ = q
			out.wall.samples += int64(len(seg.latNs))
		}
	}
	for len(out.setups) < repeats { // a run too short to spread them
		if err := throwaway(); err != nil {
			return nil, err
		}
	}
	out.wall.segments = len(thr)
	out.segThroughput, out.segCalib = thr, calib
	out.wall.throughput = bestMean(thr, higher)
	out.wall.p50Ms = bestMean(p50, lower)
	out.wall.tailMs = bestMean(tail, lower)
	out.wall.cpuUs = bestMean(cpu, lower)
	// Allocation per operation is a property of the code and its inputs,
	// not of the host: it is taken over all segments together, so that
	// sim_fleet's cells, which differ, all weigh in.
	ops := float64(out.attempted - out.failed)
	out.wall.allocBytes = float64(allocBytes) / ops
	out.wall.mallocs = float64(mallocs) / ops

	m := out.metrics
	m["setup_s"] = median(out.setups)
	m["throughput_ops_s"] = out.wall.throughput
	m["latency_p50_ms"] = out.wall.p50Ms
	m["cpu_us_per_op"] = out.wall.cpuUs
	m["alloc_bytes_per_op"] = out.wall.allocBytes
	out.medians["throughput_ops_s"] = median(thr)
	out.medians["cpu_us_per_op"] = median(cpu)
	if len(p50) > 0 {
		out.medians["latency_p50_ms"] = median(p50)
	}
	own, err := w.report(out.wall)
	if err != nil {
		return nil, err
	}
	for k, v := range own {
		m[k] = v
	}
	if _, virtual := m["latency_p99_ms"]; !virtual {
		m["latency_p99_ms"] = out.wall.tailMs
	}
	m["host.calib_ns"] = bestMean(calib, lower)
	m["host.calib_spread_pct"] = 100 * (median(calib) - m["host.calib_ns"]) / m["host.calib_ns"]

	if traced {
		if err := tracedPass(name, mk, seed, out); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["proc.peak_rss_mb"] = peakRSSMB()
	m["proc.gc_cycles"] = float64(ms.NumGC)
	m["proc.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
	m["host.nproc"] = float64(runtime.NumCPU())
	return out, nil
}

// tracedPass builds a fresh instance with the tracer (and, inside the
// workload, the benchmark's runtime.Observer) attached, runs the traced
// segments, rolls the spans up and writes them out. End-to-end numbers
// never come from here; the difference in throughput is the tracing
// overhead.
func tracedPass(name string, mk newRunner, seed int64, out *outcome) error {
	tr := newTracer()
	w := mk(seed)
	defer w.close()
	if err := w.setup(tr); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	var thr []float64
	for i := 0; i < tracedSegments; i++ {
		t0 := time.Now()
		seg, err := w.segment(tr)
		if err != nil {
			return fmt.Errorf("segment %d: %w", i, err)
		}
		if seg.failed > 0 {
			return fmt.Errorf("segment %d: %d operations failed their check", i, seg.failed)
		}
		thr = append(thr, float64(seg.ops)/time.Since(t0).Seconds())
	}
	layers, err := w.layers(tr, out.wall)
	if err != nil {
		return err
	}
	for k, v := range layers {
		out.metrics[k] = v
	}
	out.metrics["trace.overhead_pct"] = 100 * (1 - slices.Max(thr)/out.wall.throughput)
	out.metrics["trace.spans"] = float64(len(tr.spans))
	out.metrics["proc.goroutines_end"] = float64(runtime.NumGoroutine())
	return tr.writeJSONL(fmt.Sprintf("benchmark/out/trace_%s.jsonl", name))
}

// result is the one JSON object the last line of standard output holds.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every measured metric by name with its unit, then the
// result object: the end-to-end metrics of BENCHMARK.json, or with
// trace its per-layer metrics. A per-layer metric of a layer the
// workload does not touch reads 0: no work was done there.
func emit(sp *spec, out *outcome, traced bool) error {
	names := make([]string, 0, len(out.metrics))
	for k := range out.metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	units := map[string]string{}
	for _, ms := range slices.Concat(sp.EndToEnd, sp.PerLayer) {
		units[ms.Name] = ms.Unit
	}
	fmt.Printf("segments %d  attempted %d  succeeded %d  failed %d\n",
		out.wall.segments, out.attempted, out.attempted-out.failed, out.failed)
	if out.wall.samples > 0 {
		fmt.Printf("wall-clock latency: %d samples, tail read at p%g\n", out.wall.samples, 100*out.wall.tailQ)
	}
	fmt.Printf("setup_s by repeat: %.4g\n", out.setups)
	fmt.Printf("throughput_ops_s by segment: %.4g\n", out.segThroughput)
	fmt.Printf("host.calib_ns before each segment: %.4g\n", out.segCalib)
	for _, k := range names {
		if _, listed := units[k]; !listed {
			return fmt.Errorf("metric %s is measured but not listed in BENCHMARK.json", k)
		}
		line := fmt.Sprintf("%-34s %16.6g %s", k, out.metrics[k], units[k])
		if med, ok := out.medians[k]; ok {
			line += fmt.Sprintf("   (median of segments %.6g)", med)
		}
		fmt.Println(line)
	}

	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	list := sp.EndToEnd
	if traced {
		list = sp.PerLayer
	}
	for _, ms := range list {
		v, ok := out.metrics[ms.Name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", ms.Name)
		}
		res.Metrics[ms.Name] = metricValue{Value: v, Unit: ms.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("output checks failed")
	}
	return nil
}
