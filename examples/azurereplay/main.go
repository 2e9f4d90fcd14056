// Azure replay: parse invocation traces in the Azure Functions dataset
// format (the paper's dynamic workload source), classify each function's
// pattern (sporadic / periodic / bursty, Figure 10), and replay the
// busiest one against INFless and BATCH.
//
//	go run ./examples/azurereplay                 # embedded sample day
//	go run ./examples/azurereplay -file day01.csv # a real dataset file
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"github.com/tanklab/infless/internal/baselines"
	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/sim"
	"github.com/tanklab/infless/internal/workload"
)

func main() {
	file := flag.String("file", "", "Azure-format CSV (default: embedded synthetic sample)")
	flag.Parse()

	var src string
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			log.Fatal(err)
		}
		src = string(data)
	} else {
		src = sampleDay()
	}

	rows, err := workload.ReadAzureCSV(strings.NewReader(src), 64)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-12s %-9s %10s %10s %10s\n", "function", "pattern", "meanRPS", "peakRPS", "idle%")
	var busiest workload.AzureFunctionTrace
	for _, r := range rows {
		idle := 0
		for _, v := range r.Trace.RPS {
			if v == 0 {
				idle++
			}
		}
		fmt.Printf("%-12s %-9s %10.2f %10.2f %9.0f%%\n",
			r.Function, workload.Classify(r.Trace), r.Trace.Mean(), r.Trace.Peak(),
			100*float64(idle)/float64(len(r.Trace.RPS)))
		if busiest.Trace == nil || r.Trace.Mean() > busiest.Trace.Mean() {
			busiest = r
		}
	}

	fmt.Printf("\nreplaying %s (x40 scale) on INFless and BATCH, ResNet-50 @ 200ms...\n\n", busiest.Function)
	dur := busiest.Trace.Duration()
	if dur > 4*time.Hour {
		dur = 4 * time.Hour
	}
	for _, mk := range []struct {
		name string
		ctrl sim.Controller
	}{
		{"infless", core.New(core.Options{})},
		{"batch", baselines.NewBatchSys()},
	} {
		e := sim.New(mk.ctrl, sim.Config{Cluster: cluster.Testbed(), Duration: dur, Seed: 1})
		e.AddFunction(sim.FunctionSpec{
			Name:  busiest.Function,
			Model: model.MustGet("ResNet-50"),
			SLO:   200 * time.Millisecond,
			Trace: busiest.Trace.Scale(40),
		})
		res := e.Run()
		fmt.Printf("%-9s served=%d dropped=%d viol=%.2f%% thpt/resource=%.2f\n",
			mk.name, res.Served(), res.Dropped(), 100*res.ViolationRate(), res.ThroughputPerResource())
	}
}

// sampleDay synthesizes a small Azure-format day: one diurnal function,
// one bursty, one sporadic (1440 per-minute invocation counts each).
func sampleDay() string {
	rng := rand.New(rand.NewSource(7))
	var b strings.Builder
	b.WriteString("HashOwner,HashApp,HashFunction,Trigger")
	for i := 1; i <= 1440; i++ {
		fmt.Fprintf(&b, ",%d", i)
	}
	b.WriteString("\n")
	row := func(name string, counts []int) {
		fmt.Fprintf(&b, "owner,app,%s,http", name)
		for _, c := range counts {
			fmt.Fprintf(&b, ",%d", c)
		}
		b.WriteString("\n")
	}
	diurnal := make([]int, 1440)
	bursty := make([]int, 1440)
	sporadic := make([]int, 1440)
	for m := 0; m < 1440; m++ {
		phase := 2 * math.Pi * (float64(m)/60 - 9) / 24
		base := 60 * (0.55 + 0.45*math.Sin(phase))
		diurnal[m] = int(base * (0.9 + 0.2*rng.Float64()))
		bursty[m] = diurnal[m]
		if rng.Intn(45) == 0 {
			bursty[m] *= 3 + rng.Intn(4)
		}
		if rng.Intn(60) == 0 { // a short active window now and then
			for k := 0; k < 5 && m+k < 1440; k++ {
				sporadic[m+k] = 20 + rng.Intn(40)
			}
		}
	}
	row("diurnalFn", diurnal)
	row("burstyFn", bursty)
	row("sporadicFn", sporadic)
	return b.String()
}
