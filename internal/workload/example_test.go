package workload_test

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"strings"

	"github.com/tanklab/infless/internal/workload"
)

// Parse one day in the Azure Functions dataset format, 1,440 per-minute
// invocation counts a row, and label each function with Figure 10's
// taxonomy.
func ExampleReadAzureCSV() {
	rows, err := workload.ReadAzureCSV(strings.NewReader(sampleDay()), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-11s %-9s %7s %7s %5s\n", "function", "pattern", "meanRPS", "peakRPS", "idle")
	for _, r := range rows {
		idle := 0
		for _, v := range r.Trace.RPS {
			if v == 0 {
				idle++
			}
		}
		fmt.Printf("%-11s %-9s %7.2f %7.2f %4.0f%%\n", r.Function, workload.Classify(r.Trace),
			r.Trace.Mean(), r.Trace.Peak(), 100*float64(idle)/float64(len(r.Trace.RPS)))
	}
	// Output:
	// function    pattern   meanRPS peakRPS  idle
	// diurnalFn   periodic     0.54    1.08    0%
	// burstyFn    bursty       0.60    6.30    0%
	// sporadicFn  sporadic     0.07    0.98   90%
}

// sampleDay synthesizes an Azure-format day of three functions: one
// diurnal, the same with bursts on top, and one idle but for short
// active windows.
func sampleDay() string {
	rng := rand.New(rand.NewSource(7))
	diurnal, bursty, sporadic := make([]int, 1440), make([]int, 1440), make([]int, 1440)
	for m := range diurnal {
		phase := 2 * math.Pi * (float64(m)/60 - 9) / 24
		diurnal[m] = int(60 * (0.55 + 0.45*math.Sin(phase)) * (0.9 + 0.2*rng.Float64()))
		bursty[m] = diurnal[m]
		if rng.Intn(45) == 0 {
			bursty[m] *= 3 + rng.Intn(4)
		}
		if rng.Intn(60) == 0 {
			for k := 0; k < 5 && m+k < 1440; k++ {
				sporadic[m+k] = 20 + rng.Intn(40)
			}
		}
	}
	var b strings.Builder
	b.WriteString("HashOwner,HashApp,HashFunction,Trigger")
	for i := 1; i <= 1440; i++ {
		fmt.Fprintf(&b, ",%d", i)
	}
	for _, row := range []struct {
		name   string
		counts []int
	}{{"diurnalFn", diurnal}, {"burstyFn", bursty}, {"sporadicFn", sporadic}} {
		fmt.Fprintf(&b, "\nowner,app,%s,http", row.name)
		for _, c := range row.counts {
			fmt.Fprintf(&b, ",%d", c)
		}
	}
	return b.String() + "\n"
}
