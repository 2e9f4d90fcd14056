// Command infless-loadgen drives an INFless gateway with trace-shaped
// load and reports client-side latency statistics — the role of the
// paper artifact's loadGen tool.
//
//	infless-loadgen -url http://localhost:8080/function/classify \
//	    -pattern bursty -rps 80 -duration 2m -slo 200ms
//	infless-loadgen -url ... -trace trace.csv
//	infless-loadgen -url ... -mode closed -connections 128 -duration 30s
//	infless-loadgen -url ... -mode saturate -rps 100 -step 3s -json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"github.com/tanklab/infless/internal/loadgen"
	"github.com/tanklab/infless/internal/workload"
)

func main() {
	var (
		url      = flag.String("url", "", "invocation endpoint (required)")
		mode     = flag.String("mode", "open", "open | closed | saturate")
		pattern  = flag.String("pattern", "constant", "constant | sporadic | periodic | bursty (open mode)")
		rps      = flag.Float64("rps", 50, "request rate (base rate for synthetic patterns; start rate for saturate)")
		duration = flag.Duration("duration", time.Minute, "load duration (trace time)")
		step     = flag.Duration("step", 3*time.Second, "per-step duration of the saturate ramp")
		conns    = flag.Int("connections", 64, "worker pool size / closed-loop concurrency")
		speed    = flag.Float64("speed", 1, "trace-time acceleration")
		slo      = flag.Duration("slo", 0, "classify responses against this latency target")
		traceCSV = flag.String("trace", "", "drive load from a CSV trace instead of -pattern")
		seed     = flag.Int64("seed", 1, "random seed")
		jsonOut  = flag.Bool("json", false, "emit results as JSON")
	)
	flag.Parse()
	if *url == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -url is required")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *mode == "saturate" {
		res, err := loadgen.Saturate(ctx, loadgen.SaturationConfig{
			URL:          *url,
			StartRPS:     *rps,
			StepDuration: *step,
			Connections:  *conns,
			SLO:          *slo,
			Seed:         *seed,
		})
		if err != nil && err != context.Canceled {
			fatal(err)
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			_ = enc.Encode(res)
			return
		}
		for _, s := range res.Steps {
			fmt.Printf("target=%.0frps sustained=%v %v\n", s.TargetRPS, s.Sustained, s.Stats)
		}
		fmt.Printf("max sustained: %.0f rps\n", res.MaxSustainedRPS)
		return
	}

	var tr *workload.Trace
	var err error
	switch {
	case *mode == "closed":
		// no trace: closed loop is latency-bound, not trace-shaped
	case *traceCSV != "":
		f, ferr := os.Open(*traceCSV)
		if ferr != nil {
			fatal(ferr)
		}
		tr, err = workload.ReadCSV(f, *traceCSV)
		f.Close()
	case *pattern == "constant":
		tr = workload.Constant(*rps, *duration, time.Minute)
	default:
		tr, err = workload.ByName(*pattern, workload.Options{
			Seed:    *seed,
			Days:    int(*duration/(24*time.Hour)) + 1,
			BaseRPS: *rps,
		})
	}
	if err != nil {
		fatal(err)
	}

	stats, err := loadgen.Run(ctx, loadgen.Config{
		URL:         *url,
		Mode:        loadgen.Mode(*mode),
		Trace:       tr,
		Duration:    *duration,
		SpeedFactor: *speed,
		Connections: *conns,
		SLO:         *slo,
		Seed:        *seed,
	})
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(stats)
	} else {
		fmt.Println(stats)
	}
	if err != nil && err != context.Canceled {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
