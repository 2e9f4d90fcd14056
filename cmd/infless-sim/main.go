// Command infless-sim runs one serverless-inference scenario — a system,
// a set of functions, a traffic pattern — on the simulated cluster and
// prints the resulting report.
//
// Usage:
//
//	infless-sim -system infless -scenario osvt -pattern bursty -rps 120 -duration 30m
//	infless-sim -system batch -model ResNet-50 -slo 200ms -rps 100
//	infless-sim -template functions.yml -rps 50
//	infless-sim -rps 100 -json > report.json
//	infless-sim -rps 100 -trace events.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	infless "github.com/tanklab/infless"
	"github.com/tanklab/infless/internal/artifact"
)

func main() {
	var (
		system   = flag.String("system", "infless", "control plane: infless | batch | openfaas+")
		scenario = flag.String("scenario", "", "predefined scenario: osvt | qa (overrides -model)")
		modelN   = flag.String("model", "ResNet-50", "model to deploy (see -models)")
		slo      = flag.Duration("slo", 200*time.Millisecond, "latency SLO")
		rps      = flag.Float64("rps", 100, "request rate (base rate for synthetic patterns)")
		pattern  = flag.String("pattern", "constant", "traffic: constant | sporadic | periodic | bursty")
		duration = flag.Duration("duration", 10*time.Minute, "simulated duration")
		servers  = flag.Int("servers", 8, "cluster size")
		shards   = flag.Int("shards", 1, "control-plane shard count (decisions are identical at any count)")
		seed     = flag.Int64("seed", 1, "random seed")
		template = flag.String("template", "", "deploy functions from an INFless template file")
		models   = flag.Bool("models", false, "list the model zoo and exit")
		jsonOut  = flag.Bool("json", false, "print the report as JSON instead of the summary table")
		traceOut = flag.String("trace", "", "write per-request lifecycle events as JSONL to this file (- for stderr)")
		storage  = flag.String("storage", "off", "artifact storage profile: off | tiered | preload")
	)
	flag.Parse()

	if *models {
		for _, m := range infless.Models() {
			fmt.Println(m)
		}
		return
	}

	opts := infless.Options{
		System:  infless.System(*system),
		Servers: *servers,
		Shards:  *shards,
		Seed:    *seed,
	}
	st, err := artifact.Profile(*storage)
	check(err)
	opts.Storage = infless.StorageOptions{Enabled: st.Enabled, Preload: st.Preload}
	var traceFile *os.File
	if *traceOut == "-" {
		opts.Telemetry.Trace = os.Stderr
	} else if *traceOut != "" {
		f, err := os.Create(*traceOut)
		check(err)
		traceFile = f
		opts.Telemetry.Trace = f
	}
	p, err := infless.NewPlatform(opts)
	check(err)

	traffic := infless.Traffic{Pattern: *pattern, RPS: *rps}
	switch {
	case *template != "":
		data, err := os.ReadFile(*template)
		check(err)
		check(p.DeployTemplate(string(data), traffic))
	case *scenario == "osvt":
		for _, m := range []string{"SSD", "MobileNet", "ResNet-50"} {
			check(p.Deploy(infless.FunctionConfig{Name: "osvt-" + m, Model: m, SLO: 200 * time.Millisecond, Traffic: traffic}))
		}
	case *scenario == "qa":
		for _, m := range []string{"TextCNN-69", "LSTM-2365", "DSSM-2389"} {
			check(p.Deploy(infless.FunctionConfig{Name: "qa-" + m, Model: m, SLO: 50 * time.Millisecond, Traffic: traffic}))
		}
	case *scenario != "":
		check(fmt.Errorf("unknown scenario %q (want osvt or qa)", *scenario))
	default:
		check(p.Deploy(infless.FunctionConfig{Name: "fn", Model: *modelN, SLO: *slo, Traffic: traffic}))
	}

	rep, err := p.Run(*duration)
	check(err)
	if traceFile != nil {
		check(traceFile.Close())
	}
	if *jsonOut {
		check(rep.WriteJSON(os.Stdout))
		return
	}
	fmt.Print(rep.String())
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "infless-sim:", err)
		os.Exit(1)
	}
}
