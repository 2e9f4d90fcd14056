package infless_test

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	infless "github.com/tanklab/infless"
)

// Deploy one inference function on INFless, drive it with a constant
// load and read back the latency and SLO report.
func Example() {
	// An INFless platform on the paper's 8-server, 16-GPU testbed.
	p, err := infless.NewPlatform(infless.Options{System: infless.SystemINFless, Servers: 8, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	// A ResNet-50 classifier behind a 200 ms SLO, the paper's running
	// example. The platform profiles the model's operators, derives the
	// feasible <batchsize, CPU, GPU> configurations and scales by itself.
	err = p.Deploy(infless.FunctionConfig{
		Name:    "classify",
		Model:   "ResNet-50",
		SLO:     200 * time.Millisecond,
		Traffic: infless.Traffic{Pattern: "constant", RPS: 150},
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := p.Run(5 * time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep)
	fmt.Println("batch sizes used:", rep.Functions[0].SortedBatchSizes())
	// Output:
	// system=infless duration=5m0s served=44688 dropped=475
	// throughput=149.0 rps  throughput/resource=35.42  slo-violation=1.27%  fragmentation=79.8%
	// function          served    viol%    cold%      p99   coldAvg  queueAvg   execAvg
	// classify           44688    1.27%    0.05%  208.2ms     0.0ms    89.6ms    18.3ms
	// batch sizes used: [11 12 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32]
}

// The paper's Q&A robot: three text models behind a 50 ms SLO, deployed
// from an INFless function template (Figure 5) and run on a diurnal trace.
func ExamplePlatform_DeployTemplate() {
	const template = `
provider:
  name: infless
functions:
  qa-understand:
    image: sdcbench/tfserving-infless:latest
    model: TextCNN-69
    slo: 50ms
    maxbatchsize: 2
  qa-context:
    image: sdcbench/tfserving-infless:latest
    model: LSTM-2365
    slo: 50ms
  qa-match:
    image: sdcbench/tfserving-infless:latest
    model: DSSM-2389
    slo: 50ms
`
	p, err := infless.NewPlatform(infless.Options{System: infless.SystemINFless, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	if err := p.DeployTemplate(template, infless.Traffic{Pattern: "periodic", RPS: 250}); err != nil {
		log.Fatal(err)
	}
	rep, err := p.Run(time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep)
	// Eq. 1 leaves a batch t_exec <= t_slo/2 = 25 ms, so the scheduler
	// picks small, fast configurations (batch, CPU cores, GPU units);
	// qa-understand's maxbatchsize caps its batches at 2.
	for _, f := range rep.Functions {
		fmt.Printf("%-14s configs=%v\n", f.Name, f.ConfigUsage)
	}
	// Output:
	// system=infless duration=1h0m0s served=519984 dropped=718
	// throughput=144.4 rps  throughput/resource=124.02  slo-violation=0.96%  fragmentation=94.4%
	// function          served    viol%    cold%      p99   coldAvg  queueAvg   execAvg
	// qa-context        173209    0.19%    0.00%   48.2ms     0.0ms    10.0ms    11.0ms
	// qa-match          173200    2.52%    0.00%   53.1ms     0.0ms    11.2ms    16.4ms
	// qa-understand     173575    0.17%    0.00%   50.6ms     0.0ms     9.8ms     3.4ms
	// qa-context     configs=map[(2,1,0):1]
	// qa-match       configs=map[(2,1,0):1]
	// qa-understand  configs=map[(2,1,1):1]
}

// The paper's OSVT scenario as a three-stage chain under one end-to-end
// SLO: SSD detects the vehicle, MobileNet reads its plate and ResNet-50
// classifies it. Each stage gets a slice of the budget and batches on its
// own.
func ExamplePlatform_DeployChain() {
	p, err := infless.NewPlatform(infless.Options{System: infless.SystemINFless, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	err = p.DeployChain(infless.ChainConfig{
		Name:    "osvt",
		Models:  []string{"SSD", "MobileNet", "ResNet-50"},
		SLO:     400 * time.Millisecond,
		Traffic: infless.Traffic{Pattern: "bursty", RPS: 80},
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := p.Run(20 * time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range rep.Functions {
		fmt.Printf("%-18s budget=%v served=%d viol=%.2f%% p99=%v\n", f.Name,
			f.SLO.Round(time.Millisecond), f.Served, 100*f.SLOViolationRate, f.P99Latency.Round(time.Millisecond))
	}
	for _, c := range p.Chains() {
		fmt.Printf("end to end: completed=%d dropped=%d viol=%.2f%% mean=%v p99=%v\n", c.Served, c.Dropped,
			100*c.SLOViolationRate, c.MeanLatency.Round(time.Millisecond), c.P99Latency.Round(time.Millisecond))
	}
	// Output:
	// osvt-0-SSD         budget=134ms served=20641 viol=0.27% p99=134ms
	// osvt-1-MobileNet   budget=68ms served=20580 viol=0.30% p99=10ms
	// osvt-2-ResNet-50   budget=118ms served=19889 viol=3.36% p99=100ms
	// end to end: completed=19889 dropped=807 viol=3.90% mean=103ms p99=198ms
}

// Replay three days of invocations against the keep-alive policies of
// Figure 16. The rate switches between a dense and a sparse regime every
// 6 hours, longer than HHP's 4-hour memory, with an occasional burst.
func ExampleEvaluateColdStartPolicy() {
	rng := rand.New(rand.NewSource(3))
	var arrivals []time.Duration
	for now := time.Duration(0); now < 72*time.Hour; {
		median := 30 * time.Second
		if now/(6*time.Hour)%2 == 1 {
			median = 5 * time.Minute
		}
		gap := time.Duration(float64(median) * math.Exp(0.7*rng.NormFloat64()))
		if rng.Intn(100) == 0 {
			for i := 0; i < 20; i++ {
				now += time.Duration(rng.Intn(2000)) * time.Millisecond
				arrivals = append(arrivals, now)
			}
		}
		now += gap
		arrivals = append(arrivals, now)
	}
	for _, r := range []infless.ColdStartResult{
		infless.EvaluateColdStartPolicy(infless.FixedKeepAlivePolicy(5*time.Minute), arrivals),
		infless.EvaluateColdStartPolicy(infless.HHPPolicy(), arrivals),
		infless.EvaluateColdStartPolicy(infless.LSTHPolicy(infless.DefaultLSTHGamma), arrivals),
	} {
		fmt.Printf("%-12s invocations=%d cold=%.2f%% waste/invocation=%v\n",
			r.Policy, r.Invocations, 100*r.ColdStartRate, r.WastePerInvocation.Round(time.Millisecond))
	}
	// Output:
	// fixed        invocations=4362 cold=3.81% waste/invocation=47.622s
	// hhp          invocations=4362 cold=4.54% waste/invocation=50.755s
	// lsth(γ=0.5)  invocations=4362 cold=3.78% waste/invocation=51.383s
}
