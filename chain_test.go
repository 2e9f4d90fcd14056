package infless_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	infless "github.com/tanklab/infless"
)

func TestDeployChainValidation(t *testing.T) {
	p, _ := infless.NewPlatform(infless.Options{})
	cases := []infless.ChainConfig{
		{Models: []string{"SSD", "ResNet-50"}, SLO: time.Second, Traffic: infless.Traffic{RPS: 10}},       // no name
		{Name: "c", Models: []string{"SSD"}, SLO: time.Second, Traffic: infless.Traffic{RPS: 10}},         // one stage
		{Name: "c", Models: []string{"SSD", "Nope"}, SLO: time.Second, Traffic: infless.Traffic{RPS: 10}}, // bad model
		{Name: "c", Models: []string{"SSD", "ResNet-50"}, Traffic: infless.Traffic{RPS: 10}},              // no SLO
		{Name: "c", Models: []string{"SSD", "ResNet-50"}, SLO: time.Second},                               // no traffic
		// SLOs too small to split: 2 ns leaves a stage 0 s, 1 ns leaves
		// nothing to normalize by.
		{Name: "c", Models: []string{"ResNet-50", "MobileNet"}, SLO: 2, Traffic: infless.Traffic{RPS: 10}},
		{Name: "c", Models: []string{"ResNet-50", "MobileNet"}, SLO: 1, Traffic: infless.Traffic{RPS: 10}},
	}
	for i, c := range cases {
		err := p.DeployChain(c)
		var fe *infless.FieldError
		if !errors.As(err, &fe) {
			t.Errorf("case %d: error %v is not a FieldError", i, err)
		} else if !strings.HasPrefix(fe.Field, "ChainConfig.") && !strings.HasPrefix(fe.Field, "Traffic.") {
			t.Errorf("case %d: error names %q", i, fe.Field)
		}
	}
	// A rejected chain deploys none of its stages: the next Run sees only
	// the function deployed after it.
	if err := p.Deploy(infless.FunctionConfig{Name: "f", Model: "MNIST", SLO: time.Second, Traffic: infless.Traffic{RPS: 5}}); err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Functions) != 1 || rep.Functions[0].Name != "f" {
		t.Errorf("report has %d functions, want only f: %+v", len(rep.Functions), rep.Functions)
	}
}

func TestChainEndToEnd(t *testing.T) {
	p, err := infless.NewPlatform(infless.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The OSVT pipeline as an actual chain: detect -> recognize -> classify.
	err = p.DeployChain(infless.ChainConfig{
		Name:    "osvt",
		Models:  []string{"SSD", "MobileNet", "ResNet-50"},
		SLO:     400 * time.Millisecond,
		Traffic: infless.Traffic{RPS: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(3 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Functions) != 3 {
		t.Fatalf("chain deployed %d functions, want 3", len(rep.Functions))
	}
	// Stage budgets must sum to 80% of the end-to-end target (slack for
	// the chain tail).
	var sum time.Duration
	for _, f := range rep.Functions {
		sum += f.SLO
	}
	if d := sum - 320*time.Millisecond; d < -2*time.Millisecond || d > 2*time.Millisecond {
		t.Errorf("stage SLOs sum to %v, want ~320ms", sum)
	}
	// Each downstream stage must have served roughly what the head served.
	head := rep.Functions[0].Served
	tail := rep.Functions[2].Served
	if head == 0 {
		t.Fatal("head served nothing")
	}
	if float64(tail) < float64(head)*0.9 {
		t.Errorf("tail served %d of head's %d", tail, head)
	}

	chains := p.Chains()
	if len(chains) != 1 {
		t.Fatalf("chain reports = %d, want 1", len(chains))
	}
	c := chains[0]
	if c.SLO != 400*time.Millisecond {
		t.Errorf("chain SLO = %v (stage SLOs must sum to the end-to-end target)", c.SLO)
	}
	if c.Served == 0 {
		t.Fatal("chain recorder saw nothing")
	}
	if c.SLOViolationRate > 0.10 {
		t.Errorf("chain violation rate = %.3f", c.SLOViolationRate)
	}
	if c.MeanLatency <= rep.Functions[0].MeanLatency {
		t.Errorf("chain latency %v should exceed a single stage's %v", c.MeanLatency, rep.Functions[0].MeanLatency)
	}
}

func TestChainDropsPropagate(t *testing.T) {
	// A chain on a starved cluster must report end-to-end drops.
	p, _ := infless.NewPlatform(infless.Options{Seed: 4, Servers: 1})
	err := p.DeployChain(infless.ChainConfig{
		Name:    "heavy",
		Models:  []string{"Bert-v1", "VGGNet-19"},
		SLO:     600 * time.Millisecond,
		Traffic: infless.Traffic{RPS: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	cs := p.Chains()
	if len(cs) != 1 {
		t.Fatal("missing chain report")
	}
	if cs[0].Dropped == 0 {
		t.Error("overloaded chain should report drops")
	}
}
