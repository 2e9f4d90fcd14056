package infless_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	infless "github.com/tanklab/infless"
)

func TestPlatformQuickstart(t *testing.T) {
	p, err := infless.NewPlatform(infless.Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = p.Deploy(infless.FunctionConfig{
		Name:    "classify",
		Model:   "ResNet-50",
		SLO:     200 * time.Millisecond,
		Traffic: infless.Traffic{RPS: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(2 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.System != "infless" {
		t.Errorf("system = %s", rep.System)
	}
	if rep.Served < 5000 {
		t.Errorf("served = %d, want most of ~7200", rep.Served)
	}
	if rep.SLOViolationRate > 0.10 {
		t.Errorf("violation rate = %.3f", rep.SLOViolationRate)
	}
	if len(rep.Functions) != 1 || rep.Functions[0].Name != "classify" {
		t.Fatalf("function report missing: %+v", rep.Functions)
	}
	if !strings.Contains(rep.String(), "classify") {
		t.Error("String() should include function rows")
	}
}

// TestPlatformShardsTransparent pins the facade-level determinism
// contract of Options.Shards: a sharded control plane must reproduce
// the unsharded run exactly, and a negative count must be rejected.
func TestPlatformShardsTransparent(t *testing.T) {
	if _, err := infless.NewPlatform(infless.Options{Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	run := func(shards int) *infless.Report {
		p, err := infless.NewPlatform(infless.Options{Servers: 16, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		err = p.Deploy(infless.FunctionConfig{
			Name:    "classify",
			Model:   "ResNet-50",
			SLO:     200 * time.Millisecond,
			Traffic: infless.Traffic{RPS: 120},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Run(time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	flat, sharded := run(0), run(4)
	if flat.Served != sharded.Served || flat.Dropped != sharded.Dropped {
		t.Fatalf("sharded run diverged: served %d/%d dropped %d/%d",
			sharded.Served, flat.Served, sharded.Dropped, flat.Dropped)
	}
	if flat.SLOViolationRate != sharded.SLOViolationRate {
		t.Fatalf("violation rate diverged: %v vs %v",
			sharded.SLOViolationRate, flat.SLOViolationRate)
	}
}

func TestPlatformAllSystems(t *testing.T) {
	for _, sys := range []infless.System{infless.SystemINFless, infless.SystemBATCH, infless.SystemOpenFaaSPlus} {
		p, err := infless.NewPlatform(infless.Options{System: sys})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Deploy(infless.FunctionConfig{
			Name: "qa", Model: "TextCNN-69", SLO: 50 * time.Millisecond,
			Traffic: infless.Traffic{RPS: 50},
		}); err != nil {
			t.Fatal(err)
		}
		rep, err := p.Run(time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Served == 0 {
			t.Errorf("%s served nothing", sys)
		}
	}
}

func TestPlatformDeployErrors(t *testing.T) {
	p, _ := infless.NewPlatform(infless.Options{})
	cases := []infless.FunctionConfig{
		{Model: "MNIST", SLO: time.Second, Traffic: infless.Traffic{RPS: 1}},                                // no name
		{Name: "f", Model: "NoSuchModel", SLO: time.Second, Traffic: infless.Traffic{RPS: 1}},               // bad model
		{Name: "f", Model: "MNIST", Traffic: infless.Traffic{RPS: 1}},                                       // no SLO
		{Name: "f", Model: "MNIST", SLO: time.Second},                                                       // no traffic
		{Name: "f", Model: "MNIST", SLO: time.Second, Traffic: infless.Traffic{RPS: 1, Pattern: "tsunami"}}, // bad pattern
	}
	for i, c := range cases {
		if err := p.Deploy(c); err == nil {
			t.Errorf("case %d: expected deploy error", i)
		}
	}
	// A second function of the same name, chain stages included, is
	// rejected rather than merged into the first's report row.
	if err := p.Deploy(infless.FunctionConfig{Name: "x", Model: "MobileNet", SLO: 100 * time.Millisecond, Traffic: infless.Traffic{RPS: 5}}); err != nil {
		t.Fatal(err)
	}
	var fe *infless.FieldError
	err := p.Deploy(infless.FunctionConfig{Name: "x", Model: "ResNet-50", SLO: 200 * time.Millisecond, Traffic: infless.Traffic{RPS: 50}})
	if !errors.As(err, &fe) || fe.Field != "FunctionConfig.Name" {
		t.Errorf("duplicate function: error %v, want a FieldError on FunctionConfig.Name", err)
	}
	chain := infless.ChainConfig{Name: "c", Models: []string{"SSD", "MobileNet"}, SLO: time.Second, Traffic: infless.Traffic{RPS: 5}}
	if err := p.DeployChain(chain); err != nil {
		t.Fatal(err)
	}
	if err := p.DeployChain(chain); !errors.As(err, &fe) || fe.Field != "FunctionConfig.Name" {
		t.Errorf("duplicate chain: error %v, want a FieldError on FunctionConfig.Name", err)
	}
	rep, err := p.Run(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Functions) != 3 {
		t.Errorf("report has %d functions, want x and the chain's two stages", len(rep.Functions))
	}
	for _, f := range rep.Functions {
		if f.Name == "x" && f.SLO != 100*time.Millisecond {
			t.Errorf("x reports SLO %v, want the first deploy's 100ms", f.SLO)
		}
	}
	if _, err := infless.NewPlatform(infless.Options{System: "heroku"}); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestPlatformRunGuards(t *testing.T) {
	p, _ := infless.NewPlatform(infless.Options{})
	if _, err := p.Run(time.Minute); err == nil {
		t.Error("run without functions should fail")
	}
	p2, _ := infless.NewPlatform(infless.Options{})
	_ = p2.Deploy(infless.FunctionConfig{Name: "f", Model: "MNIST", SLO: time.Second, Traffic: infless.Traffic{RPS: 5}})
	if _, err := p2.Run(0); err == nil {
		t.Error("zero duration should fail")
	}
	if _, err := p2.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Run(time.Minute); err == nil {
		t.Error("second run should fail")
	}
	if err := p2.Deploy(infless.FunctionConfig{Name: "g", Model: "MNIST", SLO: time.Second, Traffic: infless.Traffic{RPS: 5}}); err == nil {
		t.Error("deploy after run should fail")
	}
}

func TestDeployTemplate(t *testing.T) {
	p, _ := infless.NewPlatform(infless.Options{})
	tpl := `functions:
  vision:
    model: MobileNet
    slo: 100ms
  text:
    model: TextCNN-69
    slo: 50ms
`
	if err := p.DeployTemplate(tpl, infless.Traffic{RPS: 30}); err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Functions) != 2 {
		t.Fatalf("deployed %d functions from template", len(rep.Functions))
	}
}

func TestSyntheticTrafficPatterns(t *testing.T) {
	burstyServed := map[int64]uint64{} // by Traffic.Seed
	for _, c := range []struct {
		pat  string
		seed int64
	}{{"periodic", 0}, {"bursty", 0}, {"sporadic", 0}, {"bursty", 7}} {
		p, _ := infless.NewPlatform(infless.Options{Seed: 3})
		if err := p.Deploy(infless.FunctionConfig{
			Name: "f", Model: "MobileNet", SLO: 100 * time.Millisecond,
			Traffic: infless.Traffic{Pattern: c.pat, RPS: 50, Seed: c.seed},
		}); err != nil {
			t.Fatal(err)
		}
		rep, err := p.Run(30 * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if c.pat != "sporadic" && rep.Served == 0 {
			t.Errorf("%s: nothing served", c.pat)
		}
		if c.pat == "bursty" {
			burstyServed[c.seed] = rep.Served
		}
	}
	// Traffic.Seed varies the pattern under one platform seed.
	if burstyServed[0] == burstyServed[7] {
		t.Errorf("bursty served %d with Traffic.Seed 7 and 0 alike", burstyServed[0])
	}
}

func TestProvisioningSeries(t *testing.T) {
	p, _ := infless.NewPlatform(infless.Options{
		Telemetry: infless.TelemetryOptions{ResourceSampleEvery: 10 * time.Second},
	})
	_ = p.Deploy(infless.FunctionConfig{Name: "f", Model: "ResNet-50", SLO: 200 * time.Millisecond, Traffic: infless.Traffic{RPS: 50}})
	rep, err := p.Run(2 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Provisioning) < 10 {
		t.Fatalf("provisioning series has %d samples", len(rep.Provisioning))
	}
	found := false
	for _, s := range rep.Provisioning {
		if s.CPUCores > 0 || s.GPUUnits > 0 {
			found = true
		}
	}
	if !found {
		t.Error("provisioning series never shows allocation")
	}
}

func TestModelsList(t *testing.T) {
	ms := infless.Models()
	if len(ms) < 11 {
		t.Fatalf("zoo lists %d models", len(ms))
	}
}

func TestEvaluateColdStartPolicyFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var arrivals []time.Duration
	now := time.Duration(0)
	for i := 0; i < 500; i++ {
		now += time.Duration(rng.Intn(120)+1) * time.Second
		arrivals = append(arrivals, now)
	}
	res := infless.EvaluateColdStartPolicy(infless.LSTHPolicy(infless.DefaultLSTHGamma), arrivals)
	if res.Invocations != 500 || res.ColdStartRate <= 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
}
