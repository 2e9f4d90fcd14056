package sim

// artifact_test.go pins the tiered cold-start lifecycle inside the
// engine: launches price by the server's resident tier and promote the
// checkpoint to DRAM, reclaim demotes per the keep-alive policy and
// opportunistically pre-loads other functions, and a nil or disabled
// Storage config keeps the legacy scalar path bit-identical.

import (
	"testing"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/coldstart"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/perf"
	"github.com/tanklab/infless/internal/workload"
)

func tieredEngine(t *testing.T, st *artifact.Config) (*Engine, *FunctionState) {
	t.Helper()
	ctrl := &manualController{cand: testCand(4, perf.Resources{CPU: 2}, 20*time.Millisecond, 200*time.Millisecond)}
	e := New(ctrl, Config{Cluster: cluster.Testbed(), Duration: 30 * time.Second, Seed: 1, Storage: st})
	f := e.AddFunction(FunctionSpec{
		Name:  "f",
		Model: model.MustGet("MNIST"),
		SLO:   200 * time.Millisecond,
		Trace: workload.Constant(10, 30*time.Second, time.Second),
	})
	return e, f
}

// TestTieredLaunchPricesByCacheTier checks that cold launches are priced
// by the tier holding the checkpoint and that a launch promotes it: the
// first launch pays the SSD load (plus the DRAM promote), the second on
// the same server pays only the DRAM load.
func TestTieredLaunchPricesByCacheTier(t *testing.T) {
	st := artifact.DefaultConfig()
	e, f := tieredEngine(t, &st)
	cand := testCand(4, perf.Resources{CPU: 2}, 20*time.Millisecond, 200*time.Millisecond)
	size := f.Spec.Model.MemoryMB

	first := e.Launch(f, cand, 0)
	if first == nil {
		t.Fatal("first launch failed")
	}
	wantFirst := st.Hierarchy.Startup(size, artifact.TierSSD)
	wantFirst.Promote = st.Hierarchy.PromoteTime(size, artifact.TierDRAM)
	if first.ReadyAt != wantFirst.Total() {
		t.Errorf("first launch ReadyAt = %v, want SSD startup + promote = %v", first.ReadyAt, wantFirst.Total())
	}
	if tier := e.Cluster().Server(0).Artifacts().Tier(f.Spec.Name); tier != artifact.TierDRAM {
		t.Errorf("after launch artifact resides at %v, want dram", tier)
	}

	second := e.Launch(f, cand, 0)
	if second == nil {
		t.Fatal("second launch failed")
	}
	wantSecond := st.Hierarchy.Startup(size, artifact.TierDRAM).Total()
	if second.ReadyAt != wantSecond {
		t.Errorf("second launch ReadyAt = %v, want DRAM startup = %v", second.ReadyAt, wantSecond)
	}
	if second.ReadyAt >= first.ReadyAt {
		t.Errorf("DRAM-resident launch (%v) not faster than SSD launch (%v)", second.ReadyAt, first.ReadyAt)
	}

	// A server that has never seen the artifact... is not possible via
	// deploy-time seeding; force the miss state and check remote pricing.
	e.Cluster().Server(1).Artifacts().Demote(f.Spec.Name, artifact.TierRemote)
	third := e.Launch(f, cand, 1)
	if third == nil {
		t.Fatal("third launch failed")
	}
	wantRemote := st.Hierarchy.Startup(size, artifact.TierRemote)
	wantRemote.Promote = st.Hierarchy.PromoteTime(size, artifact.TierDRAM)
	if third.ReadyAt != wantRemote.Total() {
		t.Errorf("remote-miss launch ReadyAt = %v, want remote startup + promote = %v", third.ReadyAt, wantRemote.Total())
	}
}

// TestTieredDisabledPathUnchanged checks the bit-identical contract: a
// nil Storage and a disabled Storage config both price cold starts with
// the legacy scalar formula and leave the cluster without caches.
func TestTieredDisabledPathUnchanged(t *testing.T) {
	cand := testCand(4, perf.Resources{CPU: 2}, 20*time.Millisecond, 200*time.Millisecond)
	for _, tc := range []struct {
		name string
		st   *artifact.Config
	}{
		{"nil", nil},
		{"disabled", &artifact.Config{}},
	} {
		e, f := tieredEngine(t, tc.st)
		if e.Cluster().Server(0).Artifacts() != nil {
			t.Errorf("%s: cluster grew artifact caches", tc.name)
		}
		inst := e.Launch(f, cand, 0)
		if inst == nil {
			t.Fatalf("%s: launch failed", tc.name)
		}
		if want := artifact.Legacy(f.Spec.Model.MemoryMB); inst.ReadyAt != want {
			t.Errorf("%s: ReadyAt = %v, want legacy %v", tc.name, inst.ReadyAt, want)
		}
	}
}

// TestReclaimDemotesAndPreloads checks the reclaim side: the reclaimed
// function's artifact is demoted out of DRAM (a fixed policy rests it on SSD)
// and, with pre-loading on, other functions' artifacts are pulled into
// the freed DRAM, counted per function.
func TestReclaimDemotesAndPreloads(t *testing.T) {
	st := artifact.DefaultConfig()
	st.Preload = true
	ctrl := &manualController{cand: testCand(4, perf.Resources{CPU: 2}, 20*time.Millisecond, 200*time.Millisecond)}
	e := New(ctrl, Config{Cluster: cluster.Testbed(), Duration: 30 * time.Second, Seed: 1, Storage: &st})
	f := e.AddFunction(FunctionSpec{Name: "f", Model: model.MustGet("MNIST"), SLO: 200 * time.Millisecond,
		Trace: workload.Constant(10, 30*time.Second, time.Second), Policy: coldstart.Fixed{KeepAlive: time.Minute}})
	g := e.AddFunction(FunctionSpec{Name: "g", Model: model.MustGet("MobileNet"), SLO: 200 * time.Millisecond,
		Trace: workload.Constant(10, 30*time.Second, time.Second)})

	inst := e.Launch(f, ctrl.cand, 0)
	if inst == nil {
		t.Fatal("launch failed")
	}
	cache := e.Cluster().Server(0).Artifacts()
	if tier := cache.Tier(f.Spec.Name); tier != artifact.TierDRAM {
		t.Fatalf("after launch f resides at %v, want dram", tier)
	}
	e.Reclaim(inst)
	if tier := cache.Tier(f.Spec.Name); tier != artifact.TierSSD {
		t.Errorf("after reclaim f resides at %v, want ssd", tier)
	}
	if tier := cache.Tier(g.Spec.Name); tier != artifact.TierDRAM {
		t.Errorf("after reclaim g resides at %v, want preloaded to dram", tier)
	}
	if g.Preloads != 1 {
		t.Errorf("g.Preloads = %d, want 1", g.Preloads)
	}
	if f.Preloads != 0 {
		t.Errorf("f.Preloads = %d, want 0", f.Preloads)
	}
}

// TestTieredRunDeterministic runs the same tiered scenario twice and
// checks the aggregate stats match — the tiered lifecycle stays inside
// the engine's determinism contract.
func TestTieredRunDeterministic(t *testing.T) {
	run := func() (uint64, int) {
		st := artifact.DefaultConfig()
		st.Preload = true
		e, f := tieredEngine(t, &st)
		return e.Run().Served(), f.Preloads
	}
	s1, p1 := run()
	s2, p2 := run()
	if s1 != s2 || p1 != p2 {
		t.Errorf("tiered run not deterministic: served %d/%d, preloads %d/%d", s1, s2, p1, p2)
	}
	if s1 == 0 {
		t.Error("nothing served; test is vacuous")
	}
}
