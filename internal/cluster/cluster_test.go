package cluster

import (
	"math/rand"
	"testing"

	"github.com/tanklab/infless/internal/perf"
)

func TestDefaults(t *testing.T) {
	c := Testbed()
	if len(c.servers) != 8 {
		t.Fatalf("testbed size = %d", len(c.servers))
	}
	if got := totalCapacity(c); got != (perf.Resources{CPU: 128, GPU: 160}) {
		t.Fatalf("testbed capacity = %v", got)
	}
}

func TestAllocateRelease(t *testing.T) {
	c := New(Options{Servers: 1})
	res := perf.Resources{CPU: 4, GPU: 2}
	if err := c.Allocate(0, res, 1000); err != nil {
		t.Fatal(err)
	}
	s := c.Server(0)
	if s.allocs == 0 || s.Allocated() != res || s.MemFreeMB != perf.ServerMemoryMB-1000 {
		t.Fatalf("allocation not recorded: %+v", s)
	}
	c.Release(0, res, 1000)
	if s.allocs > 0 || !s.Allocated().IsZero() || s.MemFreeMB != perf.ServerMemoryMB {
		t.Fatalf("release not recorded: %+v", s)
	}
}

func TestAllocateOverCapacity(t *testing.T) {
	c := New(Options{Servers: 1})
	if err := c.Allocate(0, perf.Resources{CPU: 17}, 0); err == nil {
		t.Fatal("expected CPU over-capacity error")
	}
	if err := c.Allocate(0, perf.Resources{GPU: 21}, 0); err == nil {
		t.Fatal("expected GPU over-capacity error")
	}
	if err := c.Allocate(0, perf.Resources{CPU: 1}, perf.ServerMemoryMB+1); err == nil {
		t.Fatal("expected memory over-capacity error")
	}
	// Failed allocations must not mutate state.
	if c.ActiveServers() != 0 || !c.TotalAllocated().IsZero() {
		t.Fatal("failed allocation leaked state")
	}
}

func TestReleaseUnderflowPanics(t *testing.T) {
	c := New(Options{Servers: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double free")
		}
	}()
	c.Release(0, perf.Resources{CPU: 1}, 0)
}

func TestInvalidServerIDPanics(t *testing.T) {
	c := New(Options{Servers: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Server(5)
}

func TestFragmentationRatio(t *testing.T) {
	c := New(Options{Servers: 4})
	if got := c.FragmentationRatio(); got != 0 {
		t.Fatalf("idle cluster fragmentation = %f, want 0", got)
	}
	// Fill half of one server: fragmentation counts only that server.
	half := perf.Resources{CPU: 8, GPU: 10}
	if err := c.Allocate(0, half, 0); err != nil {
		t.Fatal(err)
	}
	got := c.FragmentationRatio()
	if got < 0.49 || got > 0.51 {
		t.Fatalf("fragmentation = %f, want ~0.5", got)
	}
	// Fully pack that server: fragmentation drops to 0.
	if err := c.Allocate(0, half, 0); err != nil {
		t.Fatal(err)
	}
	if got := c.FragmentationRatio(); got != 0 {
		t.Fatalf("packed fragmentation = %f, want 0", got)
	}
}

// Property: any sequence of successful allocations and matching releases
// conserves resources exactly.
func TestPropertyConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		c := New(Options{Servers: 4})
		type alloc struct {
			id  int
			res perf.Resources
			mem int
		}
		var live []alloc
		for step := 0; step < 200; step++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(live))
				a := live[i]
				c.Release(a.id, a.res, a.mem)
				live = append(live[:i], live[i+1:]...)
				continue
			}
			a := alloc{
				id:  rng.Intn(4),
				res: perf.Resources{CPU: rng.Intn(6), GPU: rng.Intn(8)},
				mem: rng.Intn(4096),
			}
			if a.res.IsZero() {
				a.res.CPU = 1
			}
			if err := c.Allocate(a.id, a.res, a.mem); err == nil {
				live = append(live, a)
			}
		}
		var want perf.Resources
		for _, a := range live {
			want = want.Add(a.res)
		}
		if got := c.TotalAllocated(); got != want {
			t.Fatalf("iter %d: allocated %v, want %v", iter, got, want)
		}
		for _, a := range live {
			c.Release(a.id, a.res, a.mem)
		}
		if !c.TotalAllocated().IsZero() || c.ActiveServers() != 0 {
			t.Fatalf("iter %d: cluster not empty after full release", iter)
		}
	}
}

func TestHeterogeneousPools(t *testing.T) {
	c := NewHeterogeneous([]NodePool{
		{Servers: 2, PerServer: perf.Resources{CPU: 32}},         // CPU workers
		{Servers: 1, PerServer: perf.Resources{CPU: 8, GPU: 40}}, // GPU box
		{Servers: 1}, // default testbed server
	})
	if len(c.servers) != 4 {
		t.Fatalf("size = %d, want 4", len(c.servers))
	}
	if got := c.Server(0).Capacity; got != (perf.Resources{CPU: 32}) {
		t.Fatalf("pool 0 capacity = %v", got)
	}
	if got := c.Server(2).Capacity; got != (perf.Resources{CPU: 8, GPU: 40}) {
		t.Fatalf("pool 1 capacity = %v", got)
	}
	if got := c.Server(3).Capacity; got != perf.ServerCapacity() {
		t.Fatalf("default pool capacity = %v", got)
	}
	// IDs must be dense and self-consistent.
	for i, s := range c.servers {
		if s.ID != i {
			t.Fatalf("server %d has ID %d", i, s.ID)
		}
	}
}

func TestHeterogeneousEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty pools")
		}
	}()
	NewHeterogeneous([]NodePool{{Servers: 0}})
}
