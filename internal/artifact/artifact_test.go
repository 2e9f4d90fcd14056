package artifact

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The legacy scalar formula must be reproduced bit-identically by the
// default hierarchy's SSD path: 900ms boot + sizeMB/220MBps.
func TestLegacyMatchesScalarFormula(t *testing.T) {
	for _, mb := range []int{0, 1, 100, 548, 1024, 2048, 10240, 65536} {
		want := 900*time.Millisecond + time.Duration(float64(mb)/220.0*float64(time.Second))
		if got := Legacy(mb); got != want {
			t.Fatalf("Legacy(%d) = %v, want %v", mb, got, want)
		}
		h := Default()
		bd := h.Startup(mb, TierSSD)
		if bd.Total() != want {
			t.Fatalf("Startup(%d, ssd).Total() = %v, want %v", mb, bd.Total(), want)
		}
		if bd.Boot != 900*time.Millisecond || bd.Promote != 0 {
			t.Fatalf("unexpected breakdown %+v", bd)
		}
	}
}

func TestTierOrderingAndNames(t *testing.T) {
	if !(TierRemote < TierSSD && TierSSD < TierDRAM && TierDRAM < TierDevice) {
		t.Fatal("tier ordering broken")
	}
	for _, tc := range []struct {
		tier Tier
		name string
	}{{TierRemote, "remote"}, {TierSSD, "ssd"}, {TierDRAM, "dram"}, {TierDevice, "device"}} {
		if tc.tier.String() != tc.name {
			t.Fatalf("String(%d) = %q, want %q", tc.tier, tc.tier.String(), tc.name)
		}
		got, err := ParseTier(tc.name)
		if err != nil || got != tc.tier {
			t.Fatalf("ParseTier(%q) = %v, %v", tc.name, got, err)
		}
	}
	if _, err := ParseTier("tape"); err == nil {
		t.Fatal("ParseTier accepted junk")
	}
}

func TestStartupFasterUpTheHierarchy(t *testing.T) {
	h := Default()
	const mb = 2048
	prev := time.Duration(1<<62 - 1)
	for tier := TierRemote; tier <= TierDevice; tier++ {
		d := h.Startup(mb, tier).Total()
		if d >= prev {
			t.Fatalf("startup from %v (%v) not faster than next tier down (%v)", tier, d, prev)
		}
		prev = d
	}
}

func TestProfile(t *testing.T) {
	for _, name := range []string{"", "off"} {
		c, err := Profile(name)
		if err != nil || c.Active() {
			t.Fatalf("Profile(%q) = %+v, %v; want disabled", name, c, err)
		}
	}
	c, err := Profile("tiered")
	if err != nil || !c.Enabled || c.Preload {
		t.Fatalf("Profile(tiered) = %+v, %v", c, err)
	}
	c, err = Profile("preload")
	if err != nil || !c.Enabled || !c.Preload {
		t.Fatalf("Profile(preload) = %+v, %v", c, err)
	}
	if _, err := Profile("bogus"); err == nil {
		t.Fatal("Profile accepted junk")
	}
}

func testCaps(ssd, dram int64) [NumTiers]int64 {
	var caps [NumTiers]int64
	caps[TierSSD] = ssd
	caps[TierDRAM] = dram
	return caps
}

func TestCacheBasics(t *testing.T) {
	c := NewCache(testCaps(1000, 100))
	if got := c.Tier("a"); got != TierRemote {
		t.Fatalf("absent artifact at %v, want remote", got)
	}
	if !c.Put("a", 60, TierDRAM) {
		t.Fatal("Put a failed")
	}
	if c.Tier("a") != TierDRAM || c.usedMB[TierDRAM] != 60 || len(c.entries) != 1 {
		t.Fatalf("bad state after Put: tier=%v used=%d len=%d", c.Tier("a"), c.usedMB[TierDRAM], len(c.entries))
	}
	// Oversized artifact can never fit.
	if c.Put("big", 101, TierDRAM) {
		t.Fatal("oversized Put succeeded")
	}
	// Put to Remote is invalid; Demote drops.
	if c.Put("a", 60, TierRemote) {
		t.Fatal("Put to remote succeeded")
	}
	c.Demote("a", TierRemote)
	if len(c.entries) != 0 || c.usedMB[TierDRAM] != 0 {
		t.Fatal("Demote to remote did not drop entry")
	}
}

func TestCacheLRUEvictionSpillsToSSD(t *testing.T) {
	c := NewCache(testCaps(1000, 100))
	c.Put("a", 50, TierDRAM)
	c.Put("b", 50, TierDRAM)
	c.Touch("a") // b is now least-recently used
	if !c.Put("c", 60, TierDRAM) {
		t.Fatal("Put c failed")
	}
	// b evicted first (LRU) and spilled to SSD; a had to go too (60 > 50 freed).
	if got := c.Tier("b"); got != TierSSD {
		t.Fatalf("b at %v, want ssd spill", got)
	}
	if got := c.Tier("a"); got != TierSSD {
		t.Fatalf("a at %v, want ssd spill", got)
	}
	if c.Tier("c") != TierDRAM || c.usedMB[TierDRAM] != 60 || c.usedMB[TierSSD] != 100 {
		t.Fatalf("bad state: c=%v dram=%d ssd=%d", c.Tier("c"), c.usedMB[TierDRAM], c.usedMB[TierSSD])
	}
}

func TestCachePutIfFreeNeverEvicts(t *testing.T) {
	c := NewCache(testCaps(1000, 100))
	c.Put("a", 80, TierDRAM)
	if c.PutIfFree("b", 30, TierDRAM) {
		t.Fatal("PutIfFree evicted or overcommitted")
	}
	if !c.PutIfFree("b", 20, TierDRAM) {
		t.Fatal("PutIfFree failed with room free")
	}
	if c.Tier("a") != TierDRAM || c.Tier("b") != TierDRAM {
		t.Fatal("resident set wrong after PutIfFree")
	}
}

func TestCachePromoteAndDemote(t *testing.T) {
	c := NewCache(testCaps(1000, 100))
	c.Put("a", 200, TierSSD)
	// 200MB cannot fit DRAM (cap 100): Promote stays at SSD.
	if got := c.Promote("a", 200, TierDevice); got != TierSSD {
		t.Fatalf("Promote landed at %v, want ssd", got)
	}
	c.Put("b", 40, TierSSD)
	if got := c.Promote("b", 40, TierDRAM); got != TierDRAM {
		t.Fatalf("Promote landed at %v, want dram", got)
	}
	if c.usedMB[TierSSD] != 200 || c.usedMB[TierDRAM] != 40 {
		t.Fatalf("accounting wrong: ssd=%d dram=%d", c.usedMB[TierSSD], c.usedMB[TierDRAM])
	}
	// Promote of an absent artifact that fits nowhere reports remote.
	if got := c.Promote("huge", 5000, TierDRAM); got != TierRemote {
		t.Fatalf("Promote(huge) = %v, want remote", got)
	}
	c.Demote("b", TierSSD)
	if c.Tier("b") != TierSSD || c.usedMB[TierDRAM] != 0 {
		t.Fatal("Demote to ssd failed")
	}
	// Demoting upward or re-demoting is a no-op.
	c.Demote("b", TierDRAM)
	if c.Tier("b") != TierSSD {
		t.Fatal("Demote moved an artifact up")
	}
}

// Identical operation sequences must produce identical cache states —
// the eviction order is fully determined by (lastUse, name).
func TestCacheEvictionDeterministic(t *testing.T) {
	run := func(seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		c := NewCache(testCaps(500, 200))
		names := make([]string, 40)
		for i := range names {
			names[i] = fmt.Sprintf("m%02d", i)
		}
		for op := 0; op < 2000; op++ {
			n := names[rng.Intn(len(names))]
			switch rng.Intn(4) {
			case 0:
				c.Put(n, 10+rng.Intn(90), TierDRAM)
			case 1:
				c.Put(n, 10+rng.Intn(90), TierSSD)
			case 2:
				c.Touch(n)
			case 3:
				c.Demote(n, Tier(rng.Intn(3)))
			}
		}
		state := ""
		for _, n := range names {
			state += fmt.Sprintf("%s@%v;", n, c.Tier(n))
		}
		return fmt.Sprintf("%s dram=%d ssd=%d len=%d", state, c.usedMB[TierDRAM], c.usedMB[TierSSD], len(c.entries))
	}
	for seed := int64(1); seed <= 5; seed++ {
		a, b := run(seed), run(seed)
		if a != b {
			t.Fatalf("seed %d: divergent cache states\n%s\n%s", seed, a, b)
		}
	}
}

// Capacity accounting must never go negative or exceed capacity across
// random workloads.
func TestCacheAccountingInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewCache(testCaps(300, 120))
	for op := 0; op < 5000; op++ {
		n := fmt.Sprintf("m%d", rng.Intn(25))
		switch rng.Intn(5) {
		case 0, 1:
			c.Put(n, 5+rng.Intn(60), TierDRAM)
		case 2:
			c.Promote(n, 5+rng.Intn(60), TierDRAM)
		case 3:
			c.PutIfFree(n, 5+rng.Intn(60), TierSSD)
		case 4:
			c.Demote(n, Tier(rng.Intn(3)))
		}
		for _, tier := range []Tier{TierSSD, TierDRAM} {
			if c.usedMB[tier] < 0 || c.usedMB[tier] > map[Tier]int64{TierSSD: 300, TierDRAM: 120}[tier] {
				t.Fatalf("op %d: tier %v used %d out of bounds", op, tier, c.usedMB[tier])
			}
		}
	}
}
