package artifact

import "sort"

// Cache is one server's artifact cache: which checkpoints are resident
// at which tier, with per-tier capacity accounting and deterministic
// LRU eviction. An artifact resides at exactly one tier (its fastest
// copy); promotion moves it up, demotion moves it down, and TierRemote
// means "not cached here".
//
// Recency is tracked with a logical use sequence, not wall-clock time,
// so identical call sequences always evict identically (the package is
// in the registry test's wall-clock scope). Eviction order is by
// (least-recent use, name) — the name tie-break keeps behavior defined
// even for entries inserted by bulk seeding with equal sequence
// numbers.
//
// Cache is not safe for concurrent use; callers synchronize exactly as
// they do for the rest of the server state (the sim engine is
// single-threaded per event, the gateway holds its cluster lock).
type Cache struct {
	capMB   [NumTiers]int64
	usedMB  [NumTiers]int64
	entries map[string]*entry
	seq     uint64
}

type entry struct {
	name    string
	sizeMB  int64
	tier    Tier
	lastUse uint64
}

// NewCache returns an empty cache with the given per-tier capacities in
// MB. TierRemote's capacity is ignored (the registry is unbounded); a
// zero or negative capacity disables residency at that tier.
func NewCache(capMB [NumTiers]int64) *Cache {
	c := &Cache{capMB: capMB, entries: make(map[string]*entry)}
	c.capMB[TierRemote] = 0
	return c
}

// Tier returns the artifact's resident tier. Absent artifacts report
// TierRemote (they must be pulled from the registry).
func (c *Cache) Tier(name string) Tier {
	if e, ok := c.entries[name]; ok {
		return e.tier
	}
	return TierRemote
}

// Touch marks the artifact most-recently used without moving it.
func (c *Cache) Touch(name string) {
	if e, ok := c.entries[name]; ok {
		c.seq++
		e.lastUse = c.seq
	}
}

// Put makes the artifact resident at the given tier, marking it
// most-recently used. If the tier lacks space, least-recently-used
// entries at that tier are evicted first: an eviction from TierDRAM
// spills to TierSSD when it fits without further eviction, otherwise
// the victim is dropped. Put reports false — and changes nothing — if
// the artifact cannot fit even with the tier emptied, or the target is
// TierRemote (use Demote to drop an entry).
func (c *Cache) Put(name string, sizeMB int, tier Tier) bool {
	return c.put(name, sizeMB, tier, true)
}

// PutIfFree is Put without eviction: it succeeds only when the tier's
// spare capacity already covers the artifact. Pre-loading uses it so
// borrowed memory never displaces a resident checkpoint.
func (c *Cache) PutIfFree(name string, sizeMB int, tier Tier) bool {
	return c.put(name, sizeMB, tier, false)
}

func (c *Cache) put(name string, sizeMB int, tier Tier, evict bool) bool {
	if tier == TierRemote || tier >= NumTiers || sizeMB <= 0 {
		return false
	}
	size := int64(sizeMB)
	if size > c.capMB[tier] {
		return false
	}
	if e, ok := c.entries[name]; ok && e.tier == tier {
		c.seq++
		e.lastUse = c.seq
		return true
	}
	// Capacity check excludes any copy of this artifact at the target
	// tier (there is none — single residency) but must leave the
	// current copy at its old tier in place until the move succeeds.
	if c.capMB[tier]-c.usedMB[tier] < size {
		if !evict {
			return false
		}
		if !c.evict(tier, size-(c.capMB[tier]-c.usedMB[tier]), name) {
			return false
		}
	}
	c.seq++
	if e, ok := c.entries[name]; ok {
		c.usedMB[e.tier] -= e.sizeMB
		e.sizeMB = size
		e.tier = tier
		e.lastUse = c.seq
	} else {
		c.entries[name] = &entry{name: name, sizeMB: size, tier: tier, lastUse: c.seq}
	}
	c.usedMB[tier] += size
	return true
}

// evict frees at least needMB at tier by removing least-recently-used
// entries, never touching keep. DRAM victims spill to SSD when the SSD
// has spare capacity for them (no cascading eviction); other victims
// are dropped. Reports false (with no changes) if even evicting every
// candidate would not free enough.
func (c *Cache) evict(tier Tier, needMB int64, keep string) bool {
	var victims []*entry
	for _, e := range c.entries {
		if e.tier == tier && e.name != keep {
			victims = append(victims, e)
		}
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].lastUse != victims[j].lastUse {
			return victims[i].lastUse < victims[j].lastUse
		}
		return victims[i].name < victims[j].name
	})
	var freeable int64
	for _, e := range victims {
		freeable += e.sizeMB
	}
	if freeable < needMB {
		return false
	}
	for _, e := range victims {
		if needMB <= 0 {
			break
		}
		needMB -= e.sizeMB
		c.usedMB[tier] -= e.sizeMB
		if tier == TierDRAM && c.capMB[TierSSD]-c.usedMB[TierSSD] >= e.sizeMB {
			e.tier = TierSSD
			c.usedMB[TierSSD] += e.sizeMB
		} else {
			delete(c.entries, e.name)
		}
	}
	return true
}

// Promote moves the artifact as far up the hierarchy as capacity
// allows, trying want first and falling back tier by tier; it never
// moves an artifact down. It returns the tier the artifact ends at
// (its current tier if no higher placement fit, TierRemote if absent
// and nothing fit).
func (c *Cache) Promote(name string, sizeMB int, want Tier) Tier {
	cur := c.Tier(name)
	if want > TierDRAM {
		want = TierDRAM // device residency belongs to the instance, not the cache
	}
	for t := want; t > cur; t-- {
		if c.Put(name, sizeMB, t) {
			return t
		}
	}
	c.Touch(name)
	return cur
}

// Demote moves the artifact down to the given tier; TierRemote drops it
// from the cache entirely. Demoting to the artifact's current tier or
// above is a no-op, as is demoting an absent artifact. If the lower
// tier lacks space even after LRU eviction, the artifact is dropped
// (demotion is a capacity-release operation; it must not fail upward).
func (c *Cache) Demote(name string, to Tier) {
	e, ok := c.entries[name]
	if !ok || to >= e.tier {
		return
	}
	if to == TierRemote || !c.put(name, int(e.sizeMB), to, true) {
		c.usedMB[e.tier] -= e.sizeMB
		delete(c.entries, name)
	}
}
