// Package pool wraps sync.Pool in a typed pool whose Get returns an
// owning Handle. Put returns the object and clears the handle, so a
// second Put, or any access through the handle after Put, is a nil
// dereference in whichever test first reaches it instead of two requests
// silently sharing one object. It is the only package allowed to name
// sync.Pool (internal/analysis/registry_test.go).
package pool

import "sync"

// Of is a pool of *T. New is required; declare pools as package-level
// variables: pool.Of[T]{New: ...}.
type Of[T any] struct {
	New func() *T
	p   sync.Pool
}

// Handle owns one pooled object between Get and Put. Keep it in a local
// (or in the one struct that owns the object) and reach the object
// through V every time: a pointer copied out of V outlives Put unseen.
// A Handle dropped without Put leaves its object to the garbage
// collector, which is how an owner abandons an object it may not
// recycle yet.
type Handle[T any] struct {
	v    *T
	home *Of[T]
}

// Get takes an object from the pool, or makes one with New.
func (p *Of[T]) Get() Handle[T] {
	v, _ := p.p.Get().(*T)
	if v == nil {
		v = p.New()
	}
	return Handle[T]{v, p}
}

// V returns the owned object, nil after Put.
func (h Handle[T]) V() *T { return h.v }

// Put recycles the object and clears the handle.
func (h *Handle[T]) Put() {
	h.home.p.Put(h.v) // home is nil after the first Put
	*h = Handle[T]{}
}
