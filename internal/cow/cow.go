// Package cow holds the repo's copy-on-write container: a published
// snapshot is immutable, readers load it through one atomic pointer and
// never lock, and writers replace it wholesale. The pointer is private
// and no method hands the container out — readers get elements (Get,
// Len, All) and writers get a private copy (Map.Update) — so mutating a
// published snapshot, publishing a container someone else still holds,
// and publishing without the writer lock cannot be written against this
// API. It is the only
// package allowed to name atomic.Pointer (infless-lint's singledef).
package cow

import (
	"maps"
	"sync"
	"sync/atomic"
)

// Map is a copy-on-write map keyed by name. The zero value is an empty
// map ready for use. The key is fixed to string, not a type parameter:
// both users key by function name, and a concrete string key keeps the
// runtime's mapaccess2_faststr on the gateway's per-request lookup.
type Map[V any] struct {
	mu sync.Mutex // writers only
	v  atomic.Pointer[map[string]V]
}

func (m *Map[V]) load() map[string]V {
	if p := m.v.Load(); p != nil {
		return *p
	}
	return nil
}

// Get returns the value stored under name (lock-free).
func (m *Map[V]) Get(name string) (V, bool) {
	v, ok := m.load()[name]
	return v, ok
}

// Len returns the number of entries (lock-free).
func (m *Map[V]) Len() int { return len(m.load()) }

// All ranges over one snapshot (`for k, v := range m.All`); writes that
// land during the walk are not seen. Order is map order.
func (m *Map[V]) All(yield func(string, V) bool) {
	for k, v := range m.load() {
		if !yield(k, v) {
			return
		}
	}
}

// Update runs fn on a private copy of the current map and publishes the
// copy when fn returns. Writers serialize on the map's own mutex, so fn
// sees every earlier Update; fn must not call Update on the same map.
func (m *Map[V]) Update(fn func(next map[string]V)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.load()
	next := make(map[string]V, len(cur)+1)
	maps.Copy(next, cur)
	fn(next)
	m.v.Store(&next)
}
