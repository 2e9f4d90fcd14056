package cow

import (
	"fmt"
	"sync"
	"testing"
)

func TestMapZeroValueAndBasics(t *testing.T) {
	var m Map[int]
	if _, ok := m.Get("a"); ok || m.Len() != 0 {
		t.Fatal("zero Map is not empty")
	}
	for range m.All {
		t.Fatal("zero Map yielded an entry")
	}
	m.Update(func(next map[string]int) { next["a"], next["b"] = 1, 2 })
	m.Update(func(next map[string]int) { delete(next, "a") })
	if _, ok := m.Get("a"); ok {
		t.Fatal("deleted key still visible")
	}
	if v, ok := m.Get("b"); !ok || v != 2 || m.Len() != 1 {
		t.Fatalf("Get(b) = %d, %v; Len = %d", v, ok, m.Len())
	}
}

// TestMapUpdateUntouched: an Update whose fn changes nothing still
// publishes a snapshot equal to the previous one.
func TestMapUpdateUntouched(t *testing.T) {
	var m Map[int]
	m.Update(func(next map[string]int) { next["a"] = 1 })
	m.Update(func(map[string]int) {})
	if v, ok := m.Get("a"); !ok || v != 1 || m.Len() != 1 {
		t.Fatalf("after no-op Update: Get(a) = %d, %v; Len = %d", v, ok, m.Len())
	}
}

// TestMapAllSeesOneSnapshot: what Update's fn is handed is not the
// published map, so an All walk in progress keeps seeing exactly the
// snapshot it started on.
func TestMapAllSeesOneSnapshot(t *testing.T) {
	var m Map[int]
	m.Update(func(next map[string]int) {
		for i := 0; i < 8; i++ {
			next[fmt.Sprint(i)] = i
		}
	})
	seen := 0
	for k := range m.All {
		if seen == 0 {
			m.Update(func(next map[string]int) { clear(next); next["late"] = -1 })
		}
		if k == "late" {
			t.Fatal("All observed a write that landed mid-walk")
		}
		seen++
	}
	if seen != 8 {
		t.Fatalf("All yielded %d entries of the 8 in its snapshot", seen)
	}
	if _, ok := m.Get("late"); !ok || m.Len() != 1 {
		t.Fatal("the mid-walk write was not published")
	}
}

// TestMapHammer runs lock-free readers against serialized writers; the
// invariant (every snapshot holds pairs k -> k's writer generation, all
// equal) only holds if readers never see a half-built map. Run under
// -race (check.sh does).
func TestMapHammer(t *testing.T) {
	var m Map[int]
	keys := []string{"a", "b", "c", "d"}
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				gen, n := -1, 0
				for _, v := range m.All {
					if gen == -1 {
						gen = v
					}
					if v != gen {
						t.Errorf("torn snapshot: generations %d and %d", gen, v)
						return
					}
					n++
				}
				if n != 0 && n != len(keys) {
					t.Errorf("snapshot with %d of %d keys", n, len(keys))
					return
				}
				m.Get("a")
				m.Len()
			}
		}()
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				m.Update(func(next map[string]int) {
					gen := next["a"] + 1
					for _, k := range keys {
						next[k] = gen
					}
				})
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if v, _ := m.Get("a"); v != 4000 {
		t.Fatalf("lost updates: generation %d, want 4000", v)
	}
}
