package pool

import "testing"

type item struct{ n int }

var items = Of[item]{New: func() *item { return &item{} }}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestGetPutRoundTrip(t *testing.T) {
	h := items.Get()
	h.V().n = 7
	h.Put()
	if h.V() != nil {
		t.Fatal("Put left the handle pointing at the recycled object")
	}
	// sync.Pool may drop objects at any time, so only New's result is
	// guaranteed — but whatever Get returns must be usable.
	h = items.Get()
	h.V().n++
	h.Put()
}

// TestDoublePutPanics and TestUseAfterPutPanics pin the two defects the
// handle turns from silent sharing into an immediate nil dereference.
func TestDoublePutPanics(t *testing.T) {
	h := items.Get()
	h.Put()
	mustPanic(t, "second Put", func() { h.Put() })
}

func TestUseAfterPutPanics(t *testing.T) {
	h := items.Get()
	h.Put()
	mustPanic(t, "access after Put", func() { h.V().n = 1 })
}

// TestHandleStaysOnStack: a Get/Put pair on a warm pool allocates
// nothing, i.e. the handle does not escape.
func TestHandleStaysOnStack(t *testing.T) {
	if n := testing.AllocsPerRun(1000, func() {
		h := items.Get()
		h.V().n++
		h.Put()
	}); n != 0 {
		t.Fatalf("Get/Put allocates %.1f/op, want 0", n)
	}
}
