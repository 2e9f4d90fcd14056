// Package hasupp keeps one accepted allocation on a hot route under a
// justified directive, plus a stale directive that suppresses nothing
// and must itself be reported.
package hasupp

//lint:hotpath
func serve(n int) int {
	//lint:ignore hotalloc one map per config reload, measured at 0 allocs/op steady-state
	m := map[string]int{"n": n}
	return m["n"]
}

// clean has nothing to suppress: its directive is stale.
//
//lint:hotpath
func clean(n int) int {
	//lint:ignore hotalloc stale directive kept for the unused-directive test
	return n + 1
}
