// Package hasupp keeps accepted allocations on a hot route under
// justified directives, one on the line above and one trailing; one
// allocation under a reason-less directive, which is itself a diagnostic
// and suppresses nothing; and a stale directive that suppresses nothing
// and must itself be reported.
package hasupp

//lint:hotpath
func serve(n int) int {
	//lint:ignore hotalloc one map per config reload, measured at 0 allocs/op steady-state
	m := map[string]int{"n": n}
	return m["n"]
}

//lint:hotpath
func serveTrailing(n int) []int {
	return make([]int, n) //lint:ignore hotalloc sized once per reload; the caller keeps it
}

//lint:hotpath
func unjustified(n int) []int {
	return make([]int, n) //lint:ignore hotalloc
}

// clean has nothing to suppress: its directive is stale.
//
//lint:hotpath
func clean(n int) int {
	//lint:ignore hotalloc stale directive kept for the unused-directive test
	return n + 1
}
