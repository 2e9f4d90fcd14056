// Package habad allocates on //lint:hotpath routes: every allocating
// construct the analyzer names, both directly in the marked function
// and transitively in a reachable callee, plus an append to an empty
// literal. slowInit shows that a //lint:coldpath callee is
// a boundary — its internal make is not reported.
package habad

import "fmt"

type server struct{ n int }

// slowInit is the declared slow path; nothing inside it is swept.
//
//lint:coldpath
func slowInit() []int { return make([]int, 8) }

// reached is not marked itself but is reachable from serve.
func reached(n int) string {
	s := fmt.Sprint(n) // want "call to fmt.Sprint allocates"
	return s
}

//lint:hotpath
func serve(s *server, vals []int, name string) {
	m := map[string]int{} // want "map literal allocates"
	_ = m
	l := []int{1} // want "slice literal allocates"
	_ = l
	p := &server{} // want "&composite literal allocates"
	_ = p
	b := make([]byte, 8) // want "make allocates"
	_ = b
	q := new(server) // want "new allocates"
	_ = q
	cb := func() { s.n++ } // want "closure literal allocates"
	cb()
	_ = name + "!" // want "string concatenation allocates"
	_ = reached(s.n)
	_ = slowInit()
}

func sink(v any) { _ = v }

func sinks(vs ...int) int { return len(vs) }

//lint:hotpath
func hotBox(x int) {
	sink(x) // want "interface boxing of x allocates"
}

//lint:hotpath
func hotVariadic() {
	_ = sinks(1, 2) // want "variadic call"
}

//lint:hotpath
func hotAppend(n int) []int {
	return append( // want "append to a zero-capacity base"
		[]int{}, // want "slice literal allocates"
		n)
}
