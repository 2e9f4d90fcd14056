package analysis

// CFG structural tests: parse a function body, build the graph, and
// assert reachability between the blocks holding named marker calls.
// Covers defer registration order, closures via go, switch/select
// including fallthrough, loops with continue/break (plain and labeled),
// and early returns.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// buildTestCFG parses `func f() { <body> }` and returns its CFG.
func buildTestCFG(t *testing.T, body string) *CFG {
	t.Helper()
	src := "package p\n" +
		"func a(){}\nfunc b(){}\nfunc c(){}\nfunc d(){}\nfunc e(){}\n" +
		"var x, y bool\nvar n int\nvar ch chan int\n" +
		"func f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "test.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			return BuildCFG(fd.Body)
		}
	}
	t.Fatal("no func f")
	return nil
}

// blockOf returns the block containing a call to the named function.
func blockOf(t *testing.T, c *CFG, name string) *Block {
	t.Helper()
	for _, blk := range c.Blocks {
		for _, n := range blk.Nodes {
			found := false
			ast.Inspect(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
						found = true
					}
				}
				return !found
			})
			if found {
				return blk
			}
		}
	}
	t.Fatalf("no block contains a call to %s", name)
	return nil
}

// reaches reports whether to is reachable from from (following edges,
// including from == to via a cycle).
func reaches(from, to *Block) bool {
	seen := map[*Block]bool{}
	work := append([]*Block(nil), from.Succs...)
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		if blk == to {
			return true
		}
		if seen[blk] {
			continue
		}
		seen[blk] = true
		work = append(work, blk.Succs...)
	}
	return false
}

func TestCFGGoClosureIsShallowRoot(t *testing.T) {
	c := buildTestCFG(t, `
	go func() {
		a()
		go func() { b() }()
	}()
	c()
`)
	if len(c.FuncLits) != 1 {
		t.Fatalf("want 1 shallow FuncLit (the nested one belongs to the outer literal's CFG), got %d", len(c.FuncLits))
	}
	inner := BuildCFG(c.FuncLits[0].Body)
	if len(inner.FuncLits) != 1 {
		t.Fatalf("want the nested literal inside the outer literal's CFG, got %d", len(inner.FuncLits))
	}
	// go doesn't break straight-line flow: c() shares the entry block
	// and the body runs through to exit.
	if blockOf(t, c, "c") != c.Entry {
		t.Error("the statement after go stays in the same block")
	}
	if !reaches(c.Entry, c.Exit) {
		t.Error("body must flow to exit")
	}
}

func TestCFGIfElseJoin(t *testing.T) {
	c := buildTestCFG(t, `
	if x {
		a()
	} else {
		b()
	}
	c()
`)
	ba, bb, bc := blockOf(t, c, "a"), blockOf(t, c, "b"), blockOf(t, c, "c")
	if !reaches(ba, bc) || !reaches(bb, bc) {
		t.Error("both branches must reach the join")
	}
	if reaches(ba, bb) || reaches(bb, ba) {
		t.Error("the branches must not reach each other")
	}
}

func TestCFGLoopContinueBreak(t *testing.T) {
	c := buildTestCFG(t, `
	for i := 0; i < n; i++ {
		if x {
			continue
		}
		if y {
			break
		}
		a()
	}
	d()
`)
	ba, bd := blockOf(t, c, "a"), blockOf(t, c, "d")
	if !reaches(ba, ba) {
		t.Error("loop body must reach itself via the back edge")
	}
	if !reaches(ba, bd) {
		t.Error("loop body must reach the statement after the loop")
	}
	if !reaches(c.Entry, c.Exit) {
		t.Error("exit must be reachable")
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	c := buildTestCFG(t, `
outer:
	for {
		for {
			if x {
				break outer
			}
			a()
		}
	}
	d()
`)
	ba, bd := blockOf(t, c, "a"), blockOf(t, c, "d")
	if !reaches(ba, bd) {
		t.Error("break outer must leave both loops")
	}
	if !reaches(ba, ba) {
		t.Error("inner loop still cycles")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	c := buildTestCFG(t, `
	switch n {
	case 1:
		a()
		fallthrough
	case 2:
		b()
	default:
		c()
	}
	d()
`)
	ba, bb, bc, bd := blockOf(t, c, "a"), blockOf(t, c, "b"), blockOf(t, c, "c"), blockOf(t, c, "d")
	if !reaches(ba, bb) {
		t.Error("fallthrough must wire case 1 into case 2's body")
	}
	if reaches(bb, ba) || reaches(bc, ba) {
		t.Error("no back edges between clauses")
	}
	for _, blk := range []*Block{ba, bb, bc} {
		if !reaches(blk, bd) {
			t.Error("every clause must reach the statement after the switch")
		}
	}
}

func TestCFGSwitchNoFallthroughIsolatesClauses(t *testing.T) {
	c := buildTestCFG(t, `
	switch n {
	case 1:
		a()
	case 2:
		b()
	}
	d()
`)
	ba, bb := blockOf(t, c, "a"), blockOf(t, c, "b")
	if reaches(ba, bb) || reaches(bb, ba) {
		t.Error("clauses without fallthrough must not reach each other")
	}
	// No default: the switch may match nothing and still reach d.
	if !reaches(c.Entry, blockOf(t, c, "d")) {
		t.Error("defaultless switch must flow past the clauses")
	}
}

func TestCFGSelect(t *testing.T) {
	c := buildTestCFG(t, `
	select {
	case <-ch:
		a()
	case ch <- n:
		b()
	}
	d()
`)
	ba, bb, bd := blockOf(t, c, "a"), blockOf(t, c, "b"), blockOf(t, c, "d")
	if reaches(ba, bb) || reaches(bb, ba) {
		t.Error("select cases must not reach each other")
	}
	if !reaches(ba, bd) || !reaches(bb, bd) {
		t.Error("both cases must reach the statement after select")
	}
}

func TestCFGEarlyReturn(t *testing.T) {
	c := buildTestCFG(t, `
	if x {
		a()
		return
	}
	b()
`)
	ba, bb := blockOf(t, c, "a"), blockOf(t, c, "b")
	if reaches(ba, bb) {
		t.Error("the returning branch must not fall through to b")
	}
	if !reaches(ba, c.Exit) || !reaches(bb, c.Exit) {
		t.Error("both paths must reach exit")
	}
}

func TestCFGPanicTerminates(t *testing.T) {
	c := buildTestCFG(t, `
	if x {
		panic("boom")
	}
	a()
`)
	ba := blockOf(t, c, "a")
	bp := blockOf(t, c, "panic")
	if reaches(bp, ba) {
		t.Error("panic must not fall through")
	}
	if !reaches(bp, c.Exit) {
		t.Error("panic flows to exit")
	}
}
