package analysis

// cfg.go builds a per-function control-flow graph over go/ast — the
// substrate for errflow's dead-assignment check. Blocks carry
// statement-level nodes in execution order; edges cover branches, loops
// (with labeled break/continue), switch fallthrough, select, goto, and
// early returns. `defer` statements stay
// in flow order inside their block and are additionally collected in
// registration order so analyses can replay them LIFO at function exit.
// Function literals are NOT inlined: a closure runs later, under a
// different dynamic context, so each literal is recorded in FuncLits
// and analyzed as its own root.

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: straight-line statement-level nodes plus
// successor edges.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// CFG is the control-flow graph of a single function body. Entry is
// where execution starts; Exit is a synthetic block reached by falling
// off the end, `return`, or `panic`.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block

	// FuncLits are the function literals syntactically inside this body
	// (including `go func(){...}()` and `defer func(){...}()` bodies),
	// shallow: literals nested inside another literal belong to that
	// literal's own CFG.
	FuncLits []*ast.FuncLit
}

// BuildCFG constructs the CFG for a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, labels: map[string]*labelTarget{}}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	b.edge(b.cur, b.cfg.Exit)
	return b.cfg
}

// labelTarget resolves labeled break/continue/goto.
type labelTarget struct {
	breakTo    *Block // break L
	continueTo *Block // continue L (loops only)
	gotoTo     *Block // goto L
}

type cfgBuilder struct {
	cfg *CFG
	cur *Block

	// innermost-first stacks for plain break/continue.
	breaks    []*Block
	continues []*Block

	labels map[string]*labelTarget

	// pendingGotos are forward gotos awaiting their label's block.
	pendingGotos map[string][]*Block

	// label set on the statement about to be processed (LabeledStmt
	// hands its name down to the loop/switch it wraps).
	curLabel string

	// fallthroughTo is the next case body while emitting a switch
	// clause; nil outside switches and in the final clause.
	fallthroughTo *Block
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// terminate ends the current block with no fallthrough successor and
// starts a fresh (unreachable until targeted) block.
func (b *cfgBuilder) terminate() {
	b.cur = b.newBlock()
}

func (b *cfgBuilder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
	b.collectLits(n)
}

// collectLits records function literals inside n (shallow — literals
// inside a recorded literal belong to its own CFG).
func (b *cfgBuilder) collectLits(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok {
			b.cfg.FuncLits = append(b.cfg.FuncLits, lit)
			return false
		}
		return true
	})
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	label := b.curLabel
	b.curLabel = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The labeled statement's block is the goto target; loops and
		// switches register break/continue targets themselves.
		target := b.newBlock()
		b.edge(b.cur, target)
		b.cur = target
		lt := b.labels[s.Label.Name]
		if lt == nil {
			lt = &labelTarget{}
			b.labels[s.Label.Name] = lt
		}
		lt.gotoTo = target
		for _, from := range b.pendingGotos[s.Label.Name] {
			b.edge(from, target)
		}
		delete(b.pendingGotos, s.Label.Name)
		b.curLabel = s.Label.Name
		b.stmt(s.Stmt)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		join := b.newBlock()
		then := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmt(s.Body)
		b.edge(b.cur, join)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, join)
		} else {
			b.edge(cond, join)
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		join := b.newBlock()
		body := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
			b.edge(head, join) // condition false
		}
		b.edge(head, body)
		// continue target: the post statement (own block) or the head.
		post := head
		if s.Post != nil {
			post = b.newBlock()
			b.cur = post
			b.add(s.Post)
			b.edge(post, head)
		}
		b.pushLoop(label, join, post)
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, post)
		b.popLoop()
		b.cur = join
		if s.Cond == nil {
			// `for {}` only exits via break; join is reachable solely
			// through the registered break edges.
			_ = join
		}

	case *ast.RangeStmt:
		head := b.newBlock()
		join := b.newBlock()
		body := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		// Only the ranged expression is the head node; the body has its
		// own blocks (adding the whole RangeStmt would make node-subtree
		// transfers see every statement of the body at the loop head).
		b.add(s.X)
		b.edge(head, body)
		b.edge(head, join) // range exhausted
		b.pushLoop(label, join, head)
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, head)
		b.popLoop()
		b.cur = join

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(label, s.Body.List, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(label, s.Body.List, false)

	case *ast.SelectStmt:
		entry := b.cur
		join := b.newBlock()
		b.pushSwitch(label, join)
		for _, c := range s.Body.List {
			comm := c.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(entry, blk)
			b.cur = blk
			if comm.Comm != nil {
				b.stmt(comm.Comm)
			}
			b.stmtList(comm.Body)
			b.edge(b.cur, join)
		}
		b.popSwitch()
		b.cur = join

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.cfg.Exit)
		b.terminate()

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.DeferStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.collectLits(s)

	case *ast.GoStmt:
		b.add(s)

	case *ast.ExprStmt:
		b.add(s)
		if isPanic(s.X) {
			b.edge(b.cur, b.cfg.Exit)
			b.terminate()
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, ...
		b.add(s)
	}
}

// switchClauses emits the case blocks of a switch/type switch.
// fallthroughOK wires `fallthrough` from each clause into the next
// clause's body (type switches forbid it).
func (b *cfgBuilder) switchClauses(label string, clauses []ast.Stmt, fallthroughOK bool) {
	entry := b.cur
	join := b.newBlock()
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		blocks[i] = b.newBlock()
		b.edge(entry, blocks[i])
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(entry, join) // no case matches
	}
	b.pushSwitch(label, join)
	saved := b.fallthroughTo
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		var next *Block
		if fallthroughOK && i+1 < len(clauses) {
			next = blocks[i+1]
		}
		b.fallthroughTo = next
		b.stmtList(cc.Body)
		b.edge(b.cur, join) // implicit break
	}
	b.fallthroughTo = saved
	b.popSwitch()
	b.cur = join
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	switch s.Tok {
	case token.BREAK:
		target := b.breakTarget(s.Label)
		if target != nil {
			b.edge(b.cur, target)
		}
		b.terminate()
	case token.CONTINUE:
		target := b.continueTarget(s.Label)
		if target != nil {
			b.edge(b.cur, target)
		}
		b.terminate()
	case token.GOTO:
		name := s.Label.Name
		if lt := b.labels[name]; lt != nil && lt.gotoTo != nil {
			b.edge(b.cur, lt.gotoTo)
		} else {
			if b.pendingGotos == nil {
				b.pendingGotos = map[string][]*Block{}
			}
			b.pendingGotos[name] = append(b.pendingGotos[name], b.cur)
		}
		b.terminate()
	case token.FALLTHROUGH:
		if b.fallthroughTo != nil {
			b.edge(b.cur, b.fallthroughTo)
		}
		b.terminate()
	}
}

func (b *cfgBuilder) breakTarget(label *ast.Ident) *Block {
	if label != nil {
		if lt := b.labels[label.Name]; lt != nil {
			return lt.breakTo
		}
		return nil
	}
	if n := len(b.breaks); n > 0 {
		return b.breaks[n-1]
	}
	return nil
}

func (b *cfgBuilder) continueTarget(label *ast.Ident) *Block {
	if label != nil {
		if lt := b.labels[label.Name]; lt != nil {
			return lt.continueTo
		}
		return nil
	}
	if n := len(b.continues); n > 0 {
		return b.continues[n-1]
	}
	return nil
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
	if label != "" {
		lt := b.labels[label]
		if lt == nil {
			lt = &labelTarget{}
			b.labels[label] = lt
		}
		lt.breakTo, lt.continueTo = brk, cont
	}
}

func (b *cfgBuilder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

// pushSwitch registers the break target of a switch/select (continue
// passes through to the enclosing loop).
func (b *cfgBuilder) pushSwitch(label string, brk *Block) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, b.enclosingContinue())
	if label != "" {
		lt := b.labels[label]
		if lt == nil {
			lt = &labelTarget{}
			b.labels[label] = lt
		}
		lt.breakTo = brk
	}
}

func (b *cfgBuilder) popSwitch() { b.popLoop() }

func (b *cfgBuilder) enclosingContinue() *Block {
	if n := len(b.continues); n > 0 {
		return b.continues[n-1]
	}
	return nil
}

func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
