// Package cfg builds control-flow graphs over the cc AST. Blocks are
// fine-grained — roughly one per source statement — which mirrors the
// granularity visible in Figure 5 of the paper and maximizes the
// effectiveness of xgcc's block-level state caching (§5.2).
//
// A Graph lives as long as the program it belongs to, so it is built to
// be small (DESIGN.md §10.4): its blocks, edges, predecessor lists and
// expressions sit in a few arrays of exact size per function, and a
// block's Comment, the Figure 5 rendering of its statement, is rendered
// on demand from the statement rather than stored.
package cfg

import (
	"fmt"
	"strings"

	"repro/internal/cc"
)

// EdgeKind classifies a CFG edge.
type EdgeKind int

// Edge kinds. True/False label the two sides of a conditional branch;
// Case/Default label switch dispatch edges.
const (
	EdgeAlways EdgeKind = iota
	EdgeTrue
	EdgeFalse
	EdgeCase
	EdgeDefault
)

// String returns a short label for the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeTrue:
		return "T"
	case EdgeFalse:
		return "F"
	case EdgeCase:
		return "case"
	case EdgeDefault:
		return "default"
	}
	return ""
}

// Edge is a directed CFG edge.
type Edge struct {
	Kind    EdgeKind
	CaseVal int64 // valid when Kind == EdgeCase and CaseConst
	// CaseConst reports whether CaseVal holds the evaluated constant
	// of the case label.
	CaseConst bool
	To        *Block
}

// Block is a basic block. Exprs lists the top-level expressions
// executed in the block in execution order; when the block ends in a
// conditional branch, Cond is the branch condition (and also the last
// element of Exprs). When the block ends in a switch dispatch, Switch
// is the tag expression.
type Block struct {
	// ID is the block's index in Graph.Blocks.
	ID    int
	Exprs []cc.Expr
	// Points is the cc.ExecOrder expansion of Exprs: the program points
	// the block's expressions visit, in execution order. Build fills it
	// once; every reader (the call graph, the dispatch compiler, each
	// engine's DFS) shares the slice and must not write it.
	Points []cc.Expr
	Cond   cc.Expr
	Switch cc.Expr
	Succs  []Edge
	Preds  []*Block

	// Label holds a goto label attached to this block, if any.
	Label string

	// ReturnX is the returned expression of a block ending in a return
	// statement (nil for "return;").
	ReturnX cc.Expr

	// node is the statement (or function, or desugared declaration)
	// the block was made for, and role says which part of it the block
	// is: together they render Comment.
	node cc.Node

	// Line is the source line of the block's first statement.
	Line int

	// Entry/Exit flag the function's unique entry and exit blocks.
	Entry bool
	Exit  bool

	// IsReturn marks blocks ending in a return statement. Statement
	// patterns like "{ return v }" match at these blocks.
	IsReturn bool

	role role
}

// role is the part of its node a block renders as.
type role uint8

const (
	roleNone    role = iota
	roleEntry        // node *cc.FuncDecl
	roleExit         // node *cc.FuncDecl
	roleExpr         // node *cc.ExprStmt
	roleDecl         // node *cc.AssignExpr: "T x = e;" desugared
	roleIf           // node *cc.IfStmt
	roleWhile        // node *cc.WhileStmt
	roleDoWhile      // node *cc.DoWhileStmt
	roleFor          // node *cc.ForStmt: the head
	rolePost         // node cc.Expr: a for statement's post expression
	roleSwitch       // node *cc.SwitchStmt
	roleCase         // node *cc.CaseStmt
	roleReturn       // node *cc.ReturnStmt
	roleLabel        // node *cc.LabeledStmt
)

// Comment is a short rendering of the block's source for printing
// supergraphs in the Figure 5 style. It is rendered from the block's
// statement on every call; only printing (and a test helper of the
// engine's) reads it.
func (b *Block) Comment() string {
	switch b.role {
	case roleEntry:
		return "Entry to " + b.node.(*cc.FuncDecl).Name
	case roleExit:
		return "Exit from " + b.node.(*cc.FuncDecl).Name
	case roleExpr:
		return firstLine(cc.ExprString(b.node.(*cc.ExprStmt).X)) + ";"
	case roleDecl:
		return cc.ExprString(b.node.(cc.Expr)) + ";"
	case roleIf:
		return "if (" + cc.ExprString(b.node.(*cc.IfStmt).Cond) + ")"
	case roleWhile:
		return "while (" + cc.ExprString(b.node.(*cc.WhileStmt).Cond) + ")"
	case roleDoWhile:
		return "do-while (" + cc.ExprString(b.node.(*cc.DoWhileStmt).Cond) + ")"
	case roleFor:
		if s := b.node.(*cc.ForStmt); s.Cond != nil {
			return "for (; " + cc.ExprString(s.Cond) + ";)"
		}
		return "for (;;)"
	case rolePost:
		return cc.ExprString(b.node.(cc.Expr))
	case roleSwitch:
		return "switch (" + cc.ExprString(b.node.(*cc.SwitchStmt).Tag) + ")"
	case roleCase:
		if s := b.node.(*cc.CaseStmt); s.Val != nil {
			return "case " + cc.ExprString(s.Val) + ":"
		}
		return "default:"
	case roleReturn:
		if s := b.node.(*cc.ReturnStmt); s.X != nil {
			return "return " + cc.ExprString(s.X) + ";"
		}
		return "return;"
	case roleLabel:
		return b.node.(*cc.LabeledStmt).Label + ":"
	}
	return ""
}

// Graph is the CFG for one function.
type Graph struct {
	Fn     *cc.FuncDecl
	Entry  *Block
	Exit   *Block
	Blocks []*Block

	// Locals is the set of names declared in the function (parameters
	// and block-scope variables). The engine uses it for scope-based
	// refine/restore and end-of-path events.
	Locals map[string]bool
}

// String renders the graph for debugging.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cfg %s:\n", g.Fn.Name)
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "  B%d", b.ID)
		if b.Entry {
			sb.WriteString(" [entry]")
		}
		if b.Exit {
			sb.WriteString(" [exit]")
		}
		if c := b.Comment(); c != "" {
			fmt.Fprintf(&sb, " %q", c)
		}
		sb.WriteString(" ->")
		for _, e := range b.Succs {
			if e.Kind == EdgeAlways {
				fmt.Fprintf(&sb, " B%d", e.To.ID)
			} else {
				fmt.Fprintf(&sb, " %s:B%d", e.Kind, e.To.ID)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Builder builds CFGs. While it translates a function body, blocks
// come from a slab kept from one function to the next; Build then moves
// what is reachable into arrays of exact size that belong to the Graph
// (blocks, edges, and one array of block pointers for Graph.Blocks and
// every Preds), and the expressions and points into a fourth. A Builder reused for every
// function of a program allocates per function what the Graph keeps
// and little else. The zero value is ready to use; a Builder is not
// safe for concurrent use.
type Builder struct {
	g     *Graph
	entry *Block
	exit  *Block
	cur   *Block // nil when the current point is unreachable

	breakTargets    []*Block
	continueTargets []*Block
	// switch context: dispatch block to attach case edges to, and
	// whether a default edge was seen.
	switchHeads []*switchCtx

	labels map[string]*Block
	gotos  []pendingGoto

	// Scratch, reused across functions: the slab the blocks of the
	// function being built are carved from (each keeps its Exprs' and
	// Succs' arrays for the next function), those blocks by ID, and
	// prune's and finish's work arrays.
	slab   [][]Block
	blocks []*Block
	newID  []int32
	ends   []int32
	stack  []*Block
	points []cc.Expr
}

type switchCtx struct {
	head       *Block
	sawDefault bool
}

type pendingGoto struct {
	from  *Block
	label string
}

// Build constructs the CFG for a function definition.
func Build(fn *cc.FuncDecl) *Graph {
	var b Builder
	return b.Build(fn)
}

// Build constructs the CFG for a function definition, reusing the
// Builder's scratch.
func (b *Builder) Build(fn *cc.FuncDecl) *Graph {
	g := &Graph{Fn: fn, Locals: map[string]bool{}}
	b.g, b.cur = g, nil
	b.blocks, b.gotos = b.blocks[:0], b.gotos[:0]
	if b.labels == nil {
		b.labels = map[string]*Block{}
	}
	clear(b.labels)
	for _, p := range fn.Params {
		g.Locals[p.Name] = true
	}
	b.entry = b.newBlock()
	b.entry.Entry = true
	b.entry.node, b.entry.role = fn, roleEntry
	b.entry.Line = fn.P.Line
	b.exit = b.newBlock()
	b.exit.Exit = true
	b.exit.node, b.exit.role = fn, roleExit

	b.cur = b.newBlock()
	b.entry.addSucc(Edge{Kind: EdgeAlways, To: b.cur})
	if fn.Body != nil {
		b.stmt(fn.Body)
	}
	if b.cur != nil {
		b.cur.addSucc(Edge{Kind: EdgeAlways, To: b.exit})
	}
	// Resolve gotos.
	for _, pg := range b.gotos {
		if target, ok := b.labels[pg.label]; ok {
			pg.from.addSucc(Edge{Kind: EdgeAlways, To: target})
		}
		// Unknown labels: treated like the paper treats missing CFGs —
		// silently continue (§6).
	}
	b.finish(b.prune())
	b.g, b.entry, b.exit, b.cur = nil, nil, nil, nil
	return g
}

// addSucc links b -> e.To. Only a Builder's scratch blocks grow their
// Succs; prune sets the Preds.
func (b *Block) addSucc(e Edge) {
	b.Succs = append(b.Succs, e)
}

func (b *Builder) newBlock() *Block {
	id := len(b.blocks)
	k, i := 0, id
	for k < len(b.slab) && i >= len(b.slab[k]) {
		i -= len(b.slab[k])
		k++
	}
	if k == len(b.slab) {
		// Each new chunk doubles the slab; earlier chunks never move,
		// so a *Block stays valid while the function is built.
		b.slab = append(b.slab, make([]Block, max(16, id)))
	}
	blk := &b.slab[k][i]
	*blk = Block{ID: id, Exprs: blk.Exprs[:0], Succs: blk.Succs[:0]}
	b.blocks = append(b.blocks, blk)
	return blk
}

// startBlock begins a fresh block flowing from the current one, and
// returns it. If the current point is unreachable, the new block has
// no predecessor (dead code).
func (b *Builder) startBlock() *Block {
	blk := b.newBlock()
	if b.cur != nil {
		b.cur.addSucc(Edge{Kind: EdgeAlways, To: blk})
	}
	b.cur = blk
	return blk
}

// ensureFresh starts a new block unless the current one is still empty
// and unconditional (so consecutive simple statements get one block
// each, but label targets don't double up).
func (b *Builder) ensureFresh() *Block {
	if b.cur != nil && len(b.cur.Exprs) == 0 && b.cur.Cond == nil && b.cur.Switch == nil && !b.cur.Entry {
		return b.cur
	}
	return b.startBlock()
}

// setComment makes n, in role r, what blk renders as, unless a
// statement already is; s gives the line.
func (b *Builder) setComment(blk *Block, s cc.Node, n cc.Node, r role) {
	if blk.role == roleNone {
		blk.node, blk.role = n, r
		blk.Line = s.Pos().Line
	}
}

func firstLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}

func (b *Builder) stmt(s cc.Stmt) {
	switch s := s.(type) {
	case *cc.CompoundStmt:
		for _, c := range s.List {
			b.stmt(c)
		}
	case *cc.EmptyStmt:
		// nothing
	case *cc.ExprStmt:
		blk := b.ensureFresh()
		blk.Exprs = append(blk.Exprs, s.X)
		b.setComment(blk, s, s, roleExpr)
	case *cc.DeclStmt:
		var blk *Block
		for _, d := range s.Decls {
			b.g.Locals[d.Name] = true
			if d.Init == nil {
				continue
			}
			if blk == nil {
				blk = b.ensureFresh()
			}
			// Desugar "T x = e;" to the assignment "x = e" so that
			// synonym tracking and kill analysis see it uniformly.
			asg := &cc.AssignExpr{
				P:   d.P,
				Op:  cc.TokAssign,
				LHS: &cc.Ident{P: d.P, Name: d.Name},
				RHS: d.Init,
			}
			blk.Exprs = append(blk.Exprs, asg)
			b.setComment(blk, s, asg, roleDecl)
		}
	case *cc.IfStmt:
		condBlk := b.ensureFresh()
		condBlk.Exprs = append(condBlk.Exprs, s.Cond)
		condBlk.Cond = s.Cond
		b.setComment(condBlk, s, s, roleIf)
		join := b.newBlock()

		thenBlk := b.newBlock()
		condBlk.addSucc(Edge{Kind: EdgeTrue, To: thenBlk})
		b.cur = thenBlk
		b.stmt(s.Then)
		if b.cur != nil {
			b.cur.addSucc(Edge{Kind: EdgeAlways, To: join})
		}

		if s.Else != nil {
			elseBlk := b.newBlock()
			condBlk.addSucc(Edge{Kind: EdgeFalse, To: elseBlk})
			b.cur = elseBlk
			b.stmt(s.Else)
			if b.cur != nil {
				b.cur.addSucc(Edge{Kind: EdgeAlways, To: join})
			}
		} else {
			condBlk.addSucc(Edge{Kind: EdgeFalse, To: join})
		}
		b.cur = join
	case *cc.WhileStmt:
		head := b.startBlock()
		head.Exprs = append(head.Exprs, s.Cond)
		head.Cond = s.Cond
		b.setComment(head, s, s, roleWhile)
		after := b.newBlock()

		body := b.newBlock()
		head.addSucc(Edge{Kind: EdgeTrue, To: body})
		head.addSucc(Edge{Kind: EdgeFalse, To: after})

		b.breakTargets = append(b.breakTargets, after)
		b.continueTargets = append(b.continueTargets, head)
		b.cur = body
		b.stmt(s.Body)
		if b.cur != nil {
			b.cur.addSucc(Edge{Kind: EdgeAlways, To: head})
		}
		b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
		b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]
		b.cur = after
	case *cc.DoWhileStmt:
		body := b.startBlock()
		after := b.newBlock()
		condBlk := b.newBlock()
		condBlk.Exprs = append(condBlk.Exprs, s.Cond)
		condBlk.Cond = s.Cond
		b.setComment(condBlk, s, s, roleDoWhile)

		b.breakTargets = append(b.breakTargets, after)
		b.continueTargets = append(b.continueTargets, condBlk)
		b.cur = body
		b.stmt(s.Body)
		if b.cur != nil {
			b.cur.addSucc(Edge{Kind: EdgeAlways, To: condBlk})
		}
		b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
		b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]

		condBlk.addSucc(Edge{Kind: EdgeTrue, To: body})
		condBlk.addSucc(Edge{Kind: EdgeFalse, To: after})
		b.cur = after
	case *cc.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.startBlock()
		after := b.newBlock()
		if s.Cond != nil {
			head.Exprs = append(head.Exprs, s.Cond)
			head.Cond = s.Cond
		}
		b.setComment(head, s, s, roleFor)

		post := b.newBlock()
		if s.Post != nil {
			post.Exprs = append(post.Exprs, s.Post)
			b.setComment(post, s, s.Post, rolePost)
		}
		post.addSucc(Edge{Kind: EdgeAlways, To: head})

		body := b.newBlock()
		if s.Cond != nil {
			head.addSucc(Edge{Kind: EdgeTrue, To: body})
			head.addSucc(Edge{Kind: EdgeFalse, To: after})
		} else {
			head.addSucc(Edge{Kind: EdgeAlways, To: body})
		}

		b.breakTargets = append(b.breakTargets, after)
		b.continueTargets = append(b.continueTargets, post)
		b.cur = body
		b.stmt(s.Body)
		if b.cur != nil {
			b.cur.addSucc(Edge{Kind: EdgeAlways, To: post})
		}
		b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
		b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]
		b.cur = after
	case *cc.SwitchStmt:
		head := b.ensureFresh()
		head.Exprs = append(head.Exprs, s.Tag)
		head.Switch = s.Tag
		b.setComment(head, s, s, roleSwitch)
		after := b.newBlock()

		ctx := &switchCtx{head: head}
		b.switchHeads = append(b.switchHeads, ctx)
		b.breakTargets = append(b.breakTargets, after)

		b.cur = nil // statements before the first case label are dead
		b.stmt(s.Body)
		if b.cur != nil {
			b.cur.addSucc(Edge{Kind: EdgeAlways, To: after})
		}

		b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
		b.switchHeads = b.switchHeads[:len(b.switchHeads)-1]
		if !ctx.sawDefault {
			head.addSucc(Edge{Kind: EdgeDefault, To: after})
		}
		b.cur = after
	case *cc.CaseStmt:
		if len(b.switchHeads) == 0 {
			// Case outside switch: treat the labeled statement as
			// plain code.
			b.stmt(s.Body)
			return
		}
		ctx := b.switchHeads[len(b.switchHeads)-1]
		caseBlk := b.newBlock()
		// Fallthrough from the previous case body.
		if b.cur != nil {
			b.cur.addSucc(Edge{Kind: EdgeAlways, To: caseBlk})
		}
		if s.Val != nil {
			e := Edge{Kind: EdgeCase, To: caseBlk}
			if v, ok := cc.ConstEval(s.Val); ok {
				e.CaseVal, e.CaseConst = v, true
			}
			ctx.head.addSucc(e)
			b.setComment(caseBlk, s, s, roleCase)
		} else {
			ctx.head.addSucc(Edge{Kind: EdgeDefault, To: caseBlk})
			ctx.sawDefault = true
			b.setComment(caseBlk, s, s, roleCase)
		}
		b.cur = caseBlk
		b.stmt(s.Body)
	case *cc.BreakStmt:
		if b.cur != nil && len(b.breakTargets) > 0 {
			b.cur.addSucc(Edge{Kind: EdgeAlways, To: b.breakTargets[len(b.breakTargets)-1]})
		}
		b.cur = nil
	case *cc.ContinueStmt:
		if b.cur != nil && len(b.continueTargets) > 0 {
			b.cur.addSucc(Edge{Kind: EdgeAlways, To: b.continueTargets[len(b.continueTargets)-1]})
		}
		b.cur = nil
	case *cc.ReturnStmt:
		blk := b.ensureFresh()
		blk.IsReturn = true
		if s.X != nil {
			blk.Exprs = append(blk.Exprs, s.X)
			blk.ReturnX = s.X
		}
		b.setComment(blk, s, s, roleReturn)
		blk.addSucc(Edge{Kind: EdgeAlways, To: b.exit})
		b.cur = nil
	case *cc.GotoStmt:
		if b.cur != nil {
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label})
		}
		b.cur = nil
	case *cc.LabeledStmt:
		target, ok := b.labels[s.Label]
		if !ok {
			target = b.newBlock()
			target.Label = s.Label
			b.labels[s.Label] = target
		}
		if b.cur != nil {
			b.cur.addSucc(Edge{Kind: EdgeAlways, To: target})
		}
		b.setComment(target, s, s, roleLabel)
		b.cur = target
		b.stmt(s.Body)
	}
}

// prune keeps the blocks reachable from the entry (dropping dead code
// after return/break and empty joins never linked) and renumbers them
// in creation order; the exit block is always kept. It fills newID
// (scratch ID -> kept ID, or -1) and returns the number of kept blocks.
func (b *Builder) prune() (kept int) {
	// newID is 0 for a block found reachable, -1 for one not (yet).
	b.newID = resize(b.newID, len(b.blocks))
	for i := range b.newID {
		b.newID[i] = -1
	}
	b.newID[b.exit.ID], b.newID[b.entry.ID] = 0, 0
	b.stack = append(b.stack[:0], b.entry)
	for len(b.stack) > 0 {
		blk := b.stack[len(b.stack)-1]
		b.stack = b.stack[:len(b.stack)-1]
		for _, e := range blk.Succs {
			if b.newID[e.To.ID] < 0 {
				b.newID[e.To.ID] = 0
				b.stack = append(b.stack, e.To)
			}
		}
	}
	for i, id := range b.newID {
		if id == 0 {
			b.newID[i] = int32(kept)
			kept++
		}
	}
	return kept
}

// finish moves the kept blocks into the Graph's own arrays of exact
// size: the blocks; their successor edges; one array of block pointers
// holding Graph.Blocks and then every block's Preds (the source of each
// kept edge into it, sources in block order); and one array holding
// every block's Exprs and then its Points, the cc.ExecOrder expansion
// run into the Builder's scratch first so the array is sized once.
func (b *Builder) finish(kept int) {
	g := b.g
	b.ends = resize(b.ends, kept)
	nEdges, nExprs := 0, 0
	points := b.points[:0]
	for i, src := range b.blocks {
		id := b.newID[i]
		if id < 0 {
			continue
		}
		nEdges += len(src.Succs)
		nExprs += len(src.Exprs)
		for _, e := range src.Exprs {
			points = cc.ExecOrder(e, points)
		}
		b.ends[id] = int32(len(points))
	}
	b.points = points

	blocks := make([]Block, kept)
	edges := make([]Edge, nEdges)
	ptrs := make([]*Block, kept+nEdges)
	exprs := make([]cc.Expr, nExprs+len(points))
	copy(exprs[nExprs:], points)
	clear(points)

	g.Blocks = ptrs[:kept:kept]
	lo, xlo, plo := 0, 0, 0
	for i, src := range b.blocks {
		id := b.newID[i]
		if id < 0 {
			continue
		}
		blk := &blocks[id]
		*blk = *src
		blk.ID, blk.Exprs, blk.Points, blk.Succs = int(id), nil, nil, nil
		g.Blocks[id] = blk
		if k := len(src.Exprs); k > 0 {
			blk.Exprs = exprs[xlo : xlo+k : xlo+k]
			copy(blk.Exprs, src.Exprs)
			xlo += k
		}
		if hi := int(b.ends[id]); hi > plo {
			blk.Points = exprs[nExprs+plo : nExprs+hi : nExprs+hi]
			plo = hi
		}
		if k := len(src.Succs); k > 0 {
			blk.Succs = edges[lo : lo+k : lo+k]
			for j, e := range src.Succs {
				e.To = &blocks[b.newID[e.To.ID]]
				blk.Succs[j] = e
			}
			lo += k
		}
	}
	g.Entry, g.Exit = &blocks[b.newID[b.entry.ID]], &blocks[b.newID[b.exit.ID]]

	// Preds: count each block's, carve its share, then fill in order.
	count := b.ends // read above, free now
	clear(count)
	for id := range blocks {
		for _, e := range blocks[id].Succs {
			count[e.To.ID]++
		}
	}
	lo = kept
	for id := range blocks {
		if c := int(count[id]); c > 0 {
			blocks[id].Preds = ptrs[lo : lo : lo+c]
			lo += c
		}
	}
	for id := range blocks {
		for _, e := range blocks[id].Succs {
			e.To.Preds = append(e.To.Preds, &blocks[id])
		}
	}
}

// resize returns s with length n, reusing its array when it is large
// enough. The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// CallsIn returns every call expression appearing in the block's
// expressions, in execution order. The interprocedural engine uses it
// to locate callsites.
func CallsIn(b *Block) []*cc.CallExpr {
	var calls []*cc.CallExpr
	for _, pt := range b.Points {
		if c, ok := pt.(*cc.CallExpr); ok {
			calls = append(calls, c)
		}
	}
	return calls
}
