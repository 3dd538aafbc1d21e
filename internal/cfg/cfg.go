// Package cfg builds control-flow graphs over the cc AST. Blocks are
// fine-grained — roughly one per source statement — which mirrors the
// granularity visible in Figure 5 of the paper and maximizes the
// effectiveness of xgcc's block-level state caching (§5.2).
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

	// Entry/Exit flag the function's unique entry and exit blocks.
	Entry bool
	Exit  bool

	// Label holds a goto label attached to this block, if any.
	Label string

	// IsReturn marks blocks ending in a return statement; ReturnX is
	// the returned expression (nil for "return;"). Statement patterns
	// like "{ return v }" match at these blocks.
	IsReturn bool
	ReturnX  cc.Expr

	// Comment is a short rendering of the block's source for printing
	// supergraphs in the Figure 5 style.
	Comment string

	// Line is the source line of the block's first statement.
	Line int
}

// AddSucc links b -> to with the given edge kind.
func (b *Block) addSucc(e Edge) {
	b.Succs = append(b.Succs, e)
	e.To.Preds = append(e.To.Preds, b)
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
		if b.Comment != "" {
			fmt.Fprintf(&sb, " %q", b.Comment)
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

// builder carries state while translating one function body.
type builder struct {
	g      *Graph
	nextID int
	cur    *Block // nil when the current point is unreachable

	breakTargets    []*Block
	continueTargets []*Block
	// switch context: dispatch block to attach case edges to, and
	// whether a default edge was seen.
	switchHeads []*switchCtx

	labels map[string]*Block
	gotos  []pendingGoto
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
	g := &Graph{Fn: fn, Locals: map[string]bool{}}
	b := &builder{g: g, labels: map[string]*Block{}}
	for _, p := range fn.Params {
		g.Locals[p.Name] = true
	}
	entry := b.newBlock()
	entry.Entry = true
	entry.Comment = "Entry to " + fn.Name
	entry.Line = fn.P.Line
	g.Entry = entry
	exit := b.newBlock()
	exit.Exit = true
	exit.Comment = "Exit from " + fn.Name
	g.Exit = exit

	b.cur = b.newBlock()
	entry.addSucc(Edge{Kind: EdgeAlways, To: b.cur})
	if fn.Body != nil {
		b.stmt(fn.Body)
	}
	if b.cur != nil {
		b.cur.addSucc(Edge{Kind: EdgeAlways, To: exit})
	}
	// Resolve gotos.
	for _, pg := range b.gotos {
		if target, ok := b.labels[pg.label]; ok {
			pg.from.addSucc(Edge{Kind: EdgeAlways, To: target})
		}
		// Unknown labels: treated like the paper treats missing CFGs —
		// silently continue (§6).
	}
	g.prune()
	g.expandPoints()
	return g
}

// expandPoints fills every block's Points. The function's points share
// one backing array of exact size: it lives as long as the AST does.
func (g *Graph) expandPoints() {
	var all []cc.Expr
	ends := make([]int, len(g.Blocks))
	for i, b := range g.Blocks {
		for _, e := range b.Exprs {
			all = cc.ExecOrder(e, all)
		}
		ends[i] = len(all)
	}
	all = append(make([]cc.Expr, 0, len(all)), all...)
	lo := 0
	for i, b := range g.Blocks {
		if hi := ends[i]; hi > lo {
			b.Points = all[lo:hi:hi]
			lo = hi
		}
	}
}

func (b *builder) newBlock() *Block {
	blk := &Block{ID: b.nextID}
	b.nextID++
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// startBlock begins a fresh block flowing from the current one, and
// returns it. If the current point is unreachable, the new block has
// no predecessor (dead code).
func (b *builder) startBlock() *Block {
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
func (b *builder) ensureFresh() *Block {
	if b.cur != nil && len(b.cur.Exprs) == 0 && b.cur.Cond == nil && b.cur.Switch == nil && !b.cur.Entry {
		return b.cur
	}
	return b.startBlock()
}

func (b *builder) setComment(blk *Block, s cc.Node, text string) {
	if blk.Comment == "" {
		blk.Comment = text
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

func (b *builder) stmt(s cc.Stmt) {
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
		b.setComment(blk, s, firstLine(cc.ExprString(s.X))+";")
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
			b.setComment(blk, s, cc.ExprString(asg)+";")
		}
	case *cc.IfStmt:
		condBlk := b.ensureFresh()
		condBlk.Exprs = append(condBlk.Exprs, s.Cond)
		condBlk.Cond = s.Cond
		b.setComment(condBlk, s, "if ("+cc.ExprString(s.Cond)+")")
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
		b.setComment(head, s, "while ("+cc.ExprString(s.Cond)+")")
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
		b.setComment(condBlk, s, "do-while ("+cc.ExprString(s.Cond)+")")

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
			b.setComment(head, s, "for (; "+cc.ExprString(s.Cond)+";)")
		} else {
			b.setComment(head, s, "for (;;)")
		}

		post := b.newBlock()
		if s.Post != nil {
			post.Exprs = append(post.Exprs, s.Post)
			b.setComment(post, s, cc.ExprString(s.Post))
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
		b.setComment(head, s, "switch ("+cc.ExprString(s.Tag)+")")
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
			b.setComment(caseBlk, s, "case "+cc.ExprString(s.Val)+":")
		} else {
			ctx.head.addSucc(Edge{Kind: EdgeDefault, To: caseBlk})
			ctx.sawDefault = true
			b.setComment(caseBlk, s, "default:")
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
			b.setComment(blk, s, "return "+cc.ExprString(s.X)+";")
		} else {
			b.setComment(blk, s, "return;")
		}
		blk.addSucc(Edge{Kind: EdgeAlways, To: b.g.Exit})
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
		b.setComment(target, s, s.Label+":")
		b.cur = target
		b.stmt(s.Body)
	}
}

// prune removes blocks unreachable from the entry (dead code after
// return/break, empty joins never linked) and renumbers the rest in
// reverse-postorder-ish visit order. The exit block is always kept.
func (g *Graph) prune() {
	reachable := map[*Block]bool{}
	var visit func(*Block)
	visit = func(b *Block) {
		if reachable[b] {
			return
		}
		reachable[b] = true
		for _, e := range b.Succs {
			visit(e.To)
		}
	}
	visit(g.Entry)
	reachable[g.Exit] = true

	var kept []*Block
	for _, b := range g.Blocks {
		if reachable[b] {
			kept = append(kept, b)
		}
	}
	// Rebuild preds from scratch against kept blocks.
	for _, b := range kept {
		b.Preds = nil
	}
	for _, b := range kept {
		for _, e := range b.Succs {
			e.To.Preds = append(e.To.Preds, b)
		}
	}
	for i, b := range kept {
		b.ID = i
	}
	g.Blocks = kept
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
