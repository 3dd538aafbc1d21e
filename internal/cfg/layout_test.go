package cfg

import (
	"testing"
	"unsafe"

	"repro/internal/cc"
	"repro/internal/workload"
)

// TestBlockLayout pins the sizes of the two arrays every built function
// keeps (DESIGN §10.4): a Block is at most 128 bytes and an Edge at most
// 24. A field that repeats what the others say (a branch condition, a
// switch tag, a returned expression, a goto label), or an int where an
// int32 does, fails here.
func TestBlockLayout(t *testing.T) {
	if got := unsafe.Sizeof(Block{}); got > 128 {
		t.Errorf("a Block is %d bytes, want at most 128", got)
	}
	if got := unsafe.Sizeof(Edge{}); got > 24 {
		t.Errorf("an Edge is %d bytes, want at most 24", got)
	}
}

// TestBlockAccessors holds Cond, Switch and ReturnX, which a block
// derives from its successors and expressions, to what its statements
// say, over the checked-in C and two generated trees: Cond is non-nil
// exactly when every successor is a T or F edge, Switch exactly when
// every one is a case or default edge, and ReturnX exactly for a return
// with a value; each is then the last of the block's Exprs and the
// condition, tag or value of a statement of the function.
func TestBlockAccessors(t *testing.T) {
	mixed, _ := workload.MixedTree(3, 12, 7)
	inputs := []map[string]string{
		corpusSources(t, "../../testdata/corpus/*.c"),
		corpusSources(t, "../../testdata/rootorder/*.c"),
		mixed,
		workload.CallRichTree(),
		{"shapes.c": accessorShapes},
	}
	var conds, switches, returns int
	for _, srcs := range inputs {
		for name, src := range srcs {
			f, err := cc.ParseFile(name, src)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, fd := range f.Funcs() {
				role := map[cc.Expr]string{}
				stmtRoles(fd.Body, role)
				for _, b := range Build(fd).Blocks {
					var last cc.Expr
					if len(b.Exprs) > 0 {
						last = b.Exprs[len(b.Exprs)-1]
					}
					check := func(what string, got cc.Expr, want bool) {
						t.Helper()
						switch {
						case (got != nil) != want:
							t.Errorf("%s: %s B%d: %s() = %v, successors %v", name, fd.Name, b.ID, what, got, b.Succs)
						case got != nil && (got != last || role[got] != what):
							t.Errorf("%s: %s B%d: %s() is not the last expression, or is a statement's %q",
								name, fd.Name, b.ID, what, role[got])
						}
					}
					check("Cond", b.Cond(), succsAre(b, EdgeTrue, EdgeFalse))
					check("Switch", b.Switch(), succsAre(b, EdgeCase, EdgeDefault))
					check("ReturnX", b.ReturnX(), b.IsReturn && last != nil)
					if b.Cond() != nil {
						conds++
					}
					if b.Switch() != nil {
						switches++
					}
					if b.ReturnX() != nil {
						returns++
					}
				}
			}
		}
	}
	t.Logf("%d conditions, %d switch tags, %d returned values", conds, switches, returns)
	if conds < 40 || switches < 4 || returns < 80 {
		t.Errorf("%d conditions, %d switch tags, %d returned values; want at least 40, 4 and 80", conds, switches, returns)
	}
}

// accessorShapes puts a branch or a switch where a block made for
// another statement is still empty (a case arm, a label, a loop body),
// nests a switch in a case, and has a switch with no case, a loop with
// no condition and returns with and without a value.
const accessorShapes = `
int g(int x);
int shapes(int x, int y) {
    switch (x) {
    case 1:
        if (y) return 1;
        break;
    case 2:
        switch (y) { case 3: x++; default: return x; }
    case 4:
    L:  while (y) y--;
        do { if (x) goto L; } while (g(x));
    }
    switch (y) {}
    for (;;) { if (g(y)) break; }
    while (x) switch (x) { default: x--; }
    if (y) return;
    return x + y;
}
`

// succsAre reports whether b has successors, every one of kind a or b.
func succsAre(blk *Block, a, b EdgeKind) bool {
	for _, e := range blk.Succs {
		if e.Kind != a && e.Kind != b {
			return false
		}
	}
	return len(blk.Succs) > 0
}

// stmtRoles records, under s, each branch condition as "Cond", each
// switch tag as "Switch" and each returned value as "ReturnX".
func stmtRoles(s cc.Stmt, role map[cc.Expr]string) {
	put := func(e cc.Expr, what string) {
		if e != nil {
			role[e] = what
		}
	}
	switch s := s.(type) {
	case *cc.CompoundStmt:
		for _, c := range s.List {
			stmtRoles(c, role)
		}
	case *cc.IfStmt:
		put(s.Cond, "Cond")
		stmtRoles(s.Then, role)
		if s.Else != nil {
			stmtRoles(s.Else, role)
		}
	case *cc.WhileStmt:
		put(s.Cond, "Cond")
		stmtRoles(s.Body, role)
	case *cc.DoWhileStmt:
		put(s.Cond, "Cond")
		stmtRoles(s.Body, role)
	case *cc.ForStmt:
		put(s.Cond, "Cond")
		if s.Init != nil {
			stmtRoles(s.Init, role)
		}
		stmtRoles(s.Body, role)
	case *cc.SwitchStmt:
		put(s.Tag, "Switch")
		stmtRoles(s.Body, role)
	case *cc.CaseStmt:
		stmtRoles(s.Body, role)
	case *cc.LabeledStmt:
		stmtRoles(s.Body, role)
	case *cc.ReturnStmt:
		put(s.X, "ReturnX")
	}
}
