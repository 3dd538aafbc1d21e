package prog

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/cc"
	"repro/internal/workload"
)

// walkBody hands decl every block-scope declaration of a body and
// visit every expression, statement by statement, each tree in
// pre-order.
func walkBody(s cc.Stmt, decl func(*cc.VarDecl), visit func(cc.Expr)) {
	ex := func(e cc.Expr) {
		if e != nil {
			cc.WalkExpr(e, func(x cc.Expr) bool { visit(x); return true })
		}
	}
	switch s := s.(type) {
	case *cc.ExprStmt:
		ex(s.X)
	case *cc.DeclStmt:
		for _, d := range s.Decls {
			decl(d)
			ex(d.Init)
		}
	case *cc.CompoundStmt:
		for _, c := range s.List {
			walkBody(c, decl, visit)
		}
	case *cc.IfStmt:
		ex(s.Cond)
		walkBody(s.Then, decl, visit)
		if s.Else != nil {
			walkBody(s.Else, decl, visit)
		}
	case *cc.WhileStmt:
		ex(s.Cond)
		walkBody(s.Body, decl, visit)
	case *cc.DoWhileStmt:
		walkBody(s.Body, decl, visit)
		ex(s.Cond)
	case *cc.ForStmt:
		if s.Init != nil {
			walkBody(s.Init, decl, visit)
		}
		ex(s.Cond)
		ex(s.Post)
		walkBody(s.Body, decl, visit)
	case *cc.SwitchStmt:
		ex(s.Tag)
		walkBody(s.Body, decl, visit)
	case *cc.CaseStmt:
		ex(s.Val)
		walkBody(s.Body, decl, visit)
	case *cc.ReturnStmt:
		ex(s.X)
	case *cc.LabeledStmt:
		walkBody(s.Body, decl, visit)
	}
}

// exprTypesDigest is the digest of every typed expression's position,
// text and type over the trees below, taken while the types were kept
// in a map per function beside the body.
const exprTypesDigest = "0d4132bd4c07e9b8c8db20f1bf0f0142ec37c2f67c72a64f753c1613585dda02"

// TestExprTypesUnchanged pins what CheckFunc infers (§3, Table 1's typed
// holes read it) over testdata/corpus, the call-rich tree and leaf-L's
// shape, and holds a copy cc.Rewrite makes of a typed node to reading
// as unknown: the copy stands for another expression.

func TestExprTypesUnchanged(t *testing.T) {
	mixed, _ := workload.MixedTree(8, 25, 2002)
	h := sha256.New()
	for _, tree := range []struct {
		name string
		srcs map[string]string
	}{{"corpus", corpusSources(t)}, {"callrich", workload.CallRichTree()}, {"mixed", mixed}} {
		p, err := BuildSource(tree.srcs)
		if err != nil {
			t.Fatal(err)
		}
		exprs, copies := 0, 0
		for _, fn := range p.All {
			walkBody(fn.Decl.Body, func(*cc.VarDecl) {}, func(e cc.Expr) {
				ty := cc.TypeOf(e)
				exprs++
				fmt.Fprintf(h, "%s\t%s\t%s\t%s\n", tree.name, e.Pos(), cc.ExprString(e), ty)
				if ty.IsUnknown() {
					return
				}
				// Replace the first identifier below e: every node
				// above it is copied, e itself included.
				replaced := false
				cp := cc.Rewrite(e, func(x cc.Expr) cc.Expr {
					if _, ok := x.(*cc.Ident); ok && x != e && !replaced {
						replaced = true
						return &cc.Ident{P: x.Pos(), Name: "other"}
					}
					return nil
				})
				if !replaced {
					return
				}
				copies++
				if cp == e || !cc.TypeOf(cp).IsUnknown() || cc.TypeOf(e) != ty {
					t.Errorf("%s: a rewritten copy of %s (%s) reads %s, the original %s", e.Pos(), cc.ExprString(e), ty, cc.TypeOf(cp), cc.TypeOf(e))
				}
			})
		}
		if copies == 0 {
			t.Fatalf("%s: no typed expression was rewritten", tree.name)
		}
		t.Logf("%s: %d expressions, %d rewritten copies", tree.name, exprs, copies)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != exprTypesDigest {
		t.Errorf("expression types digest %s, want %s", got, exprTypesDigest)
	}
}
