package fpp

import "strconv"

// The string form of terms, which only the tests speak: the reference
// implementation (reference_test.go) keys its maps by it, and the
// differential test (diff_test.go) compares the two through it.

// str renders a term: "x#2", "$5", "!(x#0)", "(x#0+y#1)", "s#0->f",
// "a#0[$1]".
func (tb *Table) str(t term) string {
	n := tb.nodes[t]
	switch n.kind {
	case kindVar:
		return tb.nameStr[n.a] + "#" + strconv.Itoa(int(n.b))
	case kindConst:
		return constTerm(n.v)
	case kindUnary:
		return n.op.String() + "(" + tb.str(term(n.a)) + ")"
	case kindBinary:
		return "(" + tb.str(term(n.a)) + n.op.String() + tb.str(term(n.b)) + ")"
	case kindField:
		return tb.str(term(n.a)) + n.op.String() + tb.nameStr[n.b]
	case kindIndex:
		return tb.str(term(n.a)) + "[" + tb.str(term(n.b)) + "]"
	}
	return ""
}

func constTerm(v int64) string { return "$" + strconv.FormatInt(v, 10) }
