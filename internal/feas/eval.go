package feas

// Slicing and replay. A recorded path is replayed through a fresh
// fpp.Env — the same condition model and union-find the engine's §8
// pruner used — after a backward slice weakens every assignment that
// feeds no branch condition into a plain havoc. Havocs and weakened
// assignments bump versions exactly like the originals (fpp.Assign
// and fpp.Havoc both advance the variable's version by one), so the
// replayed terms line up with what the engine's environment would
// have named them; dropping the equality fact is a sound weakening.
//
// Soundness contract: every fact asserted during replay genuinely
// held along the engine's traversal of this path, so a contradiction
// proves the witness infeasible. Anything the model cannot express —
// an unparseable step, a disjunctive branch residue, a term too
// complex to name — degrades the verdict toward unknown, never
// toward infeasible or confirmed.

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/fpp"
	"repro/internal/report"
)

// constraint is one atomic relational fact extracted from a branch or
// switch step, in the terms the replay environment assigned at that
// moment. Sides are resolved against the final equivalence classes by
// the interval pass (classes only grow along a path, so late
// resolution sees every equality the path asserted).
type constraint struct {
	op   cc.TokKind
	l, r string
	pos  cc.Pos
}

// replayResult carries the replay's conclusion to verdict assembly.
type replayResult struct {
	contra       bool   // facts contradict: witness infeasible
	modeled      bool   // every step fully expressed in the model
	why          string // contradiction site, or first unmodeled step
	sliced       int
	nconstraints int
}

func (rp *replayResult) unmodeled(why string) {
	if rp.modeled {
		rp.modeled = false
		rp.why = why
	}
}

// replay drives the slice + forward replay + interval check.
func replay(steps []report.PathStep) replayResult {
	rp := replayResult{modeled: true}

	// Parse branch conditions and assignment right-hand sides back
	// into expressions (cc.ParseExprString round-trips cc.ExprString
	// for everything the recorder emits; failures degrade below).
	conds := make([]cc.Expr, len(steps))
	rhss := make([]cc.Expr, len(steps))
	for i, st := range steps {
		switch st.Kind {
		case "branch", "case", "notcase":
			e, err := cc.ParseExprString(st.Text)
			if err != nil {
				// A condition can embed an assignment (if ((x = f())))
				// whose version bump we would silently lose, skewing
				// every later fact about x. No safe weakening exists,
				// so the whole path is out of the model.
				rp.unmodeled(fmt.Sprintf("unparseable condition at %s: %q", st.Pos, st.Text))
				return rp
			}
			conds[i] = e
		case "assign":
			if e, err := cc.ParseExprString(st.RHS); err == nil {
				rhss[i] = e
			}
			// Parse failure: replayed as a havoc of the LHS below —
			// same version bump, weaker fact.
		}
	}

	// Backward slice: a variable is relevant if a branch condition
	// reads it, transitively through assignments. Assignments to
	// irrelevant variables are weakened to havocs (kill-then-gen:
	// an assignment defines its LHS, so its relevance stops there
	// and its RHS variables become relevant instead).
	relevant := map[string]bool{}
	keep := make([]bool, len(steps))
	for i := len(steps) - 1; i >= 0; i-- {
		st := steps[i]
		switch st.Kind {
		case "branch", "case", "notcase":
			keep[i] = true
			addIdents(conds[i], relevant)
		case "assign":
			if relevant[st.Text] {
				keep[i] = true
				delete(relevant, st.Text)
				addIdents(rhss[i], relevant)
			} else {
				rp.sliced++
			}
		case "havoc":
			keep[i] = true // version bump only; nothing to slice
		}
	}

	// Forward replay.
	env := fpp.NewEnv()
	var cons []constraint
	for i, st := range steps {
		switch st.Kind {
		case "branch":
			env.AssumeCond(conds[i], st.Taken)
			if !extractCond(env, conds[i], st.Taken, st.Pos, &cons) {
				rp.unmodeled(fmt.Sprintf("condition outside the model at %s: %q", st.Pos, st.Text))
			}
		case "case":
			env.AssumeCase(conds[i], st.Val)
			if t := env.TermOf(conds[i]); t != "" {
				cons = append(cons, constraint{cc.TokEq, t, fpp.ConstTerm(st.Val), st.Pos})
			} else {
				rp.unmodeled(fmt.Sprintf("untrackable switch tag at %s: %q", st.Pos, st.Text))
			}
		case "notcase":
			env.AssumeNotCase(conds[i], st.Val)
			if t := env.TermOf(conds[i]); t != "" {
				cons = append(cons, constraint{cc.TokNe, t, fpp.ConstTerm(st.Val), st.Pos})
			} else {
				rp.unmodeled(fmt.Sprintf("untrackable switch tag at %s: %q", st.Pos, st.Text))
			}
		case "assign":
			if keep[i] && rhss[i] != nil {
				env.Assign(&cc.Ident{Name: st.Text}, rhss[i])
			} else {
				env.Havoc(st.Text)
				if keep[i] { // kept but unparseable RHS
					rp.unmodeled(fmt.Sprintf("unparseable assignment at %s: %s = %q", st.Pos, st.Text, st.RHS))
				}
			}
		case "havoc":
			env.Havoc(st.Text)
		default:
			rp.unmodeled(fmt.Sprintf("unknown path step kind %q at %s", st.Kind, st.Pos))
		}
		if env.Contradicted() {
			rp.contra = true
			rp.why = fmt.Sprintf("facts contradict at %s: %q", st.Pos, stepText(st))
			rp.nconstraints = len(cons)
			return rp
		}
	}
	rp.nconstraints = len(cons)

	// Interval layer over the final equivalence classes.
	contra, converged, why := checkIntervals(env, cons)
	if contra {
		rp.contra = true
		rp.why = why
		return rp
	}
	if !converged {
		rp.unmodeled(why)
	}
	return rp
}

func stepText(st report.PathStep) string {
	if st.Kind == "assign" {
		return st.Text + " = " + st.RHS
	}
	return st.Text
}

// addIdents collects every identifier name mentioned in x.
func addIdents(x cc.Expr, into map[string]bool) {
	if x == nil {
		return
	}
	cc.WalkExpr(x, func(sub cc.Expr) bool {
		if id, ok := sub.(*cc.Ident); ok {
			into[id.Name] = true
		}
		return true
	})
}

// extractCond mirrors fpp.Env.AssumeCond's decomposition, recording
// the atomic constraints the assumption implies. It runs after the
// environment has applied the assumption, so embedded assignments
// (if ((x = f()))) have already advanced versions and TermOf names
// the post-assignment term. Returns false when some of the branch's
// meaning could not be captured — a disjunctive residue or an
// untrackable term — in which case the verdict cannot be confirmed
// (the path's real constraints are stronger than what we checked).
func extractCond(env *fpp.Env, cond cc.Expr, truth bool, pos cc.Pos, out *[]constraint) bool {
	switch cond := cond.(type) {
	case *cc.UnaryExpr:
		if cond.Op == cc.TokNot {
			return extractCond(env, cond.X, !truth, pos, out)
		}
	case *cc.BinaryExpr:
		switch cond.Op {
		case cc.TokAndAnd:
			if truth {
				okL := extractCond(env, cond.X, true, pos, out)
				okR := extractCond(env, cond.Y, true, pos, out)
				return okL && okR
			}
			return false // !(a && b) is a disjunction
		case cc.TokOrOr:
			if !truth {
				okL := extractCond(env, cond.X, false, pos, out)
				okR := extractCond(env, cond.Y, false, pos, out)
				return okL && okR
			}
			return false // a || b is a disjunction
		case cc.TokEq, cc.TokNe, cc.TokLt, cc.TokGt, cc.TokLe, cc.TokGe:
			op := cond.Op
			if !truth {
				op = negateRel(op)
			}
			l, r := env.TermOf(cond.X), env.TermOf(cond.Y)
			if l == "" || r == "" {
				return false
			}
			*out = append(*out, constraint{op, l, r, pos})
			return true
		case cc.TokPlus, cc.TokMinus, cc.TokStar, cc.TokSlash, cc.TokPercent,
			cc.TokAmp, cc.TokPipe, cc.TokCaret, cc.TokShl, cc.TokShr:
			return truthyConstraint(env, cond, truth, pos, out)
		}
	case *cc.AssignExpr:
		// The environment already recorded the assignment; the
		// residual fact is the new value's truthiness.
		return truthyConstraint(env, cond.LHS, truth, pos, out)
	}
	return truthyConstraint(env, cond, truth, pos, out)
}

// truthyConstraint records x != 0 (truth) or x == 0 (!truth).
func truthyConstraint(env *fpp.Env, x cc.Expr, truth bool, pos cc.Pos, out *[]constraint) bool {
	t := env.TermOf(x)
	if t == "" {
		return false
	}
	op := cc.TokNe
	if !truth {
		op = cc.TokEq
	}
	*out = append(*out, constraint{op, t, fpp.ConstTerm(0), pos})
	return true
}

func negateRel(op cc.TokKind) cc.TokKind {
	switch op {
	case cc.TokEq:
		return cc.TokNe
	case cc.TokNe:
		return cc.TokEq
	case cc.TokLt:
		return cc.TokGe
	case cc.TokGe:
		return cc.TokLt
	case cc.TokGt:
		return cc.TokLe
	case cc.TokLe:
		return cc.TokGt
	}
	return op
}
