package pattern

import (
	"strings"

	"repro/internal/cc"
)

// Builtins returns the standard callout library (§4: "xgcc provides an
// extensive library of functions useful as callouts"). The engine
// merges these with checker-registered callouts.
func Builtins() Registry {
	return Registry{
		// mc_is_call_to(fn, "name"): the bound hole is a call to the
		// named function.
		"mc_is_call_to": func(ctx *Ctx, args []CalloutArg) bool {
			if len(args) != 2 || !args[0].Bound || !args[1].IsStr {
				return false
			}
			call, ok := args[0].Binding.Expr.(*cc.CallExpr)
			return ok && args[1].Str != "" && cc.CalleeName(call) == args[1].Str
		},
		// mc_name_contains(v, "frag"): the bound expression's source
		// text contains the fragment.
		"mc_name_contains": func(ctx *Ctx, args []CalloutArg) bool {
			if len(args) != 2 || !args[0].Bound || !args[1].IsStr {
				return false
			}
			return strings.Contains(args[0].Binding.String(), args[1].Str)
		},
		// mc_is_pointer(v): the bound expression has pointer type.
		"mc_is_pointer": func(ctx *Ctx, args []CalloutArg) bool {
			if len(args) != 1 || !args[0].Bound || args[0].Binding.Expr == nil {
				return false
			}
			return cc.TypeOf(args[0].Binding.Expr).IsPointer()
		},
		// mc_is_constant(v): the bound expression is a compile-time
		// constant.
		"mc_is_constant": func(ctx *Ctx, args []CalloutArg) bool {
			if len(args) != 1 || !args[0].Bound || args[0].Binding.Expr == nil {
				return false
			}
			_, ok := cc.ConstEval(args[0].Binding.Expr)
			return ok
		},
		// mc_in_function("name"): the current point is inside the
		// named function.
		"mc_in_function": func(ctx *Ctx, args []CalloutArg) bool {
			if len(args) != 1 || !args[0].IsStr {
				return false
			}
			return ctx.FuncName == args[0].Str
		},
		// mc_is_arg_count(fn, n): the bound call has exactly n
		// arguments.
		"mc_is_arg_count": func(ctx *Ctx, args []CalloutArg) bool {
			if len(args) != 2 || !args[0].Bound || !args[1].IsInt {
				return false
			}
			call, ok := args[0].Binding.Expr.(*cc.CallExpr)
			return ok && int64(len(call.Args)) == args[1].Int
		},
		// mc_is_string_constant(v): the bound expression is a string
		// literal (used by format-string checkers).
		"mc_is_string_constant": func(ctx *Ctx, args []CalloutArg) bool {
			if len(args) != 1 || !args[0].Bound {
				return false
			}
			_, ok := args[0].Binding.Expr.(*cc.StringLit)
			return ok
		},
		// mc_not_string_constant(v): negation of the above (callouts
		// have no negation operator).
		"mc_not_string_constant": func(ctx *Ctx, args []CalloutArg) bool {
			if len(args) != 1 || !args[0].Bound || args[0].Binding.Expr == nil {
				return false
			}
			_, ok := args[0].Binding.Expr.(*cc.StringLit)
			return !ok
		},
		// mc_is_local(v): the bound expression is an identifier local
		// to the current function (parameters included).
		"mc_is_local": func(ctx *Ctx, args []CalloutArg) bool {
			if len(args) != 1 || !args[0].Bound {
				return false
			}
			id, ok := args[0].Binding.Expr.(*cc.Ident)
			return ok && ctx.Locals.Has(id.Name)
		},
		// mc_is_returned(v): the current block returns the bound
		// expression (a value escape for leak-style checkers).
		"mc_is_returned": func(ctx *Ctx, args []CalloutArg) bool {
			if len(args) != 1 || !args[0].Bound || args[0].Binding.Expr == nil {
				return false
			}
			return ctx.ReturnExpr != nil && cc.EqualExpr(ctx.ReturnExpr, args[0].Binding.Expr)
		},
		// mc_is_branch_cond(v): the current point is itself the branch
		// condition of its block — matches the bare "if (v)" idiom
		// without matching every other use of v.
		"mc_is_branch_cond": func(ctx *Ctx, args []CalloutArg) bool {
			if ctx.BranchCond == nil || ctx.Point == nil {
				return false
			}
			return ctx.Point == ctx.BranchCond || cc.EqualExpr(ctx.Point, ctx.BranchCond)
		},
	}
}
