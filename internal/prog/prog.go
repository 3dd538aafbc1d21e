// Package prog assembles parsed translation units into a whole-program
// representation: per-function CFGs, the call graph with roots, and the
// type environment. This is the "second analysis pass" of §6: it reads
// ASTs, reassembles them, and constructs the CFG and call graph.
// Functions with no callers are roots; recursive call chains are broken
// arbitrarily (§6 step 2).
//
// A Program is immutable once Build returns: engines running
// concurrently (DESIGN.md §5 "Engine parallelism") share one Program
// and may only read it. Anything needing per-run mutable state must
// live in the engine, never here.
package prog

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/cc"
	"repro/internal/cfg"
)

// Function is one analyzed function: its declaration, CFG, inferred
// expression types, call-graph links, and the part of the program
// model (DESIGN.md §5) that is a function of the program alone, so
// that Build computes it once and no engine computes it again.
type Function struct {
	Name string
	// Index is the function's position in Program.All: the dense id
	// engines and the dispatch compiler index their per-function
	// tables by.
	Index   int
	Decl    *cc.FuncDecl
	Graph   *cfg.Graph
	Types   cc.TypeMap
	Callees []*Function
	Callers []*Function
	// Unit is the call-graph component the function belongs to
	// (units.go).
	Unit *Unit
	// NonParamLocals is the set of names the body declares, parameters
	// excluded: the objects that die with the function's frame
	// ($end_of_path$, §3.2) and that suffix summaries omit (Figure 5).
	NonParamLocals map[string]bool
	// Sites holds one record per direct call in the body whose callee
	// has a definition, ordered by (Block, Point).
	Sites []CallSite
}

// ArgMap is one actual/formal correspondence at a call site (§6.1,
// Table 2).
type ArgMap struct {
	// Actual is the expression to substitute away. For a plain
	// argument this is the argument itself; for &E it is E and Deref
	// is set, so E maps to *Formal.
	Actual cc.Expr
	// Formal is this site's own node for the parameter: refine tells a
	// substituted formal from a caller local of the same name by
	// pointer identity.
	Formal *cc.Ident
	Deref  bool
}

// CallSite is a resolved direct call: Graph.Blocks[Block].Points[Point]
// is the call expression.
type CallSite struct {
	Block, Point int
	Callee       *Function
	Args         []ArgMap
}

// argMaps pairs a call's actuals with the callee's formals. A
// parameter without a name can hold no state and is skipped. The
// site's formal nodes share one array.
func argMaps(call *cc.CallExpr, callee *Function) []ArgMap {
	n := min(len(callee.Decl.Params), len(call.Args))
	var maps []ArgMap
	var formals []cc.Ident
	for i, p := range callee.Decl.Params[:n] {
		if p.Name == "" {
			continue
		}
		if maps == nil {
			maps, formals = make([]ArgMap, 0, n), make([]cc.Ident, n)
		}
		actual := call.Args[i]
		formal := &formals[i]
		formal.Name = p.Name
		if u, ok := actual.(*cc.UnaryExpr); ok && u.Op == cc.TokAmp && !u.Postfix {
			maps = append(maps, ArgMap{Actual: u.X, Formal: formal, Deref: true})
			continue
		}
		maps = append(maps, ArgMap{Actual: actual, Formal: formal})
	}
	return maps
}

// Site returns the record of the call at b.Points[point], or nil when
// that point is not a direct call to a defined function.
func (fn *Function) Site(b *cfg.Block, point int) *CallSite {
	i := sort.Search(len(fn.Sites), func(i int) bool {
		s := &fn.Sites[i]
		return s.Block > b.ID || s.Block == b.ID && s.Point >= point
	})
	if i == len(fn.Sites) || fn.Sites[i].Block != b.ID || fn.Sites[i].Point != point {
		return nil
	}
	return &fn.Sites[i]
}

// ReleaseBody drops the function's CFG, type map, program model and
// body AST so the garbage collector can reclaim them — the AST half of
// retirement (DESIGN.md §12). The declaration shell (name, file,
// params) survives, so FuncID and the call-graph links keep working;
// Decl is the Program's own copy of it (Build), so the declaration a
// caller handed to AddAST is never written. This is the one sanctioned
// mutation of a built Program; the caller must guarantee no traversal
// can still visit the function (no call edge leaves a unit, so once a
// unit's last root finishes nothing can) and must publish the write
// with an ordering barrier of its own (the mc releaser does it under a
// mutex its readers also pass through). A released function looks like
// one without a body — the §6 missing-CFG case — which is why release
// is only sound post-traversal.
func (fn *Function) ReleaseBody() {
	fn.Graph = nil
	fn.Types = nil
	fn.NonParamLocals = nil
	fn.Sites = nil
	if fn.Decl != nil {
		fn.Decl.Body = nil
	}
}

// Program is the whole-program view the analysis engine consumes. The
// parsed *cc.File containers are deliberately not retained: after Build
// extracts functions, globals, and the type environment, nothing in the
// analysis reads raw files, and dropping them lets the garbage
// collector reclaim non-function declarations as soon as the caller's
// own references lapse (DESIGN.md §12).
type Program struct {
	// Funcs maps resolvable names to function definitions. Static
	// functions are registered under both "file.c:name" and, when not
	// shadowed by an external definition, the bare name.
	Funcs map[string]*Function
	// All lists function definitions in deterministic order.
	All []*Function
	// Roots are the call-graph roots: functions with no callers, plus
	// one arbitrary representative per otherwise-unreachable cycle.
	Roots []*Function
	// GlobalNames lists file-scope variable names; Statics maps
	// file-scope static variable names to their defining file. The
	// engine's refine/restore rules (§6.1) use these to classify
	// tracked objects.
	GlobalNames map[string]bool
	Statics     map[string]string

	// units is the call-graph partition (units.go), built by Build.
	units []*Unit

	// FuncByID's lazily built index (units.go).
	byIDOnce sync.Once
	byID     map[string]*Function
}

// staticKey names a file-scoped function uniquely.
func staticKey(file, name string) string { return file + ":" + name }

// Build assembles a program from parsed files.
func Build(files ...*cc.File) *Program {
	// The type environment indexes every declaration, body included, so
	// it is Build's own: a released body has no referent in the Program.
	env := cc.NewTypeEnv(files...)
	p := &Program{
		Funcs:       map[string]*Function{},
		GlobalNames: map[string]bool{},
		Statics:     map[string]string{},
	}
	// Collect file-scope variables.
	for _, f := range files {
		for _, d := range f.Decls {
			if vd, ok := d.(*cc.VarDecl); ok {
				p.GlobalNames[vd.Name] = true
				if vd.Storage == cc.StorageStatic {
					p.Statics[vd.Name] = f.Name
				}
			}
		}
	}
	// Collect definitions: the Functions and the Program's own copies of
	// their declarations (ReleaseBody empties them) are two arrays.
	defs, n := make([][]*cc.FuncDecl, len(files)), 0
	for i, f := range files {
		defs[i] = f.Funcs()
		n += len(defs[i])
	}
	fns, decls := make([]Function, n), make([]cc.FuncDecl, n)
	p.All = make([]*Function, 0, n)
	for i, f := range files {
		for _, fd := range defs[i] {
			k := len(p.All)
			decls[k] = *fd
			fn := &fns[k]
			fn.Name, fn.Index, fn.Decl = fd.Name, k, &decls[k]
			p.All = append(p.All, fn)
			if fd.Storage == cc.StorageStatic {
				p.Funcs[staticKey(f.Name, fd.Name)] = fn
				if _, taken := p.Funcs[fd.Name]; !taken {
					p.Funcs[fd.Name] = fn
				}
			} else {
				p.Funcs[fd.Name] = fn
			}
		}
	}
	// Build CFGs, types and scope sets; then resolve every call site,
	// which links the call graph.
	var cb cfg.Builder
	for _, fn := range p.All {
		fn.Graph = cb.Build(fn.Decl)
		fn.Types = env.CheckFunc(fn.Decl)
		fn.NonParamLocals = nonParams(fn.Graph.Locals, fn.Decl.Params)
	}
	// linked[callee.Index] is the index+1 of the last caller linked to
	// callee: a caller's callees are distinct.
	linked := make([]int, len(p.All))
	var sites []CallSite // one function's, copied out at its exact size
	for _, fn := range p.All {
		sites = sites[:0]
		for _, b := range fn.Graph.Blocks {
			for i, pt := range b.Points {
				call, ok := pt.(*cc.CallExpr)
				if !ok {
					continue
				}
				callee := p.Resolve(fn, call)
				if callee == nil {
					continue
				}
				sites = append(sites, CallSite{Block: b.ID, Point: i, Callee: callee, Args: argMaps(call, callee)})
				if linked[callee.Index] == fn.Index+1 {
					continue
				}
				linked[callee.Index] = fn.Index + 1
				fn.Callees = append(fn.Callees, callee)
				callee.Callers = append(callee.Callers, fn)
			}
		}
		if len(sites) > 0 {
			fn.Sites = slices.Clone(sites)
		}
	}
	p.computeRoots()
	p.buildUnits()
	return p
}

// nonParams is the set of locals that are not parameters, nil when
// there is none.
func nonParams(locals map[string]bool, params []*cc.VarDecl) map[string]bool {
	var out map[string]bool
	for name := range locals {
		if slices.ContainsFunc(params, func(p *cc.VarDecl) bool { return p.Name == name }) {
			continue
		}
		if out == nil {
			out = make(map[string]bool, len(locals))
		}
		out[name] = true
	}
	return out
}

// BuildSource parses the given named sources and assembles a program.
// srcs maps file name to C source text.
func BuildSource(srcs map[string]string) (*Program, error) {
	files, err := cc.ParseFiles(srcs, 1)
	if err != nil {
		return nil, err
	}
	return Build(files...), nil
}

// Resolve finds the definition a call expression targets, or nil for
// indirect calls and functions without bodies. Per §6, a missing CFG
// is not an error — the analysis silently continues.
func (p *Program) Resolve(caller *Function, call *cc.CallExpr) *Function {
	id, ok := call.Fun.(*cc.Ident)
	if !ok {
		return nil // indirect call
	}
	// Static function in the same file shadows externals.
	if caller != nil {
		if fn, ok := p.Funcs[staticKey(caller.Decl.File, id.Name)]; ok {
			return fn
		}
	}
	return p.Funcs[id.Name]
}

// computeRoots finds call-graph roots. Functions with no callers are
// roots. Functions reachable only through cycles get one arbitrary
// (deterministic: lexicographically first) representative per cycle.
func (p *Program) computeRoots() {
	ordered := make([]*Function, len(p.All))
	copy(ordered, p.All)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Name < ordered[j].Name })

	reached := map[*Function]bool{}
	var mark func(*Function)
	mark = func(fn *Function) {
		if reached[fn] {
			return
		}
		reached[fn] = true
		for _, c := range fn.Callees {
			mark(c)
		}
	}
	for _, fn := range ordered {
		if len(fn.Callers) == 0 {
			p.Roots = append(p.Roots, fn)
			mark(fn)
		}
	}
	// Break cycles: any function still unreached is in (or below) a
	// recursive chain with no acyclic entry; promote the first.
	for {
		var pick *Function
		for _, fn := range ordered {
			if !reached[fn] {
				pick = fn
				break
			}
		}
		if pick == nil {
			return
		}
		p.Roots = append(p.Roots, pick)
		mark(pick)
	}
}

// Lookup returns the function with the given name, if defined.
func (p *Program) Lookup(name string) *Function {
	return p.Funcs[name]
}

// String summarizes the program's call graph.
func (p *Program) String() string {
	var sb strings.Builder
	for _, fn := range p.All {
		fmt.Fprintf(&sb, "%s ->", fn.Name)
		for _, c := range fn.Callees {
			fmt.Fprintf(&sb, " %s", c.Name)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "roots:")
	for _, r := range p.Roots {
		fmt.Fprintf(&sb, " %s", r.Name)
	}
	sb.WriteByte('\n')
	return sb.String()
}
