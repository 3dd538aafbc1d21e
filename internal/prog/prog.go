// Package prog assembles parsed translation units into a whole-program
// representation: per-function CFGs, the call graph with roots, and the
// type environment. This is the "second analysis pass" of §6: it reads
// ASTs, reassembles them, and constructs the CFG and call graph.
// Functions with no callers are roots; recursive call chains are broken
// arbitrarily (§6 step 2).
//
// Build assembles the program and builds every body. Assemble builds
// the skeleton from pass 1's skims, and BuildUnits builds a unit's
// bodies when a run needs them (DESIGN.md §8). Engines running
// concurrently (DESIGN.md §5 "Engine parallelism") share one Program
// and may only read it: BuildUnits and ReleaseBody write only functions
// no engine can reach meanwhile. Anything needing per-run mutable state
// must live in the engine, never here.
package prog

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/slab"
)

// Function is one analyzed function: its declaration (whose body's
// expression nodes hold their inferred types, cc.TypeOf), CFG,
// call-graph links, and the part of the program model (DESIGN.md §5)
// that is a function of the program alone, so that Build computes it
// once and no engine computes it again.
type Function struct {
	Name string
	// Index is the function's position in Program.All: the dense id
	// engines and the dispatch compiler index their per-function
	// tables by.
	Index   int
	Decl    *cc.FuncDecl
	Graph   *cfg.Graph
	Callees []*Function
	Callers []*Function
	// Unit is the call-graph component the function belongs to
	// (units.go).
	Unit *Unit
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

// sitesSlab holds what one build gives its functions' call sites: the
// Sites arrays, and each site's ArgMaps and formal nodes.
type sitesSlab struct {
	sites   slab.Slab[CallSite]
	maps    slab.Slab[ArgMap]
	formals slab.Slab[cc.Ident]
}

// argMaps pairs a call's actuals with the callee's formals. A
// parameter without a name can hold no state and is skipped. The
// site's maps and formal nodes are carved from s.
func (s *sitesSlab) argMaps(call *cc.CallExpr, callee *Function) []ArgMap {
	n := min(len(callee.Decl.Params), len(call.Args))
	var maps []ArgMap
	var formals []cc.Ident
	for i, p := range callee.Decl.Params[:n] {
		if p.Name == "" {
			continue
		}
		if maps == nil {
			maps, formals = s.maps.Take(n)[:0], s.formals.Take(n)
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

// ReleaseBody drops the function's CFG, program model, body AST (and
// with it the body's types) and skim so the garbage collector can
// reclaim them — the AST half of retirement (DESIGN.md §12); a body
// never parsed has only its skim to drop. The declaration shell (name, file, params) survives, so
// FuncID and the call-graph links keep working; Decl is the Program's
// own copy of it (Assemble), so the declaration a caller handed to
// AddAST is never written. This and BuildUnits are the sanctioned
// mutations of an assembled Program; the caller must guarantee no traversal
// can still visit the function (no call edge leaves a unit, so once a
// unit's last root finishes nothing can) and must publish the write
// with an ordering barrier of its own (the mc releaser does it under a
// mutex its readers also pass through). A released function looks like
// one without a body — the §6 missing-CFG case — which is why release
// is only sound post-traversal.
func (fn *Function) ReleaseBody() {
	fn.Graph = nil
	fn.Sites = nil
	if fn.Decl != nil {
		fn.Decl.Body = nil
		fn.Decl.Skim = cc.BodySkim{}
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

	// units is the call-graph partition (units.go), built by Assemble.
	units []*Unit
	// env types the bodies BuildUnits builds (nil after
	// ReleaseFrontEnd).
	env *cc.TypeEnv

	// FuncByID's lazily built index (units.go).
	byIDOnce sync.Once
	byID     map[string]*Function
}

// staticKey names a file-scoped function uniquely.
func staticKey(file, name string) string { return file + ":" + name }

// Build assembles a program from parsed files and builds every
// function's body: Assemble, then BuildUnits over every unit. A
// skimmed body that does not parse is left unbuilt, like a missing
// CFG (§6); mc reports such an error through BuildUnits instead.
func Build(files ...*cc.File) *Program {
	p := Assemble(files...)
	p.BuildUnits(p.units, 1)
	p.ReleaseFrontEnd()
	return p
}

// Assemble builds a program's skeleton from pass 1's files: every
// definition, the file-scope variables, the call graph, its roots and
// its units. A body pass 1 parsed is typed and given its CFG and call
// sites now, and its calls link the call graph; a skimmed body links
// its skim's callee names, and is parsed and built when BuildUnits asks
// for its unit. Typing writes the types into the body's nodes, so two
// programs assembled from the same parsed files must not be built, or
// one built while the other runs, at the same time.
func Assemble(files ...*cc.File) *Program {
	p := &Program{
		Funcs:       map[string]*Function{},
		GlobalNames: map[string]bool{},
		Statics:     map[string]string{},
		// The type environment indexes every declaration, so it is the
		// program's own: a released body has no referent in the Program.
		env: cc.NewTypeEnv(files...),
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
	// Build the parsed bodies; then link the call graph.
	var cb cfg.Builder
	var ss sitesSlab
	var sites []CallSite // one function's, copied out at its exact size
	for _, fn := range p.All {
		if fn.Decl.Body != nil {
			p.buildBody(&cb, fn)
			sites = p.resolveSites(fn, &ss, sites)
		}
	}
	p.linkCalls()
	p.computeRoots()
	p.buildUnits()
	return p
}

// buildBody types fn's parsed body and builds its CFG.
func (p *Program) buildBody(cb *cfg.Builder, fn *Function) {
	fn.Graph = cb.Build(fn.Decl)
	p.env.CheckFunc(fn.Decl)
}

// linkCalls links the call graph, from each built body's call sites
// and each skimmed one's callee names: it counts every function's
// distinct callees and callers, carves both lists from one array, and
// fills them, callers in the order of p.All.
func (p *Program) linkCalls() {
	n := len(p.All)
	// linked[callee.Index] is the index+1 of the last caller that named
	// callee, so a caller's callees are distinct; callers and callees
	// count each function's.
	work := make([]int, 3*n)
	linked, callers, callees := work[:n], work[n:2*n], work[2*n:]
	eachCallee := func(fn *Function, f func(callee *Function)) {
		visit := func(callee *Function) {
			if callee != nil && linked[callee.Index] != fn.Index+1 {
				linked[callee.Index] = fn.Index + 1
				f(callee)
			}
		}
		if fn.Graph != nil {
			for i := range fn.Sites {
				visit(fn.Sites[i].Callee)
			}
			return
		}
		for _, name := range fn.Decl.Skim.Callees {
			visit(p.resolve(fn, name))
		}
	}
	edges := 0
	for _, fn := range p.All {
		eachCallee(fn, func(callee *Function) {
			callees[fn.Index]++
			callers[callee.Index]++
			edges++
		})
	}
	if edges == 0 {
		return
	}
	lists := make([]*Function, 2*edges)
	for _, fn := range p.All {
		if k := callees[fn.Index]; k > 0 {
			fn.Callees, lists = lists[:0:k], lists[k:]
		}
		if k := callers[fn.Index]; k > 0 {
			fn.Callers, lists = lists[:0:k], lists[k:]
		}
	}
	clear(linked)
	for _, fn := range p.All {
		eachCallee(fn, func(callee *Function) {
			fn.Callees = append(fn.Callees, callee)
			callee.Callers = append(callee.Callers, fn)
		})
	}
}

// resolveSites records fn's direct calls to defined functions, ordered
// by (Block, Point), as fn.Sites, carved from ss. sites is a work
// array, returned for reuse.
func (p *Program) resolveSites(fn *Function, ss *sitesSlab, sites []CallSite) []CallSite {
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
			sites = append(sites, CallSite{Block: b.ID, Point: i, Callee: callee, Args: ss.argMaps(call, callee)})
		}
	}
	if len(sites) > 0 {
		fn.Sites = ss.sites.Take(len(sites))
		copy(fn.Sites, sites)
	}
	return sites
}

// BuildUnits parses the skimmed bodies of the given units' functions
// (cc.ParseBody, the files on a pool of at most workers goroutines),
// then types them and builds their CFGs and call sites, as Assemble
// does for a parsed body. Functions already built, and released ones,
// are skipped. It returns how many bodies it parsed. Its error is the
// first parse error in source order among the bodies it parsed; the
// program is then unusable, and the count 0. Like ReleaseBody, it
// writes an assembled Program: the caller must guarantee that nothing
// reads the functions of these units meanwhile, and that no other
// BuildUnits call on the program runs at the same time.
func (p *Program) BuildUnits(units []*Unit, workers int) (parsed int, err error) {
	var todo []*Function
	for _, u := range units {
		for _, fn := range u.Funcs {
			if fn.Graph == nil && fn.Decl.IsDefinition() {
				todo = append(todo, fn)
			}
		}
	}
	if len(todo) == 0 {
		return 0, nil
	}
	slices.SortFunc(todo, func(a, b *Function) int { return a.Index - b.Index })
	todo = slices.Compact(todo) // units may repeat
	// A file's bodies share its parser: one goroutine per file at a
	// time, files in parallel.
	errs := make([]error, len(todo))
	var groups [][2]int // the [lo, hi) of each file's run in todo
	for lo := 0; lo < len(todo); {
		hi := lo + 1
		for hi < len(todo) && todo[hi].Decl.File == todo[lo].Decl.File {
			hi++
		}
		groups = append(groups, [2]int{lo, hi})
		lo = hi
	}
	// Each parse worker carves its bodies from an arena of its own.
	parseGroup := func(a *cc.Arena, g [2]int) {
		for i := g[0]; i < g[1]; i++ {
			errs[i] = cc.ParseBody(todo[i].Decl, a)
		}
	}
	if workers = min(workers, len(groups)); workers > 1 {
		next := make(chan [2]int)
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var a cc.Arena
				for g := range next {
					parseGroup(&a, g)
				}
			}()
		}
		for _, g := range groups {
			next <- g
		}
		close(next)
		wg.Wait()
	} else {
		var a cc.Arena
		for _, g := range groups {
			parseGroup(&a, g)
		}
	}
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("parse %s: %w", todo[i].Decl.File, err)
		}
	}
	var cb cfg.Builder
	var ss sitesSlab
	var sites []CallSite
	for _, fn := range todo {
		p.buildBody(&cb, fn)
		sites = p.resolveSites(fn, &ss, sites)
	}
	return len(todo), nil
}

// ReleaseFrontEnd drops what BuildUnits reads — the type environment
// and every skimmed body's token stream — once nothing will build a
// unit again. Built bodies are unaffected.
func (p *Program) ReleaseFrontEnd() {
	p.env = nil
	for _, fn := range p.All {
		fn.Decl.Skim = cc.BodySkim{}
	}
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
	return p.resolve(caller, cc.CalleeName(call))
}

// resolve finds the definition a direct call of name from caller
// targets; nil for "", an indirect call.
func (p *Program) resolve(caller *Function, name string) *Function {
	if name == "" {
		return nil
	}
	// Static function in the same file shadows externals.
	if caller != nil {
		if fn, ok := p.Funcs[staticKey(caller.Decl.File, name)]; ok {
			return fn
		}
	}
	return p.Funcs[name]
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
