package prog

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/workload"
)

// referencePairs is the per-call pairing the engine used to redo on
// every followed call: the oracle for CallSite.Args.
func referencePairs(call *cc.CallExpr, callee *Function) []ArgMap {
	var maps []ArgMap
	for i, p := range callee.Decl.Params {
		if i >= len(call.Args) {
			break
		}
		if p.Name == "" {
			continue
		}
		actual := call.Args[i]
		if u, ok := actual.(*cc.UnaryExpr); ok && u.Op == cc.TokAmp && !u.Postfix {
			maps = append(maps, ArgMap{Actual: u.X, Formal: &cc.Ident{Name: p.Name}, Deref: true})
			continue
		}
		maps = append(maps, ArgMap{Actual: actual, Formal: &cc.Ident{Name: p.Name}})
	}
	return maps
}

func corpusSources(t *testing.T) map[string]string {
	t.Helper()
	paths, err := filepath.Glob("../../testdata/corpus/*.c")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	srcs := map[string]string{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(path)] = string(data)
	}
	return srcs
}

// TestProgramModelMatchesReference: what Build precomputes equals what
// its readers used to derive for themselves — the ExecOrder expansion
// of every block, Resolve and the Table 2 pairs at every call point,
// the locals with their parameter flags — and ReleaseBody drops all of
// it.
func TestProgramModelMatchesReference(t *testing.T) {
	mixed, _ := workload.MixedTree(4, 25, 2002)
	for name, srcs := range map[string]map[string]string{
		"corpus": corpusSources(t), "call-rich": workload.CallRichTree(), "mixed": mixed,
		"unnamed-param": {"u.c": "void rel(int, int *p) {}\nvoid caller(int *q) { rel(0, q); }"},
	} {
		t.Run(name, func(t *testing.T) {
			p, err := BuildSource(srcs)
			if err != nil {
				t.Fatal(err)
			}
			points, sites := 0, 0
			for i, fn := range p.All {
				if fn.Index != i {
					t.Fatalf("%s: Index = %d at All[%d]", fn.Name, fn.Index, i)
				}
				// The locals: every name declared, a parameter's
				// whatever a block redeclares.
				params := map[string]bool{}
				for _, prm := range fn.Decl.Params {
					params[prm.Name] = true
				}
				walkBody(fn.Decl.Body, func(d *cc.VarDecl) {
					if _, ok := params[d.Name]; !ok {
						params[d.Name] = false
					}
				}, func(cc.Expr) {})
				locals := fn.Graph.Locals
				if len(locals) != len(params) {
					t.Errorf("%s: locals %v, want the %d names %v", fn.Name, locals, len(params), params)
				}
				for k, l := range locals {
					if k > 0 && locals[k-1].Name >= l.Name {
						t.Errorf("%s: locals %v not sorted and distinct", fn.Name, locals)
					}
					param, ok := params[l.Name]
					if !ok || l.Param != param || !locals.Has(l.Name) || locals.HasNonParam(l.Name) == param {
						t.Errorf("%s: local %+v (Has %v, HasNonParam %v), want declared %v, parameter %v",
							fn.Name, l, locals.Has(l.Name), locals.HasNonParam(l.Name), ok, param)
					}
				}
				fnSites := 0
				for bi, b := range fn.Graph.Blocks {
					if b.ID != bi {
						t.Fatalf("%s: block ID %d at Blocks[%d]", fn.Name, b.ID, bi)
					}
					var want []cc.Expr
					for _, e := range b.Exprs {
						want = cc.ExecOrder(e, want)
					}
					if len(b.Points) != len(want) || cap(b.Points) != len(want) {
						t.Fatalf("%s B%d: %d points (cap %d), want exactly %d", fn.Name, b.ID, len(b.Points), cap(b.Points), len(want))
					}
					points += len(want)
					for pi, pt := range want {
						if b.Points[pi] != pt {
							t.Fatalf("%s B%d: point %d differs from ExecOrder", fn.Name, b.ID, pi)
						}
						site := fn.Site(b, pi)
						call, isCall := pt.(*cc.CallExpr)
						var callee *Function
						if isCall {
							callee = p.Resolve(fn, call)
						}
						if callee == nil {
							if site != nil {
								t.Errorf("%s B%d point %d: a site where nothing resolves", fn.Name, b.ID, pi)
							}
							continue
						}
						if site == nil || site.Callee != callee {
							t.Fatalf("%s B%d point %d: site %+v, want callee %s", fn.Name, b.ID, pi, site, callee.Name)
						}
						fnSites++
						ref := referencePairs(call, callee)
						if len(site.Args) != len(ref) {
							t.Fatalf("%s -> %s: %d pairs, want %d", fn.Name, callee.Name, len(site.Args), len(ref))
						}
						for k, m := range site.Args {
							if m.Actual != ref[k].Actual || m.Formal.Name != ref[k].Formal.Name || m.Deref != ref[k].Deref {
								t.Errorf("%s -> %s pair %d: %+v, want %+v", fn.Name, callee.Name, k, m, ref[k])
							}
						}
					}
				}
				if fnSites != len(fn.Sites) {
					t.Errorf("%s: %d sites recorded, %d call points resolve", fn.Name, len(fn.Sites), fnSites)
				}
				sites += fnSites
			}
			// MixedTree is all leaves: points, but no resolved call.
			if points == 0 || (sites == 0 && name != "mixed") {
				t.Fatalf("vacuous: %d points, %d sites", points, sites)
			}
			for _, fn := range p.All {
				fn.ReleaseBody()
				if fn.Graph != nil || fn.Sites != nil || fn.Decl.Body != nil {
					t.Fatalf("%s: ReleaseBody left graph, sites or body behind", fn.Name)
				}
			}
		})
	}
}

// TestFunctionTablesHaveNoMaps pins the representation of what a built
// function keeps for the whole run (DESIGN §10.4): its tables are arrays
// (sorted locals, call sites, blocks) and its expressions' types live in
// their nodes, because a map per function is a pointer-dense allocation
// the garbage collector scans for as long as the program lives. A map
// field in Function or cfg.Graph fails here, and so does one in a struct
// of this package or cfg's they reach by value, slice or pointer.
func TestFunctionTablesHaveNoMaps(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var check func(path string, ty reflect.Type)
	check = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Map:
			t.Errorf("%s is a map (%s)", path, ty)
		case reflect.Slice, reflect.Array:
			check(path+"[]", ty.Elem())
		case reflect.Pointer:
			if pkg := ty.Elem().PkgPath(); pkg == "repro/internal/prog" || pkg == "repro/internal/cfg" {
				check(path, ty.Elem())
			}
		case reflect.Struct:
			if seen[ty] {
				return
			}
			seen[ty] = true
			for i := range ty.NumField() {
				f := ty.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		}
	}
	check("prog.Function", reflect.TypeOf(Function{}))
	check("cfg.Graph", reflect.TypeOf(cfg.Graph{}))
	for _, ty := range []reflect.Type{reflect.TypeOf(cfg.Block{}), reflect.TypeOf(cfg.Local{}), reflect.TypeOf(CallSite{}), reflect.TypeOf(Unit{})} {
		if !seen[ty] {
			t.Errorf("%s not reached: the walk is vacuous", ty)
		}
	}
}
