package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/metal"
)

func parseChecker(src string) (*metal.Checker, error) { return metal.Parse(src) }

// lockChecker is Figure 3 of the paper: it "warns when locks are (1)
// released without being acquired, (2) double acquired, or (3) not
// released at all".
const lockChecker = `
sm lock_checker;
state decl any_pointer l;

start:
    { lock(l) }    ==> l.locked
  | { trylock(l) } ==> true=l.locked, false=l.stop
  | { unlock(l) }  ==> l.stop, { err("releasing unacquired lock %s!", mc_identifier(l)); }
;

l.locked:
    { lock(l) }   ==> l.stop, { err("double acquire of %s!", mc_identifier(l)); }
  | { unlock(l) } ==> l.stop
  | $end_of_path$ ==> l.stop, { err("lock %s never released!", mc_identifier(l)); }
;
`

const lockDecls = `
void lock(int *l); void unlock(int *l); int trylock(int *l);
`

// TestLockCheckerFig3 is experiment F3: all three error kinds.
func TestLockCheckerFig3(t *testing.T) {
	src := lockDecls + `
int m1, m2, m3, m4;
void double_acquire(void) {
    lock(&m1);
    lock(&m1);
}
void release_unacquired(void) {
    unlock(&m2);
}
void never_released(int x) {
    lock(&m3);
    if (x)
        unlock(&m3);
}
void clean(void) {
    lock(&m4);
    unlock(&m4);
}`
	_, rs := runChecker(t, lockChecker, map[string]string{"l.c": src}, DefaultOptions())
	wants := []string{
		"double acquire of &m1!",
		"releasing unacquired lock &m2!",
		"lock &m3 never released!",
	}
	for _, w := range wants {
		found := false
		for _, r := range rs.Reports {
			if strings.Contains(r.Msg, w) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing %q; got %v", w, rs.Reports)
		}
	}
	for _, r := range rs.Reports {
		if strings.Contains(r.Msg, "m4") {
			t.Errorf("clean function flagged: %v", r)
		}
	}
	if rs.Len() != 3 {
		t.Errorf("want exactly 3 reports, got %d: %v", rs.Len(), rs.Reports)
	}
}

// TestTrylockPathSpecific verifies §3.2: "in the first transition, we
// attach the state locked to the lock on the true path, and the state
// stop to the lock on the false path."
func TestTrylockPathSpecific(t *testing.T) {
	src := lockDecls + `
int m;
void good(void) {
    if (trylock(&m)) {
        unlock(&m);
    }
}`
	_, rs := runChecker(t, lockChecker, map[string]string{"t.c": src}, DefaultOptions())
	if rs.Len() != 0 {
		t.Errorf("good trylock usage flagged: %v", rs.Reports)
	}

	// Failing to unlock on the success path is a missing release; the
	// failure path is clean (lock not acquired there).
	src2 := lockDecls + `
int m;
int bad(void) {
    if (trylock(&m)) {
        return 1;
    }
    return 0;
}`
	_, rs2 := runChecker(t, lockChecker, map[string]string{"t.c": src2}, DefaultOptions())
	if rs2.Len() != 1 || !strings.Contains(rs2.Reports[0].Msg, "never released") {
		t.Errorf("want one never-released report, got %v", rs2.Reports)
	}
}

// TestTrylockNegatedCondition: "if (!trylock(l))" swaps the branch
// destinations (source-level truth).
func TestTrylockNegatedCondition(t *testing.T) {
	src := lockDecls + `
int m;
int good(void) {
    if (!trylock(&m))
        return 0;
    unlock(&m);
    return 1;
}`
	_, rs := runChecker(t, lockChecker, map[string]string{"n.c": src}, DefaultOptions())
	if rs.Len() != 0 {
		t.Errorf("negated trylock mishandled: %v", rs.Reports)
	}

	src2 := lockDecls + `
int m;
int bad(void) {
    if (!trylock(&m))
        return 0;
    return 1;
}`
	_, rs2 := runChecker(t, lockChecker, map[string]string{"n.c": src2}, DefaultOptions())
	if rs2.Len() != 1 || !strings.Contains(rs2.Reports[0].Msg, "never released") {
		t.Errorf("want never-released on the acquired path, got %v", rs2.Reports)
	}
}

// TestPendingCreationKeepsItsBindings: a path-specific creation waits
// for the block's end while later points of the block match on the same
// context, and a match's bindings last until the next match
// (pattern.Ctx): the pending transition must hold its own copy, or both
// arms would track the second lock twice and the first never.
func TestPendingCreationKeepsItsBindings(t *testing.T) {
	const checker = `
sm both_arms;
state decl any_pointer l;

start:
    { trylock(l) } ==> true=l.held, false=l.failed
;

l.held:
    $end_of_path$ ==> l.stop, { err("%s held", mc_identifier(l)); }
;

l.failed:
    $end_of_path$ ==> l.stop, { err("%s failed", mc_identifier(l)); }
;
`
	src := lockDecls + `
int two(int *a, int *b) {
    if (trylock(a) | trylock(b))
        return 1;
    return 0;
}`
	_, rs := runChecker(t, checker, map[string]string{"two.c": src}, DefaultOptions())
	var got []string
	for _, r := range rs.Reports {
		got = append(got, r.Msg)
	}
	slices.Sort(got)
	if want := []string{"a failed", "a held", "b failed", "b held"}; !slices.Equal(got, want) {
		t.Errorf("reports %q, want %q", got, want)
	}
}

// TestTrylockEqZero: "if (trylock(l) == 0)" also swaps polarity.
func TestTrylockEqZero(t *testing.T) {
	src := lockDecls + `
int m;
int good(void) {
    if (trylock(&m) == 0)
        return 0;
    unlock(&m);
    return 1;
}`
	_, rs := runChecker(t, lockChecker, map[string]string{"z.c": src}, DefaultOptions())
	if rs.Len() != 0 {
		t.Errorf("trylock()==0 mishandled: %v", rs.Reports)
	}
}

// TestInterproceduralLock: a lock acquired in the caller and released
// in a callee must balance (refine/restore of &m across the call).
func TestInterproceduralLock(t *testing.T) {
	src := lockDecls + `
int m;
void do_release(void) {
    unlock(&m);
}
void entry(void) {
    lock(&m);
    do_release();
}`
	_, rs := runChecker(t, lockChecker, map[string]string{"i.c": src}, DefaultOptions())
	if rs.Len() != 0 {
		t.Errorf("cross-function lock pairing flagged: %v", rs.Reports)
	}
}

// TestLockParamRefine: lock passed as parameter, released through the
// formal (Table 2 row 1).
func TestLockParamRefine(t *testing.T) {
	src := lockDecls + `
void do_release(int *lk) {
    unlock(lk);
}
void entry(int *mylock) {
    lock(mylock);
    do_release(mylock);
}`
	_, rs := runChecker(t, lockChecker, map[string]string{"p.c": src}, DefaultOptions())
	if rs.Len() != 0 {
		t.Errorf("param-passed lock flagged: %v", rs.Reports)
	}
}

// TestRecursiveLockDepth exercises the §3.2 data-value extension: "we
// could extend the lock checker ... to handle recursive locks by using
// the data values in each instance of l to track the current depth."
func TestRecursiveLockDepth(t *testing.T) {
	recursive := `
sm rec_lock;
state decl any_pointer l;

start:
    { rlock(l) } ==> l.held, { incr(l); }
;

l.held:
    { rlock(l) }   ==> l.held, { incr(l); check_data(l, 0, 3, "lock depth exceeded"); }
  | { runlock(l) } ==> l.held, { decr(l); check_data(l, 0, 3, "unlock below zero"); }
;
`
	src := `
void rlock(int *l); void runlock(int *l);
int m;
void balanced(void) {
    rlock(&m);
    rlock(&m);
    runlock(&m);
    runlock(&m);
}
void too_deep(void) {
    rlock(&m);
    rlock(&m);
    rlock(&m);
    rlock(&m);
    rlock(&m);
}`
	_, rs := runChecker(t, recursive, map[string]string{"r.c": src}, DefaultOptions())
	deep := 0
	for _, r := range rs.Reports {
		if strings.Contains(r.Msg, "depth exceeded") {
			deep++
		}
		if strings.Contains(r.Msg, "below zero") {
			t.Errorf("balanced function flagged: %v", r)
		}
	}
	if deep == 0 {
		t.Error("depth overflow not reported")
	}
}

// TestPathKillComposition reproduces the §3.2 composition idiom: one
// extension flags calls to panic; a composed checker stops traversing
// paths dominated by them.
func TestPathKillComposition(t *testing.T) {
	marker := `
sm panic_marker;
decl any_fn_call fn;
decl any_arguments args;

start:
    { fn(args) } && ${ mc_is_call_to(fn, "panic") } ==> start, { mark_fn(fn, "pathkill"); }
;
`
	killer := `
sm free_nopanic;
state decl any_pointer v;
decl any_fn_call fn;
decl any_arguments args;

start:
    { kfree(v) } ==> v.freed
  | { fn(args) } && ${ mc_fn_marked(fn, "pathkill") } ==> start, { kill_path(); }
;

v.freed:
    { *v } ==> v.stop, { err("using %s after free!", mc_identifier(v)); }
;
`
	src := `
void kfree(void *p);
void panic(const char *msg);
int f(int *p, int c) {
    kfree(p);
    if (c) {
        panic("bail");
        return *p;
    }
    return 0;
}`
	p := buildProg(t, map[string]string{"pk.c": src})
	shared := NewShared()
	for _, cs := range []string{marker, killer} {
		c, err := parseChecker(cs)
		if err != nil {
			t.Fatal(err)
		}
		en := NewEngineShared(p, c, DefaultOptions(), shared)
		rs := en.RunContext(context.Background())
		if c.Name == "free_nopanic" && rs.Len() != 0 {
			t.Errorf("path after panic should be killed; got %v", rs.Reports)
		}
	}
}

// TestFileStaticInactivation: file-scope statics pass across calls but
// are inactive in other files and reactivate on return (§6.1). The hold
// at the call into b.c is the A→B→A approximation (DESIGN.md §7), and
// is counted.
func TestFileStaticInactivation(t *testing.T) {
	srcs := map[string]string{
		"a.c": `
void kfree(void *p);
void other_file_helper(void);
static int *cache;
int entry(void) {
    kfree(cache);
    other_file_helper();
    return *cache;
}`,
		"b.c": `
int *cache_b;
void other_file_helper(void) {
}`,
	}
	en, rs := runChecker(t, freeChecker, srcs, DefaultOptions())
	// The error is on the caller side after reactivation.
	if rs.Len() != 1 || !hasReportAt(rs, 8, "using cache after free!") {
		t.Errorf("static reactivation: got %v", rs.Reports)
	}
	if en.Stats.StaticsHeld != 1 {
		t.Errorf("StaticsHeld = %d, want 1 (cache, at the call into b.c)", en.Stats.StaticsHeld)
	}
}

// TestGlobalPassesUnchanged: globals keep state across the boundary
// and are visible inside callees in any file (§6.1).
func TestGlobalStateAcrossFiles(t *testing.T) {
	srcs := map[string]string{
		"a.c": `
void kfree(void *p);
void use_global(void);
int *gp;
void entry(void) {
    kfree(gp);
    use_global();
}`,
		"b.c": `
extern int *gp;
int use_it;
void use_global(void) {
    use_it = *gp;
}`,
	}
	_, rs := runChecker(t, freeChecker, srcs, DefaultOptions())
	if rs.Len() != 1 || !hasReportAt(rs, 5, "using gp after free!") {
		t.Errorf("global deref in other file: got %v", rs.Reports)
	}
}
