// Package checkers bundles the standard metal extensions shipped with
// this reproduction: the paper's free and lock checkers (Figures 1 and
// 3) plus a representative slice of the "over fifty checkers" the
// paper reports writing — null-deref, interrupt discipline, blocking
// calls, security (banned functions, format strings), leaks, realloc
// misuse, the SECURITY path annotator, and the path-kill composition
// marker.
package checkers

import (
	"slices"
	"strings"
	"sync"

	"repro/internal/metal"
)

// Source holds one bundled checker's metal text and its parse.
type Source struct {
	Name string
	Doc  string
	Text string
	// Checker is Text's parse, made once per process and shared
	// read-only by every analyzer that loads it (DESIGN.md §14.2).
	Checker *metal.Checker
}

// Free is Figure 1: use-after-free and double-free, extended with the
// v[idx] dereference form.
const Free = `
sm free_checker;
state decl any_pointer v;
decl any_expr idx;

start:
    { kfree(v) } ==> v.freed
;

v.freed:
    { *v }       ==> v.stop, { rule("kfree"); err("using %s after free!", mc_identifier(v)); violation("kfree"); }
  | { v[idx] }   ==> v.stop, { rule("kfree"); err("using %s after free!", mc_identifier(v)); violation("kfree"); }
  | { kfree(v) } ==> v.stop, { rule("kfree"); err("double free of %s!", mc_identifier(v)); violation("kfree"); }
  | $end_of_path$ ==> v.stop, { example("kfree"); }
;
`

// Lock is Figure 3: lock discipline with nonblocking trylock.
const Lock = `
sm lock_checker;
state decl any_pointer l;

start:
    { lock(l) }     ==> l.locked
  | { spin_lock(l) } ==> l.locked
  | { trylock(l) }  ==> true=l.locked, false=l.stop
  | { unlock(l) }   ==> l.stop, { rule("lock"); err("releasing unacquired lock %s!", mc_identifier(l)); violation("lock"); }
  | { spin_unlock(l) } ==> l.stop, { rule("lock"); err("releasing unacquired lock %s!", mc_identifier(l)); violation("lock"); }
;

l.locked:
    { lock(l) }      ==> l.stop, { rule("lock"); err("double acquire of %s!", mc_identifier(l)); violation("lock"); }
  | { spin_lock(l) } ==> l.stop, { rule("lock"); err("double acquire of %s!", mc_identifier(l)); violation("lock"); }
  | { unlock(l) }    ==> l.stop, { example("lock"); }
  | { spin_unlock(l) } ==> l.stop, { example("lock"); }
  | $end_of_path$    ==> l.stop, { rule("lock"); err("lock %s never released!", mc_identifier(l)); violation("lock"); }
;
`

// Null flags dereferences of possibly-NULL allocator results before
// any NULL check.
const Null = `
sm null_checker;
state decl any_pointer v;
decl any_expr idx;
decl any_arguments args;

start:
    { v = kmalloc(args) } ==> v.unchecked
  | { v = malloc(args) }  ==> v.unchecked
;

v.unchecked:
    { *v }     ==> v.stop, { rule("null"); err("dereferencing %s, possibly NULL from allocator", mc_identifier(v)); violation("null"); }
  | { v[idx] } ==> v.stop, { rule("null"); err("indexing %s, possibly NULL from allocator", mc_identifier(v)); violation("null"); }
  | { v == 0 } ==> v.stop, { example("null"); }
  | { v != 0 } ==> v.stop, { example("null"); }
  | { !v }     ==> v.stop, { example("null"); }
  | { v } && ${ mc_is_branch_cond(v) } ==> v.stop, { example("null"); }
;
`

// Interrupt checks cli/sti discipline (a global-state property: the
// paper's example of "interrupts are disabled").
const Interrupt = `
sm interrupt_checker;

enabled:
    { cli() } ==> disabled
  | { sti() } ==> enabled, { rule("intr"); err("enabling already-enabled interrupts"); violation("intr"); }
;

disabled:
    { sti() } ==> enabled, { example("intr"); }
  | { cli() } ==> disabled, { rule("intr"); err("disabling already-disabled interrupts"); violation("intr"); }
  | $end_of_path$ ==> disabled, { rule("intr"); err("path ends with interrupts disabled"); violation("intr"); }
;
`

// Block flags calls to blocking functions while interrupts are
// disabled (the checker class of [9]); blocking functions are marked
// via composition (mc_fn_marked) or the default set below.
const Block = `
sm block_checker;
decl any_fn_call fn;
decl any_arguments args;

enabled:
    { cli() } ==> disabled
;

disabled:
    { sti() } ==> enabled
  | { fn(args) } && ${ mc_fn_marked(fn, "blocking") } ==> disabled,
        { rule("block"); err("blocking call with interrupts disabled"); classify("ERROR"); violation("block"); }
;
`

// BannedFuncs flags calls to functions that are unsafe in any context.
const BannedFuncs = `
sm banned_checker;
decl any_fn_call fn;
decl any_arguments args;

start:
    { fn(args) } && ${ mc_is_call_to(fn, "gets") } ==> start,
        { rule("banned:gets"); err("gets() is never safe; use fgets"); classify("SECURITY"); violation("banned:gets"); }
  | { fn(args) } && ${ mc_is_call_to(fn, "strcpy") } ==> start,
        { rule("banned:strcpy"); err("strcpy() without bounds; use strncpy"); classify("SECURITY"); violation("banned:strcpy"); }
  | { fn(args) } && ${ mc_is_call_to(fn, "sprintf") } ==> start,
        { rule("banned:sprintf"); err("sprintf() without bounds; use snprintf"); classify("SECURITY"); violation("banned:sprintf"); }
;
`

// FormatString flags non-constant format strings (classic printf-style
// format string holes).
const FormatString = `
sm format_checker;
decl any_expr s;

start:
    { printf(s) } && ${ mc_not_string_constant(s) } ==> start,
        { rule("format"); err("non-constant format string %s", mc_identifier(s)); classify("SECURITY"); violation("format"); }
  | { syslog(s) } && ${ mc_not_string_constant(s) } ==> start,
        { rule("format"); err("non-constant format string %s", mc_identifier(s)); classify("SECURITY"); violation("format"); }
  | { printf(s) } && ${ mc_is_string_constant(s) } ==> start, { example("format"); }
  | { syslog(s) } && ${ mc_is_string_constant(s) } ==> start, { example("format"); }
;
`

// Leak reports allocations that neither escape nor get freed by the
// end of the path (ranked MINOR: easy to diagnose with testing).
const Leak = `
sm leak_checker;
state decl any_pointer v;
decl any_expr w;
decl any_arguments args;
decl any_fn_call fn;

start:
    { v = kmalloc(args) } && ${ mc_is_local(v) } ==> v.alloced
;

v.alloced:
    { kfree(v) } ==> v.stop, { example("leak"); }
  | { w = v }    ==> v.stop, { example("leak"); }
  | { fn(v) }    ==> v.stop
  | { return v }  ==> v.stop, { example("leak"); }
  | { !v }       ==> true=v.stop, false=v.alloced
  | { v == 0 }   ==> true=v.stop, false=v.alloced
  | $end_of_path$ ==> v.stop, { rule("leak"); err("allocation %s never freed or stored", mc_identifier(v)); classify("MINOR"); violation("leak"); }
;
`

// Realloc flags the classic "p = realloc(p, n)" misuse that leaks the
// original block when realloc fails (repeated-hole pattern).
const Realloc = `
sm realloc_checker;
decl any_pointer v;
decl any_expr n;

start:
    { v = realloc(v, n) } ==> start,
        { rule("realloc"); err("%s = realloc(%s, ...) loses the block on failure", mc_identifier(v), mc_identifier(v)); violation("realloc"); }
;
`

// Chroot enforces the classic jail idiom from the security checking
// work ([1]): chroot() must be immediately followed by chdir("/"),
// otherwise the process can escape the jail. Global-state property.
const Chroot = `
sm chroot_checker;
decl any_arguments args;
decl any_expr dir;

outside:
    { chroot(args) } ==> jailed
;

jailed:
    { chdir(dir) } ==> outside, { example("chroot"); }
  | $end_of_path$  ==> jailed,
        { rule("chroot"); err("chroot() without chdir(\"/\") lets the process escape the jail"); classify("SECURITY"); violation("chroot"); }
;
`

// TaintIndex tracks scalars read from user space: using one as an
// array index before any bounds check is an out-of-bounds write the
// user controls ([1]'s canonical kernel bug class).
const TaintIndex = `
sm taint_checker;
state decl any_scalar v;
decl any_expr a, src, bound;

start:
    { get_user(v, src) } ==> v.tainted
;

v.tainted:
    { a[v] }      ==> v.stop,
        { rule("taint"); err("user-controlled %s used as array index without a bounds check", mc_identifier(v)); classify("SECURITY"); violation("taint"); }
  | { v < bound }  ==> v.stop, { example("taint"); }
  | { v <= bound } ==> v.stop, { example("taint"); }
  | { v > bound }  ==> v.stop, { example("taint"); }
  | { v >= bound } ==> v.stop, { example("taint"); }
;
`

// SizeofMisuse flags kmalloc(sizeof(p)) where p is a pointer — the
// classic allocate-pointer-size-instead-of-struct-size bug.
const SizeofMisuse = `
sm sizeof_checker;
decl any_pointer w;

start:
    { kmalloc(sizeof w) } && ${ mc_is_pointer(w) } ==> start,
        { rule("sizeof"); err("kmalloc(sizeof %s) allocates pointer-size, not object-size; did you mean sizeof(*%s)?", mc_identifier(w), mc_identifier(w)); violation("sizeof"); }
  | { malloc(sizeof w) } && ${ mc_is_pointer(w) } ==> start,
        { rule("sizeof"); err("malloc(sizeof %s) allocates pointer-size, not object-size; did you mean sizeof(*%s)?", mc_identifier(w), mc_identifier(w)); violation("sizeof"); }
;
`

// FdPairing tracks file descriptors (scalar instances): every opened
// descriptor must be closed before it leaves scope.
const FdPairing = `
sm fd_checker;
state decl any_scalar fd;
decl any_arguments args;

start:
    { fd = open(args) } && ${ mc_is_local(fd) } ==> fd.opened
;

fd.opened:
    { close(fd) }   ==> fd.stop, { example("fd"); }
  | { return fd } ==> fd.stop, { example("fd"); }
  | { fd < 0 }      ==> true=fd.stop, false=fd.opened
  | { fd == -1 }    ==> true=fd.stop, false=fd.opened
  | $end_of_path$   ==> fd.stop, { rule("fd"); err("descriptor %s never closed", mc_identifier(fd)); violation("fd"); }
;
`

// FlagsPairing checks the save_flags/restore_flags interrupt-state
// idiom: saved flags must be restored on every path.
const FlagsPairing = `
sm flags_checker;
state decl any_expr f;

start:
    { save_flags(f) } ==> f.saved
;

f.saved:
    { restore_flags(f) } ==> f.stop, { example("flags"); }
  | $end_of_path$       ==> f.stop, { rule("flags"); err("flags %s saved but never restored", mc_identifier(f)); classify("ERROR"); violation("flags"); }
;
`

// SecAnnotator marks paths influenced by user-controlled input so
// subsequent errors on them rank as SECURITY (§9 checker-specific
// ranking). It composes textually into checkers that want it; the
// engine also exposes annotate() directly.
const SecAnnotator = `
sm sec_annotator;
decl any_fn_call fn;
decl any_arguments args;

start:
    { fn(args) } && ${ mc_is_call_to(fn, "copy_from_user") } ==> start, { annotate("SECURITY"); }
  | { fn(args) } && ${ mc_is_call_to(fn, "get_user") }       ==> start, { annotate("SECURITY"); }
;
`

// PanicMarker is the path-kill composition extension of §3.2: it flags
// calls to panic-style functions; checkers composed after it stop
// traversing paths dominated by those calls.
const PanicMarker = `
sm panic_marker;
decl any_fn_call fn;
decl any_arguments args;

start:
    { fn(args) } && ${ mc_is_call_to(fn, "panic") } ==> start, { mark_fn(fn, "pathkill"); }
  | { fn(args) } && ${ mc_is_call_to(fn, "BUG") }   ==> start, { mark_fn(fn, "pathkill"); }
;
`

// table is the bundled suite in name order, every text parsed on first
// use. A bundled text that does not parse is a bug of this package.
var table = sync.OnceValue(func() []Source {
	out := []Source{
		{Name: "free", Doc: "use-after-free / double-free (Figure 1)", Text: Free},
		{Name: "lock", Doc: "lock discipline with trylock (Figure 3)", Text: Lock},
		{Name: "null", Doc: "unchecked allocator results", Text: Null},
		{Name: "interrupt", Doc: "cli/sti global-state discipline", Text: Interrupt},
		{Name: "block", Doc: "blocking calls with interrupts disabled", Text: Block},
		{Name: "banned", Doc: "calls to never-safe functions", Text: BannedFuncs},
		{Name: "format", Doc: "non-constant format strings", Text: FormatString},
		{Name: "leak", Doc: "allocations never freed or stored", Text: Leak},
		{Name: "realloc", Doc: "p = realloc(p, n) misuse", Text: Realloc},
		{Name: "chroot", Doc: "chroot() without chdir(\"/\")", Text: Chroot},
		{Name: "taint", Doc: "user-controlled array indexes", Text: TaintIndex},
		{Name: "sizeof", Doc: "kmalloc(sizeof ptr) misuse", Text: SizeofMisuse},
		{Name: "fd", Doc: "descriptors opened but never closed", Text: FdPairing},
		{Name: "flags", Doc: "save_flags without restore_flags", Text: FlagsPairing},
		{Name: "sec-annotator", Doc: "SECURITY path annotation", Text: SecAnnotator},
		{Name: "panic-marker", Doc: "path-kill composition marker", Text: PanicMarker},
	}
	slices.SortFunc(out, func(a, b Source) int { return strings.Compare(a.Name, b.Name) })
	for i := range out {
		c, err := metal.Parse(out[i].Text)
		if err != nil {
			panic("bundled checker " + out[i].Name + ": " + err.Error())
		}
		out[i].Checker = c
	}
	return out
})

// All returns the bundled checkers in name order: a copy of the table,
// sharing its parsed checkers.
func All() []Source { return slices.Clone(table()) }

// Lookup returns a bundled checker by name.
func Lookup(name string) (Source, bool) {
	for _, s := range table() {
		if s.Name == name {
			return s, true
		}
	}
	return Source{}, false
}

// UnknownCheckerError names a checker that is not bundled.
type UnknownCheckerError struct {
	Name string
}

func (e *UnknownCheckerError) Error() string {
	names := make([]string, 0)
	for _, s := range table() {
		names = append(names, s.Name)
	}
	return "unknown checker " + e.Name + " (have: " + strings.Join(names, ", ") + ")"
}

// LineCount returns each checker's source line count — experiment E9
// ("extensions are small — usually between 10 and 200 lines of code").
func LineCount() map[string]int {
	out := map[string]int{}
	for _, s := range table() {
		out[s.Name] = len(strings.Split(strings.TrimSpace(s.Text), "\n"))
	}
	return out
}
