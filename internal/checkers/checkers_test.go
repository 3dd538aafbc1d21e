package checkers

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metal"
	"repro/internal/prog"
	"repro/internal/report"
)

func run(t *testing.T, checkerName, src string) *report.Set {
	t.Helper()
	p, err := prog.BuildSource(map[string]string{"t.c": src})
	if err != nil {
		t.Fatal(err)
	}
	en := core.NewEngine(p, mustLookup(t, checkerName), core.DefaultOptions())
	return en.RunContext(context.Background())
}

func mustLookup(t *testing.T, name string) *metal.Checker {
	t.Helper()
	s, ok := Lookup(name)
	if !ok {
		t.Fatalf("no bundled checker %s", name)
	}
	return s.Checker
}

func msgs(rs *report.Set) []string {
	var out []string
	for _, r := range rs.Reports {
		out = append(out, r.Msg)
	}
	return out
}

func TestAllCheckersParse(t *testing.T) {
	all := All()
	for i, s := range all {
		c, err := metal.Parse(s.Text)
		if err != nil {
			t.Errorf("%s: %v", s.Name, err)
		} else if s.Checker == nil || s.Checker.ID != c.ID || s.Checker.Source != s.Text {
			t.Errorf("%s: the table's checker is not its text's parse", s.Name)
		}
		if i > 0 && all[i-1].Name >= s.Name {
			t.Errorf("All is not in name order at %s", s.Name)
		}
	}
	// All hands out a copy: reordering it leaves the table as it was.
	all[0], all[1] = all[1], all[0]
	if again := All(); again[0].Name >= again[1].Name {
		t.Error("reordering All's result reordered the table")
	}
	if s, ok := Lookup(all[0].Name); !ok || s.Checker != all[0].Checker {
		t.Error("Lookup and All hand out different parses of one checker")
	}
}

func TestE9CheckerSizes(t *testing.T) {
	// E9: "extensions are small — usually between 10 and 200 lines of
	// code".
	for name, lines := range LineCount() {
		if lines < 3 || lines > 200 {
			t.Errorf("%s: %d lines, outside the paper's 10-200 band", name, lines)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("no_such_checker"); ok {
		t.Error("Lookup found a checker that is not bundled")
	}
	if msg := (&UnknownCheckerError{Name: "no_such_checker"}).Error(); !strings.Contains(msg, "free") {
		t.Errorf("error should list available checkers: %s", msg)
	}
}

func TestNullChecker(t *testing.T) {
	src := `
void *kmalloc(unsigned long n);
void kfree(void *p);
int bad(void) {
    int *p = kmalloc(4);
    return *p;
}
int good(void) {
    int *p = kmalloc(4);
    if (!p)
        return -1;
    return *p;
}
int good2(void) {
    int *p = kmalloc(4);
    if (p != 0)
        return *p;
    return -1;
}
int good_bare(void) {
    int *p = kmalloc(4);
    if (p)
        return *p;
    return -1;
}
int bad_index(void) {
    int *a = kmalloc(64);
    return a[3];
}`
	rs := run(t, "null", src)
	if rs.Len() != 2 {
		t.Fatalf("want 2 null reports (bad, bad_index), got %v", msgs(rs))
	}
	for _, r := range rs.Reports {
		if r.Func != "bad" && r.Func != "bad_index" {
			t.Errorf("false positive in %s: %s", r.Func, r.Msg)
		}
	}
}

func TestBannedChecker(t *testing.T) {
	src := `
char *gets(char *s);
char *fgets(char *s, int n);
int use(char *buf) {
    gets(buf);
    fgets(buf, 10);
    return 0;
}`
	rs := run(t, "banned", src)
	if rs.Len() != 1 || !strings.Contains(rs.Reports[0].Msg, "gets()") {
		t.Errorf("reports = %v", msgs(rs))
	}
	if rs.Reports[0].Class != report.ClassSecurity {
		t.Errorf("banned reports should be SECURITY, got %q", rs.Reports[0].Class)
	}
}

func TestFormatStringChecker(t *testing.T) {
	src := `
int printf(const char *fmt, ...);
int log_bad(char *user) {
    return printf(user);
}
int log_good(void) {
    return printf("fixed");
}`
	rs := run(t, "format", src)
	if rs.Len() != 1 || !strings.Contains(rs.Reports[0].Msg, "non-constant format") {
		t.Errorf("reports = %v", msgs(rs))
	}
}

func TestLeakChecker(t *testing.T) {
	src := `
void *kmalloc(unsigned long n);
void kfree(void *p);
int *global_store;
int leaky(void) {
    int *p = kmalloc(8);
    return 0;
}
int freed(void) {
    int *p = kmalloc(8);
    kfree(p);
    return 0;
}
int stored(void) {
    int *p = kmalloc(8);
    global_store = p;
    return 0;
}`
	rs := run(t, "leak", src)
	if rs.Len() != 1 {
		t.Fatalf("want 1 leak, got %v", msgs(rs))
	}
	if rs.Reports[0].Func != "leaky" || rs.Reports[0].Class != report.ClassMinor {
		t.Errorf("leak report = %+v", rs.Reports[0])
	}
}

func TestReallocChecker(t *testing.T) {
	src := `
void *realloc(void *p, unsigned long n);
int f(int *p, int *q, int n) {
    p = realloc(p, n);
    q = realloc(p, n);
    return 0;
}`
	rs := run(t, "realloc", src)
	if rs.Len() != 1 {
		t.Fatalf("want 1 realloc misuse (repeated hole), got %v", msgs(rs))
	}
	if !strings.Contains(rs.Reports[0].Msg, "p = realloc(p") {
		t.Errorf("msg = %q", rs.Reports[0].Msg)
	}
}

func TestBlockCheckerComposition(t *testing.T) {
	src := `
void cli(void); void sti(void);
void might_sleep(void);
void bad(void) {
    cli();
    might_sleep();
    sti();
}
void good(void) {
    might_sleep();
    cli();
    sti();
}`
	p, err := prog.BuildSource(map[string]string{"t.c": src})
	if err != nil {
		t.Fatal(err)
	}
	en := core.NewEngine(p, mustLookup(t, "block"), core.DefaultOptions())
	en.MarkFn("might_sleep", "blocking")
	rs := en.RunContext(context.Background())
	if rs.Len() != 1 || rs.Reports[0].Func != "bad" {
		t.Errorf("reports = %v", msgs(rs))
	}
}

func TestSecAnnotatorSetsClass(t *testing.T) {
	// Composed textually: annotation transition + free checker in one
	// extension; errors on user-input paths rank SECURITY.
	combined := `
sm sec_free;
state decl any_pointer v;
decl any_fn_call fn;
decl any_arguments args;

start:
    { fn(args) } && ${ mc_is_call_to(fn, "copy_from_user") } ==> start, { annotate("SECURITY"); }
  | { kfree(v) } ==> v.freed
;

v.freed:
    { *v } ==> v.stop, { err("using %s after free!", mc_identifier(v)); }
;
`
	src := `
void kfree(void *p);
int copy_from_user(void *dst, void *src, int n);
int handler(int *p, void *ubuf) {
    copy_from_user(p, ubuf, 4);
    kfree(p);
    return *p;
}`
	p, err := prog.BuildSource(map[string]string{"t.c": src})
	if err != nil {
		t.Fatal(err)
	}
	c, err := metal.Parse(combined)
	if err != nil {
		t.Fatal(err)
	}
	en := core.NewEngine(p, c, core.DefaultOptions())
	rs := en.RunContext(context.Background())
	if rs.Len() != 1 {
		t.Fatalf("reports = %v", msgs(rs))
	}
	if rs.Reports[0].Class != report.ClassSecurity {
		t.Errorf("class = %q, want SECURITY (path annotation)", rs.Reports[0].Class)
	}
}

func TestInterruptChecker(t *testing.T) {
	src := `
void cli(void); void sti(void);
void ok(void) { cli(); sti(); }
void leaves_disabled(void) { cli(); }
`
	rs := run(t, "interrupt", src)
	if rs.Len() != 1 || !strings.Contains(rs.Reports[0].Msg, "ends with interrupts disabled") {
		t.Errorf("reports = %v", msgs(rs))
	}
}

func TestFreeCheckerCountsExamples(t *testing.T) {
	src := `
void kfree(void *p);
void fine1(int *a) { kfree(a); }
void fine2(int *b) { kfree(b); }
void bad(int *c) { kfree(c); kfree(c); }
`
	p, _ := prog.BuildSource(map[string]string{"t.c": src})
	en := core.NewEngine(p, mustLookup(t, "free"), core.DefaultOptions())
	en.RunContext(context.Background())
	rc := en.RuleStats["kfree"]
	if rc == nil {
		t.Fatal("no kfree rule stats")
	}
	if rc.Examples < 2 || rc.Violations != 1 {
		t.Errorf("kfree stats = %+v", rc)
	}
}

func TestInferPairs(t *testing.T) {
	// lock/unlock paired in many functions, violated in one; an
	// unrelated pair appears once.
	var sb strings.Builder
	sb.WriteString("void lock(void); void unlock(void); void other(void);\n")
	for i := 0; i < 8; i++ {
		sb.WriteString("void good")
		sb.WriteByte(byte('0' + i))
		sb.WriteString("(void) { lock(); other(); unlock(); }\n")
	}
	sb.WriteString("void bad(void) { lock(); other(); }\n")
	p, err := prog.BuildSource(map[string]string{"i.c": sb.String()})
	if err != nil {
		t.Fatal(err)
	}
	pairs := InferPairs(p, func(name string) bool {
		return name == "lock" || name == "unlock" || name == "other"
	})
	if len(pairs) == 0 {
		t.Fatal("no pairs inferred")
	}
	// lock->unlock: 8 examples, 1 violation — must rank above noise
	// like other->unlock (violated whenever other follows unlock).
	if pairs[0].Rule != "lock->unlock" && pairs[0].Rule != "lock->other" {
		t.Errorf("top pair = %s (z=%.2f)", pairs[0].Rule, pairs[0].Z())
	}
	var lockUnlock *InferredPair
	for i := range pairs {
		if pairs[i].Rule == "lock->unlock" {
			lockUnlock = &pairs[i]
		}
	}
	if lockUnlock == nil {
		t.Fatal("lock->unlock not inferred")
	}
	if lockUnlock.Examples != 8 || lockUnlock.Violations != 1 {
		t.Errorf("lock->unlock evidence = %d/%d", lockUnlock.Examples, lockUnlock.Violations)
	}
	reports := PairReports(pairs, 1.5)
	found := false
	for _, r := range reports {
		if r.Rule == "lock->unlock" {
			found = true
		}
	}
	if !found {
		t.Error("violation of lock->unlock not reported")
	}
	table := FormatPairs(pairs, 5)
	if !strings.Contains(table, "lock->unlock") {
		t.Errorf("table missing rule:\n%s", table)
	}
}

func TestChrootChecker(t *testing.T) {
	src := `
int chroot(const char *path);
int chdir(const char *path);
void jail_ok(void) {
    chroot("/var/jail");
    chdir("/");
}
void jail_escape(void) {
    chroot("/var/jail");
}`
	rs := run(t, "chroot", src)
	if rs.Len() != 1 || rs.Reports[0].Func != "jail_escape" {
		t.Errorf("reports = %v", msgs(rs))
	}
	if rs.Reports[0].Class != report.ClassSecurity {
		t.Errorf("class = %q", rs.Reports[0].Class)
	}
}

func TestTaintIndexChecker(t *testing.T) {
	src := `
int get_user(int v, void *src);
int table[64];
int bad(void *ubuf) {
    int idx;
    get_user(idx, ubuf);
    return table[idx];
}
int good(void *ubuf, int n) {
    int idx;
    get_user(idx, ubuf);
    if (idx < 64)
        return table[idx];
    return -1;
}`
	rs := run(t, "taint", src)
	if rs.Len() != 1 || rs.Reports[0].Func != "bad" {
		t.Errorf("reports = %v", msgs(rs))
	}
	if !strings.Contains(rs.Reports[0].Msg, "user-controlled idx") {
		t.Errorf("msg = %q", rs.Reports[0].Msg)
	}
}

func TestSizeofMisuseChecker(t *testing.T) {
	src := `
typedef unsigned long size_t;
void *kmalloc(size_t n);
struct big { int data[64]; };
struct big *alloc_bad(void) {
    struct big *b = kmalloc(sizeof b);
    return b;
}
struct big *alloc_good(void) {
    struct big *b = kmalloc(sizeof(struct big));
    return b;
}`
	rs := run(t, "sizeof", src)
	if rs.Len() != 1 || rs.Reports[0].Func != "alloc_bad" {
		t.Errorf("reports = %v", msgs(rs))
	}
	if !strings.Contains(rs.Reports[0].Msg, "sizeof(*b)") {
		t.Errorf("msg = %q", rs.Reports[0].Msg)
	}
}

func TestFdPairingChecker(t *testing.T) {
	src := `
int open(const char *path, int flags);
int close(int fd);
int read_config(const char *path) {
    int fd = open(path, 0);
    if (fd < 0)
        return -1;
    close(fd);
    return 0;
}
int leaky(const char *path) {
    int fd = open(path, 0);
    if (fd < 0)
        return -1;
    return 1;
}
int handed_out(const char *path) {
    int fd = open(path, 0);
    return fd;
}`
	rs := run(t, "fd", src)
	if rs.Len() != 1 || rs.Reports[0].Func != "leaky" {
		t.Errorf("reports = %v", msgs(rs))
	}
}

func TestFlagsPairingChecker(t *testing.T) {
	src := `
void save_flags(unsigned long f);
void restore_flags(unsigned long f);
void ok(void) {
    unsigned long fl;
    save_flags(fl);
    restore_flags(fl);
}
void bad(int c) {
    unsigned long fl;
    save_flags(fl);
    if (c)
        return;
    restore_flags(fl);
}`
	rs := run(t, "flags", src)
	if rs.Len() != 1 || rs.Reports[0].Func != "bad" {
		t.Errorf("reports = %v", msgs(rs))
	}
	if rs.Reports[0].Class != report.ClassError {
		t.Errorf("class = %q", rs.Reports[0].Class)
	}
}
