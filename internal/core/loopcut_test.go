package core

import "testing"

// TestNoReportLostAfterPrunedArm: the block cache refined by the FPP
// fingerprint (DESIGN §5 "Caching vs FPP") must not cut a path whose
// facts differ from an earlier visit's in what the FPP can still use.
// Two shapes lost every report after them. A counted loop re-enters
// its head with i havocked, and the facts about the earlier i (i = 0,
// which pruned the exit arm on the first trip) made the re-entry look
// like the first entry. A path that carries no facts was covered by a
// visit made under facts that pruned an arm. Each body must report
// the use after free, whichever order its arms are written in.
func TestNoReportLostAfterPrunedArm(t *testing.T) {
	for _, c := range []struct{ name, body string }{
		{"f1", `int i; for (i = 0; i < 3; i++) ; kfree(p); *p = 1;`},
		{"f2", `for (int i = 0; i < 3; i++) x = x + i; kfree(p); *p = 1;`},
		{"f3", `int a = x;
			if (a > 0) a = a - 1;
			if (a > 1) a = a * 2; else a = a + 3;
			while (a > 10) a = a - 2;
			a = a + (x > 2 ? x : 2);
			switch (a) { case 1: a = 2; break; default: a = 3; }
			if (a == 4) { a = 5; }
			for (int i = 0; i < 4; i++) a = a + i;
			do { a--; } while (a > 20);
			if (a < 0) a = 0;
			x = a;
			kfree(p); *p = 1;`},
		{"while", `int i = 0; while (i < 3) i++; kfree(p); *p = 1;`},
		{"join", `if (foo()) x = 0; if (x) { kfree(p); *p = 1; }`},
		{"join-swapped", `if (!foo()) ; else x = 0; if (x) { kfree(p); *p = 1; }`},
		{"join-else", `if (foo()) ; else x = 0; if (x) { kfree(p); *p = 1; }`},
	} {
		src := "void kfree(void *p); int foo(void);\nvoid h(int *p, int x) { " + c.body + " }\n"
		_, rs := runChecker(t, freeChecker, map[string]string{"h.c": src}, DefaultOptions())
		if rs.Len() != 1 || rs.Reports[0].Msg != "using p after free!" {
			t.Errorf("%s: reports %v, want the use after free", c.name, rs.Reports)
		}
	}
}
