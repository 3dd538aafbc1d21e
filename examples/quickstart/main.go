// Quickstart: run the paper's Figure 1 free checker over the Figure 2
// example and print the two use-after-free errors with their
// why-traces — the complete §2.2 walkthrough in a dozen lines of API.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/mc"
)

// fig2 is the example code from Figure 2 of the paper, line numbers
// preserved. The checker must find exactly two errors: the use of q
// after free at line 12 and the use of w after free at line 17. The
// potential report at line 11 is a false path (x and !x contradict)
// and is pruned. The tests and internal/paper read the same text as
// workload.Fig2; this program keeps its own copy so that it reads on
// its own.
const fig2 = `int contrived(int *p, int *w, int x) {
    int *q;

    if(x)
    {
        kfree(w);
        q = p;
        p = 0;
    }
    if(!x)
        return *w;
    return *q;
}
int contrived_caller(int *w, int x, int *p) {
    kfree(p);
    contrived(p, w, x);
    return *w;
}
void kfree(void *p);
`

func main() {
	a := mc.NewAnalyzer()
	a.AddSource("fig2.c", fig2)
	if err := a.LoadBundledChecker("free"); err != nil {
		log.Fatal(err)
	}
	res, err := a.RunContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("found %d errors:\n\n", len(res.Reports))
	for _, r := range res.Ranked() {
		fmt.Println(r.Detailed())
	}

	st := res.Stats["free_checker"]
	fmt.Printf("analysis: %d program points, %d paths (%d pruned as infeasible), %d block-cache hits\n",
		st.Points, st.Paths, st.PrunedPaths, st.CacheHits)
}
