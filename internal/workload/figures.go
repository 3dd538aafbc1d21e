package workload

// Fig1Checker is the paper's Figure 1, the free checker, verbatim in
// this repository's metal syntax. The bundled "free" checker extends
// it with a v[idx] form and with example counting at the end of a
// path, which would perturb the exit-block summaries of Figure 5.
const Fig1Checker = `
sm free_checker;
state decl any_pointer v;

start:
    { kfree(v) } ==> v.freed
;

v.freed:
    { *v }       ==> v.stop, { err("using %s after free!", mc_identifier(v)); }
  | { kfree(v) } ==> v.stop, { err("double free of %s!", mc_identifier(v)); }
;
`

// Fig2 is the paper's Figure 2 with its line numbers: contrived at
// line 1, the uses after free at lines 12 and 17, and the false path
// through line 11 that pruning must drop.
const Fig2 = `int contrived(int *p, int *w, int x) {
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
