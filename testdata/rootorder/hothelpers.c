/* Hot helpers: each is entered from several callers in the same
   tracked state, so every caller after the first is answered by the
   helper's function summary. */
void kfree(void *p);
void lock(int *l);
void unlock(int *l);
void cli(void);
void sti(void);
void *kmalloc(int n);
int chroot(const char *dir);
int chdir(const char *dir);

int peek(int *p, int n) {
    if (n > 0)
        return n - 1;
    return n;
}

void hold(int *l, int n) {
    if (n)
        n++;
}

int quiet(int n) {
    if (n)
        return 1;
    return 0;
}

int probe(int *b, int n) {
    return n + 1;
}

int pair(int *p, int *q, int n) {
    if (n)
        return 1;
    return 2;
}

int use_a(int *p, int n) {
    kfree(p);
    return peek(p, n);
}

int use_b(int *q, int n) {
    kfree(q);
    n = peek(q, n);
    return peek(q, n + 1);
}

int use_c(int *r, int n) {
    kfree(r);
    return peek(r, n) + peek(r, 2);
}

void crit_a(int *l, int n) {
    lock(l);
    hold(l, n);
    unlock(l);
}

void crit_b(int *m, int n) {
    lock(m);
    hold(m, n + 1);
    hold(m, n);
    unlock(m);
}

int irq_a(int n) {
    cli();
    n = quiet(n);
    sti();
    return n;
}

int irq_b(int n) {
    cli();
    n = quiet(n + 1) + quiet(n);
    sti();
    return n;
}

int alloc_a(int n) {
    int *b = kmalloc(n);
    n = probe(b, n);
    if (!b)
        return 0;
    kfree(b);
    return n;
}

int alloc_b(int n) {
    int *c = kmalloc(n);
    n = probe(c, n + 1);
    if (c == 0)
        return 0;
    kfree(c);
    return n;
}

int two_a(int *p, int *q, int n) {
    kfree(p);
    kfree(q);
    return pair(p, q, n);
}

int two_b(int *s, int *t, int n) {
    kfree(s);
    kfree(t);
    return pair(s, t, n + 1);
}

int jail_a(int n) {
    chroot("/srv");
    n = quiet(n);
    chdir("/");
    return n;
}

int jail_b(int n) {
    chroot("/var");
    n = quiet(n + 2);
    chdir("/");
    return n;
}
