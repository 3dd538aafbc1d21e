void kfree(void *p);
void lock(int *l); void unlock(int *l); int trylock(int *l);
void acquire(int *r); void downgrade(int *r); void release(int *r); void use_excl(int *r);

int use_after_free(int *p, int x) {
    int *q;
    kfree(p);
    q = p;
    if (x)
        return *q;
    return 0;
}

void free_it(int *p) { kfree(p); }

int freed_by_callee(int *p) {
    free_it(p);
    return *p;
}

int freed_by_callee_again(int *a) {
    free_it(a);
    return *a;
}

void lock_twice(int *l, int x) {
    lock(l);
    if (x)
        lock(l);
    unlock(l);
}

void try_and_keep(int *l) {
    if (trylock(l))
        return;
    lock(l);
}

void held_at_exit(int *r, int x) {
    acquire(r);
    if (x)
        release(r);
}

void shared_misuse(int *r) {
    int *s;
    acquire(r);
    s = r;
    downgrade(r);
    use_excl(s);
}

void downgraded_misuse(int *r) {
    acquire(r);
    downgrade(r);
    use_excl(r);
}
