void kfree(void *p);
int leaf(int *p, int flag) {
    if (flag)
        kfree(p);
    return 0;
}
int a_top(int *p, int n) {
    kfree(p);
    leaf(p, n);
    return 0;
}
int z_mid(int *p, int n) {
    int acc = 0;
    acc += leaf(p, n);
    acc += *p;
    return acc;
}
