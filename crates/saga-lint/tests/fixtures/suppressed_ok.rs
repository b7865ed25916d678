// Fixture: real violations silenced by well-formed, reasoned suppressions —
// one on the line above, one trailing on the same line. Expected: 0
// findings, 2 suppressed.
pub fn place(timelines: &mut Vec<Vec<u64>>, n: usize) -> Vec<usize> {
    // saga-lint: allow(hot-alloc) — warm-up growth: runs once per new node count, steady state reuses capacity
    timelines.resize_with(n, Vec::new);
    timelines.iter().map(Vec::len).collect() // saga-lint: allow(hot-alloc) — diagnostic widths, built only on the error path
}
