// Fixture: environment reads in a result-producing crate — a toggle
// latched once per process, and a plain per-call read. Expected:
// 2× nondet-env (`env::var_os` and `env::var`).
use std::env;

pub fn fast_path_enabled() -> bool {
    static FLAG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FLAG.get_or_init(|| std::env::var_os("SAGA_NO_FAST_PATH").is_none())
}

pub fn budget() -> usize {
    env::var("SAGA_BUDGET")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100)
}
