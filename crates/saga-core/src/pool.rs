//! A thread-safe pool of warm [`SchedContext`]s for batch evaluation.
//!
//! The batch experiment engine runs thousands of (instance × scheduler)
//! cells across worker threads; each worker needs one long-lived context so
//! repeated runs allocate nothing after warm-up. [`ContextPool`] hands out
//! [`PooledContext`] guards — a worker takes one when it starts and the
//! guard returns the context (with its grown buffer capacity) to the pool on
//! drop, so the *next* batch's workers start warm too instead of paying the
//! allocation ramp per batch.

use crate::kernel::SchedContext;
use crate::Instance;
use std::sync::Mutex;

impl SchedContext {
    /// Runs `f` with this context's cost tables pinned for `inst`
    /// ([`pin_tables`](Self::pin_tables)): every `reset` inside `f` — one
    /// per scheduler run — keeps the tables and only clears the run state,
    /// so evaluating `k` schedulers on one instance builds the tables once
    /// instead of `k` times. Unpins before returning, panic or not (the
    /// guard keeps a poisoned context from silently serving stale tables to
    /// the next instance).
    pub fn with_pinned<R>(&mut self, inst: &Instance, f: impl FnOnce(&mut Self) -> R) -> R {
        struct Unpin<'a>(&'a mut SchedContext);
        impl Drop for Unpin<'_> {
            fn drop(&mut self) {
                self.0.unpin_tables();
            }
        }
        self.pin_tables(inst);
        let guard = Unpin(self);
        f(guard.0)
    }
}

/// A shared pool of reusable [`SchedContext`]s.
#[derive(Debug, Default)]
pub struct ContextPool {
    free: Mutex<Vec<SchedContext>>,
}

impl ContextPool {
    /// An empty pool; contexts are created lazily by [`take`](Self::take).
    pub fn new() -> Self {
        ContextPool::default()
    }

    /// Takes a context from the pool (or creates a fresh one), wrapped in a
    /// guard that returns it on drop.
    pub fn take(&self) -> PooledContext<'_> {
        // Poison recovery: a panicked holder already unwound and the
        // free-list is still a valid Vec — losing the whole pool over it
        // would deadlock every later worker of an otherwise-fine batch.
        let ctx = self
            .free
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .pop()
            .unwrap_or_default();
        PooledContext {
            ctx: Some(ctx),
            pool: self,
        }
    }

    /// Number of idle contexts currently in the pool.
    pub fn idle(&self) -> usize {
        self.free
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .len()
    }
}

/// RAII guard over a pooled [`SchedContext`]; derefs to the context and
/// returns it to its [`ContextPool`] on drop.
#[derive(Debug)]
pub struct PooledContext<'p> {
    ctx: Option<SchedContext>,
    pool: &'p ContextPool,
}

impl std::ops::Deref for PooledContext<'_> {
    type Target = SchedContext;
    fn deref(&self) -> &SchedContext {
        self.ctx.as_ref().expect("context present until drop")
    }
}

impl std::ops::DerefMut for PooledContext<'_> {
    fn deref_mut(&mut self) -> &mut SchedContext {
        self.ctx.as_mut().expect("context present until drop")
    }
}

impl Drop for PooledContext<'_> {
    fn drop(&mut self) {
        let mut ctx = self.ctx.take().expect("context present until drop");
        // never return a context that would skip its next table rebuild
        ctx.unpin_tables();
        self.pool
            .free
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Network, NodeId, TaskGraph, TaskId};

    fn tiny_instance() -> Instance {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0);
        let b = g.add_task("b", 2.0);
        g.add_dependency(a, b, 0.5).unwrap();
        Instance::new(Network::complete(&[1.0, 2.0], 1.0), g)
    }

    #[test]
    fn take_and_drop_recycles_contexts() {
        let pool = ContextPool::new();
        assert_eq!(pool.idle(), 0);
        {
            let mut ctx = pool.take();
            ctx.reset(&tiny_instance());
            assert_eq!(ctx.task_count(), 2);
        }
        assert_eq!(pool.idle(), 1);
        {
            let _a = pool.take();
            let _b = pool.take(); // second concurrent borrow creates a fresh one
            assert_eq!(pool.idle(), 0);
        }
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn with_pinned_keeps_tables_across_resets_then_unpins() {
        let inst = tiny_instance();
        let mut ctx = SchedContext::new();
        ctx.with_pinned(&inst, |ctx| {
            ctx.reset(&inst);
            ctx.place(TaskId(0), NodeId(1), 0.0);
            ctx.reset(&inst); // pinned: run state clears, tables stay
            assert_eq!(ctx.placed_count(), 0);
            assert_eq!(ctx.exec_time(TaskId(1), NodeId(1)), 1.0);
        });
        // unpinned again: reset follows a changed instance
        let mut changed = inst.clone();
        changed.network.set_speed(NodeId(1), 4.0);
        ctx.reset(&changed);
        assert_eq!(ctx.exec_time(TaskId(1), NodeId(1)), 0.5);
    }

    #[test]
    fn paths_survive_reset_and_pool_reuse() {
        use crate::{DirtyRegion, EvalPaths};
        let reference = EvalPaths { incremental: false };
        let mut ctx = SchedContext::with_paths(reference);
        ctx.with_pinned(&tiny_instance(), |ctx| ctx.reset(&tiny_instance()));
        ctx.reset(&tiny_instance());
        let pool = ContextPool::new();
        *pool.take() = ctx; // returned to the pool on drop
        assert_eq!(pool.take().paths(), reference);
        assert!(reference.widen(&DirtyRegion::clean()).is_full());
        assert!(EvalPaths::default().widen(&DirtyRegion::clean()).is_clean());
    }

    #[test]
    fn dropped_guard_never_returns_a_pinned_context() {
        let pool = ContextPool::new();
        let inst = tiny_instance();
        {
            let mut ctx = pool.take();
            ctx.pin_tables(&inst); // dropped while pinned
        }
        let mut ctx = pool.take();
        let mut changed = inst.clone();
        changed.network.set_speed(NodeId(1), 4.0);
        ctx.reset(&changed); // must rebuild, not reuse pinned tables
        assert_eq!(ctx.exec_time(TaskId(1), NodeId(1)), 0.5);
    }
}
