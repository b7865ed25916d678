//! The engine's worker loop: an order-preserving parallel map with
//! per-worker state, on `std::thread::scope`.
//!
//! Workers claim items one at a time from one shared enumerated iterator
//! behind a mutex, so no item is tied to a worker: whoever is free takes
//! the next item, and a skewed, expensive item holds up only the worker
//! running it. Engine items are large (a Fig. 2 row, a PISA cell), so one
//! short lock per item costs nothing measurable. Each worker keeps its
//! `(index, result)` pairs; after every worker is joined the pairs are put
//! back in input order, so the output equals the sequential map for any
//! worker count.
//!
//! The worker count is `RAYON_NUM_THREADS` if that is set to a positive
//! integer, otherwise `available_parallelism()`, read at every parallel
//! call. The variable keeps rayon's name because CI and `pisa_bench` set
//! it, and `pisa_bench` switches between 2 and 1 workers at run time.

use crate::engine::Progress;
use std::sync::Mutex;

/// The worker count for the next parallel call: `RAYON_NUM_THREADS` if it
/// is a positive integer, otherwise the machine's available parallelism.
#[expect(
    clippy::disallowed_methods,
    reason = "the worker count changes how the work is split, never a result: \
              the output is the sequential map for any count"
)]
pub(crate) fn count() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Maps `f` over `items` on up to `workers` scoped threads and returns the
/// results in input order. Each worker calls `init` once and threads the
/// state through every item it claims. With one worker or at most one
/// item, the map runs on the calling thread. A worker's panic is re-raised
/// on the caller, with its payload, once every worker has stopped. The
/// claims (one per item) are added to `progress`.
pub(crate) fn map_init<I, S, R>(
    workers: usize,
    items: I,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, I::Item) -> R + Sync,
    progress: Option<&Progress>,
) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    R: Send,
{
    let items = items.into_iter();
    let n = items.len();
    if let Some(p) = progress {
        p.note_claims(n);
    }
    if workers <= 1 || n <= 1 {
        let mut state = init();
        return items.map(|item| f(&mut state, item)).collect();
    }
    let claim = Mutex::new(items.enumerate());
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut done = Vec::new();
                    loop {
                        // the guard is a temporary of this statement, so
                        // the item below runs unlocked; the iterator is
                        // consistent after any panic, so a poisoned lock
                        // is recovered
                        let next = claim
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                            .next();
                        let Some((i, item)) = next else { break };
                        done.push((i, f(&mut state, item)));
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut out = Vec::with_capacity(n);
    for result in joined {
        match result {
            Ok(done) => out.extend(done),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the tests count distinct worker threads and bound a wait with a \
              deadline; neither reaches a result"
)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::thread::{self, ThreadId};
    use std::time::{Duration, Instant};

    /// Long enough that a correct loop never hits it on a loaded host;
    /// the tests it guards fail by deadlock, not by being slow.
    const DEADLINE: Duration = Duration::from_secs(60);

    /// With more than one worker, each odd item waits until the item after
    /// it has run, so the two run on different workers and every worker's
    /// results interleave with its siblings': only putting the results back
    /// in input order gives the sequential map.
    #[test]
    fn output_order_equals_the_sequential_map() {
        let items: Vec<u64> = (0..97).collect();
        let sequential: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for workers in [1, 2, 4, 8] {
            for by_ref in [false, true] {
                let ran: Vec<AtomicBool> = items.iter().map(|_| AtomicBool::new(false)).collect();
                let run = |x: u64| {
                    let i = x as usize;
                    if workers > 1 && i % 2 == 1 && i + 1 < ran.len() {
                        let start = Instant::now();
                        while !ran[i + 1].load(Ordering::SeqCst) {
                            assert!(start.elapsed() < DEADLINE, "item {i} waited too long");
                            thread::yield_now();
                        }
                    }
                    ran[i].store(true, Ordering::SeqCst);
                    x * x + 1
                };
                let out = if by_ref {
                    map_init(workers, &items, || (), |_, &x| run(x), None)
                } else {
                    map_init(workers, items.clone(), || (), |_, x| run(x), None)
                };
                assert_eq!(out, sequential, "{workers} workers, by_ref {by_ref}");
            }
        }
    }

    #[test]
    fn init_runs_at_most_once_per_worker() {
        for workers in [2, 4, 8] {
            let inits = AtomicUsize::new(0);
            let ran: Vec<(ThreadId, ThreadId)> = map_init(
                workers,
                0..64,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    thread::current().id()
                },
                |&mut owner, _| (owner, thread::current().id()),
                None,
            );
            let threads: HashSet<ThreadId> = ran.iter().map(|&(_, t)| t).collect();
            assert!(
                ran.iter().all(|(owner, t)| owner == t),
                "a worker used state built on another thread"
            );
            let inits = inits.load(Ordering::Relaxed);
            assert!(inits <= workers, "{inits} inits at {workers} workers");
            assert!(threads.len() <= inits, "a worker ran items without init");
        }
    }

    #[test]
    fn empty_and_single_inputs_run_on_the_callers_thread() {
        let caller = thread::current().id();
        let empty: Vec<ThreadId> = map_init(
            8,
            Vec::<u8>::new(),
            || (),
            |_, _| thread::current().id(),
            None,
        );
        assert!(empty.is_empty());
        let single = map_init(8, vec![0u8], || (), |_, _| thread::current().id(), None);
        assert_eq!(single, [caller]);
        let one_worker = map_init(1, 0..5, || (), |_, _| thread::current().id(), None);
        assert!(one_worker.iter().all(|&t| t == caller));
    }

    #[test]
    fn a_workers_panic_reaches_the_caller() {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let caught = std::panic::catch_unwind(|| {
                map_init(
                    4,
                    0..40,
                    || (),
                    |_, i| {
                        if i == 7 {
                            std::panic::panic_any(i);
                        }
                        i
                    },
                    None,
                )
            });
            let _ = tx.send(caught.map_err(|payload| payload.downcast::<i32>().ok()));
        });
        match rx.recv_timeout(DEADLINE) {
            Ok(Err(Some(payload))) => assert_eq!(*payload, 7),
            Ok(Err(None)) => panic!("the payload changed on the way to the caller"),
            Ok(Ok(_)) => panic!("the panic was swallowed"),
            Err(_) => panic!("a sibling worker hung after the panic"),
        }
    }

    /// Item 0 blocks until every other item has run. If items were tied to
    /// a worker (a static split, a per-worker queue with no sharing), the
    /// items behind item 0 would wait on it and the deadline would pass.
    #[test]
    fn no_item_is_tied_to_a_worker() {
        let n = 32;
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Mutex::new(rx);
        let out = map_init(
            2,
            0..n,
            || tx.clone(),
            |tx, i| {
                if i == 0 {
                    let rx = rx.lock().unwrap();
                    for _ in 1..n {
                        rx.recv_timeout(DEADLINE)
                            .expect("item 0 waited past the deadline for the others");
                    }
                } else {
                    tx.send(()).unwrap();
                }
                i
            },
            None,
        );
        assert_eq!(out, (0..n).collect::<Vec<_>>());
    }
}
