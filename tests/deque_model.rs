//! Exhaustive model-checking of the vendored rayon queue protocol.
//!
//! `rayon::model` re-expresses the work-stealing deque protocol against
//! the vendored loom shims (deterministic bounded-preemption DFS over
//! interleavings, vector-clock race detection); this suite drives it both
//! ways:
//!
//! - **Pass direction:** every bounded 2- and 3-worker execution of the
//!   faithful protocol is free of lost items, double-claims,
//!   non-termination and torn stats publication. Run with
//!   `--nocapture` to see the interleaving counts CI prints.
//! - **Mutation direction:** deliberately re-introducing each bug class
//!   (the pre-fix `Relaxed` termination decrement, a lost split tail, a
//!   double-processed chunk) is *caught*, which is the evidence the pass
//!   direction means something.
//!
//! The explorer is deterministic: same model, same schedules, same
//! counts — asserted below, per the workspace determinism rules.

use rayon::model::{check, find_violation, ModelCfg, Mutation};

/// 2 workers, 4 items, chunk 2: each worker's seeded segment is exactly
/// one chunk, so the schedule space is pure claim/steal/terminate — and
/// the termination scan crosses worker lifetimes.
#[test]
fn deque_two_workers_exhaustive() {
    let report = check(ModelCfg::deque(2, 4, 2));
    println!(
        "deque 2w/4i/c2: {} interleavings, {} scheduled ops",
        report.executions, report.total_ops
    );
    assert!(report.executions > 1, "schedules were actually explored");
}

/// 3 workers, 3 items, chunk 1: maximal steal pressure — every worker
/// scans two victims and the last item's decrement gates three exits.
#[test]
fn deque_three_workers_exhaustive() {
    let report = check(ModelCfg::deque(3, 3, 1));
    println!(
        "deque 3w/3i/c1: {} interleavings, {} scheduled ops",
        report.executions, report.total_ops
    );
    assert!(report.executions > 1, "schedules were actually explored");
}

/// Uneven split: 2 workers, 5 items, chunk 2 — one worker owns a
/// 3-item segment and must split it while thieves probe.
#[test]
fn deque_uneven_segments_exhaustive() {
    let report = check(ModelCfg::deque(2, 5, 2));
    println!(
        "deque 2w/5i/c2: {} interleavings, {} scheduled ops",
        report.executions, report.total_ops
    );
}

/// Mutation test for the ordering bug this PR fixed in
/// `CountChunk::drop`: with the decrement relaxed, the acquire spin-exit
/// no longer orders an exiting worker after its siblings' item/stats
/// writes, and the model must report the data race.
#[test]
fn relaxed_decrement_is_caught_as_a_race() {
    let v = find_violation(
        ModelCfg::deque(2, 4, 2)
            .with_mutation(Mutation::RelaxedDecrement)
            .with_preemptions(3),
    )
    .expect("the pre-fix Relaxed decrement must be caught");
    println!("relaxed-decrement violation: {v}");
    assert!(v.message.contains("data race"), "unexpected violation: {v}");
}

/// Losing the split-off tail loses items: `remaining` never reaches
/// zero and every worker spins — reported via the operation budget.
#[test]
fn lost_split_tail_is_caught() {
    // 5 items / chunk 2: one worker's 3-item segment must split, so the
    // mutation actually drops a tail (a 4-item/chunk-2 config never
    // splits — both seeded segments are already chunk-sized).
    let v = find_violation(ModelCfg::deque(2, 5, 2).with_mutation(Mutation::LoseSplitTail))
        .expect("a lost split tail must be caught");
    println!("lost-tail violation: {v}");
    assert!(
        v.message.contains("budget") || v.message.contains("lost"),
        "unexpected violation: {v}"
    );
}

/// Processing a claimed chunk twice trips the per-item claim count.
#[test]
fn double_process_is_caught() {
    let v = find_violation(ModelCfg::deque(2, 4, 2).with_mutation(Mutation::DoubleProcess))
        .expect("double processing must be caught");
    println!("double-process violation: {v}");
    assert!(
        v.message.contains("processed twice"),
        "unexpected violation: {v}"
    );
}

/// The explorer is deterministic: identical configs enumerate identical
/// schedule counts (no randomness, no wall-clock or OS-scheduling
/// dependence).
#[test]
fn exploration_is_deterministic() {
    let a = check(ModelCfg::deque(2, 4, 2));
    let b = check(ModelCfg::deque(2, 4, 2));
    assert_eq!(a.executions, b.executions);
    assert_eq!(a.total_ops, b.total_ops);
    let c = check(ModelCfg::deque(3, 3, 1));
    let d = check(ModelCfg::deque(3, 3, 1));
    assert_eq!(c.executions, d.executions);
    assert_eq!(c.total_ops, d.total_ops);
}
