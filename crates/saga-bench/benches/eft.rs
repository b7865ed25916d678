//! Scalar vs batched vs fused EFT/data-ready kernels.
//!
//! The scheduling kernels answer two questions per task — "when does `t`'s
//! data arrive on each node?" and "what is `t`'s EFT on each node?" — in
//! three formulations:
//!
//! * `eft/scalar_{T}t` — per-node [`SchedContext::eft`] queries: every node
//!   visit rescans `t`'s predecessors ([`SchedContext::data_ready_time`]).
//! * `eft/batched_{T}t` — one [`SchedContext::data_ready_times_into`] pass
//!   per task (SIMD-folded arrivals), then per-node append starts from the
//!   shared ready row.
//! * `eft/fused_{T}t` — one [`SchedContext::eft_row_append_into`] call per
//!   task: the batched ready pass plus a branchless tail/exec compose over
//!   the whole node row — the formulation the shipped schedulers drive when
//!   the row kernels are enabled.
//!
//! {5, 50, 250}-task instances: the tiny shape mirrors the fig4 quick cells
//! (3–5 tasks), the 50-task shape the acceptance-criteria workload, the
//! 250-task shape the sweep-latency regime. Each instance is half-placed so
//! queries see realistic timelines and predecessor fans.
//!
//! Set `BENCH_JSON=results/bench.json` to append machine-readable medians.

use criterion::{criterion_group, criterion_main, Criterion};
use saga_core::{Instance, NodeId, SchedContext, TaskId};
use saga_schedulers::util::fixtures;
use std::hint::black_box;

/// A half-placed `tasks`-task instance's warm context and the ready tasks
/// to probe.
fn half_placed(tasks: usize) -> (SchedContext, Vec<TaskId>) {
    let inst: Instance = fixtures::random_instance(0xEF7, tasks, 4, 0.15);
    let mut ctx = SchedContext::new();
    ctx.reset(&inst);
    let order: Vec<_> = ctx.topo_order().to_vec();
    for &t in order.iter().take(order.len() / 2) {
        let (s, _) = ctx.eft(t, NodeId(t.0 % 4), false);
        ctx.place(t, NodeId(t.0 % 4), s);
    }
    let probe = ctx.ready().to_vec();
    (ctx, probe)
}

fn bench_eft_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("eft");
    for tasks in [5usize, 50, 250] {
        let (ctx, probe) = half_placed(tasks);
        group.bench_function(format!("scalar_{tasks}t"), |b| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for &t in &probe {
                    for v in ctx.nodes() {
                        acc += ctx.eft(t, v, false).1;
                    }
                }
                black_box(acc)
            })
        });
        group.bench_function(format!("batched_{tasks}t"), |b| {
            let mut ready = [0.0f64; 8];
            b.iter(|| {
                let mut acc = 0.0f64;
                let nv = ctx.node_count();
                for &t in &probe {
                    ctx.data_ready_times_into(t, &mut ready[..nv]);
                    for v in ctx.nodes() {
                        let start = ctx.earliest_start_append(v, ready[v.index()]);
                        acc += start + ctx.exec_time(t, v);
                    }
                }
                black_box(acc)
            })
        });
        group.bench_function(format!("fused_{tasks}t"), |b| {
            let mut starts = [0.0f64; 8];
            let mut finishes = [0.0f64; 8];
            b.iter(|| {
                let mut acc = 0.0f64;
                let nv = ctx.node_count();
                for &t in &probe {
                    ctx.eft_row_append_into(t, &mut starts[..nv], &mut finishes[..nv]);
                    for &f in &finishes[..nv] {
                        acc += f;
                    }
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_eft_kernels);
criterion_main!(benches);
