//! Metrics overhead on the executor hot path (wall-clock).
//!
//! `kacc-metrics` is always-on: every executed step records into the
//! per-step-kind latency histogram through a pre-resolved handle (one
//! relaxed enabled-check plus relaxed loads and stores into the calling
//! thread's shard). This bench
//! replays the same step-dense single-rank schedule as the
//! `trace_overhead` bench on an instant-cost transport — so almost all
//! measured time *is* executor bookkeeping — and compares the default
//! enabled path against `kacc_metrics::set_enabled(false)`. The two
//! must sit within noise of each other (the PR-7 acceptance criterion:
//! enabled-but-idle within noise of the PR-6 executor).

use criterion::{criterion_group, criterion_main, Criterion};
use kacc_bench::nullcomm::NullComm;
use kacc_collectives::exec::{execute, Bindings};
use kacc_collectives::schedule::{Schedule, Slot, Step, TokenReg};
use kacc_comm::Comm;
use std::hint::black_box;
use std::time::Duration;

/// A step-dense single-rank plan: expose once, then ping-pong a small
/// block Send → Temp → Recv `rounds` times. Small payloads keep memcpy
/// cost low relative to per-step dispatch, which is what we're measuring.
fn demo_schedule(rounds: usize, block: usize) -> Schedule {
    let mut steps = vec![Step::Expose {
        slot: Slot::Send,
        reg: TokenReg(0),
    }];
    for _ in 0..rounds {
        steps.push(Step::CopyLocal {
            src: Slot::Send,
            src_off: 0,
            dst: Slot::Temp(0),
            dst_off: 0,
            len: block,
        });
        steps.push(Step::CopyLocal {
            src: Slot::Temp(0),
            src_off: 0,
            dst: Slot::Recv,
            dst_off: 0,
            len: block,
        });
    }
    Schedule {
        p: 1,
        rank: 0,
        token_regs: 1,
        temps: vec![block],
        steps,
        class: None,
    }
}

fn bench(c: &mut Criterion) {
    let rounds = 256;
    let block = 64;
    let sched = demo_schedule(rounds, block);

    let mut comm = NullComm::new();
    let send = comm.alloc(block);
    let recv = comm.alloc(block);
    let bind = Bindings {
        send: Some(send),
        recv: Some(recv),
    };

    let mut g = c.benchmark_group("metrics_overhead/executor-513-steps");
    g.sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(500));

    // Default path: metrics are on, every step records into the
    // per-kind histogram and the finish hook folds the report.
    kacc_metrics::set_enabled(true);
    g.bench_function("metrics-on", |b| {
        b.iter(|| black_box(execute(&mut comm, black_box(&sched), &bind).unwrap()))
    });

    // Gated path: same handles, but `record`/`add` return after the
    // relaxed enabled-check. The delta between these two rows is the
    // true cost of the always-on default.
    kacc_metrics::set_enabled(false);
    g.bench_function("metrics-off", |b| {
        b.iter(|| black_box(execute(&mut comm, black_box(&sched), &bind).unwrap()))
    });
    kacc_metrics::set_enabled(true);

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
