//! What the executor itself costs a blocking transport, pinned: one
//! clock read per step boundary, step intervals that tile the execution
//! exactly, and a small executor future.

use kacc_collectives::schedule::{
    compile_allgather, compile_alltoall, compile_bcast, compile_gather, compile_scatter, Payload,
    RecvInto, Slot, TokenReg,
};
use kacc_collectives::{
    execute, execute_polled, execute_traced, AllgatherAlgo, AlltoallAlgo, BcastAlgo, Bindings,
    Dtype, GatherAlgo, ReduceOp, ScatterAlgo, Schedule, ScheduleReport, Step,
};
use kacc_comm::stub::{Clocked, StubComm};
use kacc_comm::{Blocking, BufId, Comm, CommExt, Tag};
use kacc_native::run_threads;
use kacc_trace::Tracer;
use std::cell::Cell;

/// A stub whose clock counts its own reads: the n-th `time_ns` call
/// returns `clock(n − 1)`. The read count is kept in `reads`.
fn counting<'a>(reads: &'a Cell<u64>, clock: fn(u64) -> u64) -> Clocked<impl Fn() -> u64 + 'a> {
    Clocked {
        stub: StubComm { rank: 0, size: 2 },
        clock: move || {
            let n = reads.get();
            reads.set(n + 1);
            clock(n)
        },
    }
}

/// Uniform `(offset, len)` blocks for the rooted compilers.
fn layout(p: usize, count: usize) -> Vec<(usize, usize)> {
    (0..p).map(|r| (r * count, count)).collect()
}

/// One step of every kind, each of which the stub completes: its
/// receives are empty, so they carry notifications or discarded bodies.
fn every_kind_plan() -> Schedule {
    let (tag, len) = (Tag::user(1), 64);
    let steps = vec![
        Step::Expose {
            slot: Slot::Send,
            reg: TokenReg(0),
        },
        Step::CmaRead {
            token: TokenReg(0),
            remote_off: 0,
            dst: Slot::Recv,
            dst_off: 0,
            len,
        },
        Step::CmaWrite {
            token: TokenReg(0),
            remote_off: 0,
            src: Slot::Temp(0),
            src_off: 0,
            len,
        },
        Step::CopyLocal {
            src: Slot::Send,
            src_off: 0,
            dst: Slot::Temp(0),
            dst_off: 0,
            len,
        },
        Step::CtrlSend {
            to: 1,
            tag,
            payload: Payload::Token(TokenReg(0)),
        },
        Step::CtrlRecv {
            from: 1,
            tag,
            into: RecvInto::Discard,
        },
        Step::Notify { to: 1, tag },
        Step::WaitNotify { from: 1, tag },
        Step::ShmSend {
            to: 1,
            tag,
            src: Slot::Send,
            off: 0,
            len,
        },
        Step::ShmRecv {
            from: 1,
            tag,
            dst: Slot::Recv,
            off: 0,
            len,
        },
        Step::Reduce {
            op: ReduceOp::Sum,
            dtype: Dtype::U64,
            acc: Slot::Recv,
            acc_off: 0,
            src: Slot::Temp(0),
            src_off: 0,
            len,
        },
    ];
    Schedule {
        p: 2,
        rank: 0,
        token_regs: 1,
        temps: vec![len],
        steps,
        class: None,
    }
}

#[test]
fn a_clean_execution_reads_the_clock_once_per_step_boundary() {
    let plan = every_kind_plan();
    let reads = Cell::new(0);
    let mut comm = counting(&reads, |n| n);
    let bind = Bindings {
        send: Some(BufId(1)),
        recv: Some(BufId(2)),
    };
    let report = execute(&mut comm, &plan, &bind).expect("every step completes on the stub");
    let steps = plan.steps.len() as u64;
    assert_eq!(steps, 11);
    assert!(report.recovery.is_clean());
    assert_eq!(report.steps, steps);
    assert_eq!(reads.get(), steps + 1);
    // Every step spans exactly one tick of the counting clock.
    assert_eq!(report.total_ns, steps);
    assert_eq!(report.step_p99_ns, 1);
}

/// A clock that advances by a fixed, uneven pattern per read: mostly
/// sub-microsecond steps, every 97th one about 33 ms.
fn jumpy_clock(n: u64) -> u64 {
    let dt = |k: u64| {
        if k % 97 == 96 {
            1 << 25
        } else {
            1 + (k * k * 7919) % 900
        }
    };
    (0..n).map(dt).sum()
}

#[test]
fn step_p99_matches_the_rebuilt_report_past_a_hundred_steps() {
    let steps: Vec<Step> = (0..300)
        .map(|i| Step::CopyLocal {
            src: Slot::Send,
            src_off: 0,
            dst: Slot::Recv,
            dst_off: i % 8,
            len: 8,
        })
        .collect();
    let plan = Schedule {
        p: 2,
        rank: 0,
        token_regs: 0,
        temps: Vec::new(),
        steps,
        class: None,
    };
    let reads = Cell::new(0);
    let mut comm = counting(&reads, jumpy_clock);
    let bind = Bindings {
        send: Some(BufId(1)),
        recv: Some(BufId(2)),
    };
    let (tracer, events) = Tracer::buffered();
    let report = execute_traced(&mut comm, &plan, &bind, &tracer).expect("stub completes");
    let rebuilt = ScheduleReport::from_events(&events.take());
    assert_eq!(report.steps, 300);
    assert_eq!(report.step_p99_ns, rebuilt.step_p99_ns);
    assert_eq!(report, rebuilt);
    // Three outliers in 300 steps: the p99 bound sits below the max, so
    // the tally's bucket walk (not the max cap) decided it.
    assert!(report.step_p99_ns < 1 << 25, "p99 {}", report.step_p99_ns);
    assert!(report.step_p99_ns >= 512, "p99 {}", report.step_p99_ns);
}

/// The benchmark's five collectives, compiled for `rank` of `p`, with
/// bindings of the right sizes (payload contents do not matter here).
fn plan_and_bind(
    comm: &mut dyn Comm,
    which: usize,
    count: usize,
) -> (&'static str, Schedule, Bindings) {
    let (p, me) = (comm.size(), comm.rank());
    let mut buf = |len: usize| Some(comm.alloc_with(&vec![me as u8; len]));
    match which {
        0 => (
            "bcast",
            compile_bcast(BcastAlgo::KNomial { radix: 2 }, p, me, count, 0),
            Bindings {
                send: buf(count),
                recv: None,
            },
        ),
        1 => (
            "scatter",
            compile_scatter(ScatterAlgo::ParallelRead, p, me, &layout(p, count), 0, true),
            Bindings {
                send: if me == 0 { buf(p * count) } else { None },
                recv: buf(count),
            },
        ),
        2 => (
            "gather",
            compile_gather(GatherAlgo::ParallelWrite, p, me, &layout(p, count), 0, true),
            Bindings {
                send: buf(count),
                recv: if me == 0 { buf(p * count) } else { None },
            },
        ),
        3 => (
            "allgather",
            compile_allgather(AllgatherAlgo::RingSourceRead, p, me, count, true),
            Bindings {
                send: buf(count),
                recv: buf(p * count),
            },
        ),
        _ => (
            "alltoall",
            compile_alltoall(AlltoallAlgo::Pairwise, p, me, count),
            Bindings {
                send: buf(p * count),
                recv: buf(p * count),
            },
        ),
    }
}

#[test]
fn wall_clock_step_intervals_tile_the_execution() {
    for p in 2..=4 {
        for which in 0..5 {
            let results = run_threads(p, |comm| {
                let (name, plan, bind) = plan_and_bind(comm, which, 4096);
                let (tracer, events) = Tracer::buffered();
                let report = execute_traced(comm, &plan, &bind, &tracer)
                    .unwrap_or_else(|e| panic!("{name} p={p}: {e}"));
                (name, report, ScheduleReport::from_events(&events.take()))
            });
            for (rank, (name, report, rebuilt)) in results.into_iter().enumerate() {
                let r = &report;
                let per_kind = [
                    r.expose,
                    r.cma_read,
                    r.cma_write,
                    r.copy_local,
                    r.ctrl_send,
                    r.ctrl_recv,
                    r.notify,
                    r.wait_notify,
                    r.shm_send,
                    r.shm_recv,
                    r.reduce,
                ];
                let sum: u64 = per_kind.iter().map(|s| s.time_ns).sum();
                assert_eq!(sum, r.total_ns, "{name} p={p} rank {rank}: {r:?}");
                // `total_ns` included: the spans' first start to last end.
                assert_eq!(&rebuilt, r, "{name} p={p} rank {rank}: trace vs report");
            }
        }
    }
}

#[test]
fn the_blocking_executor_future_stays_small() {
    let mut stub = StubComm { rank: 0, size: 4 };
    let plan = compile_bcast(BcastAlgo::KNomial { radix: 2 }, 4, 0, 4096, 0);
    let bind = Bindings {
        send: Some(BufId(1)),
        recv: None,
    };
    let mut comm = Blocking(&mut stub as &mut dyn Comm);
    let fut = execute_polled(&mut comm, &plan, &bind);
    let size = std::mem::size_of_val(&fut);
    assert!(size <= 2560, "executor future is {size} B");
}
