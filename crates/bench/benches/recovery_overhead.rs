//! Recovery-machinery overhead on the executor hot path (wall-clock).
//!
//! The `RecoveryPolicy` retry/fallback ladder wraps every fallible step
//! of the schedule executor, so its fault-free cost must be noise: each
//! step pays one closure call and one error-match that never fires. This
//! bench replays a CMA-dense single-rank schedule on the instant-cost
//! [`NullComm`] — so almost all measured time *is* executor bookkeeping —
//! and compares three paths:
//!
//! * `policy-none`: the plain `execute` path, no recovery wrapping at
//!   all (the pre-recovery baseline the zero-cost claim is pinned
//!   against);
//! * `policy-default-clean`: `execute_with_policy` with the default
//!   policy and no faults, i.e. what every collective now runs;
//! * `policy-default-faulty`: the same, but the transport fails roughly
//!   one CMA read in 17 with a transient `EAGAIN`, so the measured delta
//!   is the genuine price of retries (backoff is virtual-time and free
//!   on `NullComm`).
//!
//! `policy-default-clean` must sit within noise of `policy-none`; the
//! chaos suite separately pins the stronger bitwise-virtual-time
//! equivalence on the simulator.

use criterion::{criterion_group, criterion_main, Criterion};
use kacc_bench::nullcomm::NullComm;
use kacc_collectives::exec::{execute, execute_with_policy, Bindings, RecoveryPolicy};
use kacc_collectives::schedule::{Schedule, Slot, Step, TokenReg};
use kacc_comm::{BufId, Comm, CommError, RemoteToken, Result, Tag, Topology};
use kacc_trace::Tracer;
use std::hint::black_box;
use std::time::Duration;

/// Wraps [`NullComm`] and fails every `period`-th CMA read with a
/// transient `EAGAIN`. The executor's immediate retry is a fresh call
/// (and a fresh counter value), so it succeeds — each injected fault
/// costs exactly one retry.
struct FaultyComm {
    inner: NullComm,
    period: u64,
    ops: u64,
}

impl FaultyComm {
    fn new(period: u64) -> FaultyComm {
        FaultyComm {
            inner: NullComm::new(),
            period,
            ops: 0,
        }
    }
}

impl Comm for FaultyComm {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn topology(&self) -> Topology {
        self.inner.topology()
    }

    fn alloc(&mut self, len: usize) -> BufId {
        self.inner.alloc(len)
    }

    fn free(&mut self, buf: BufId) -> Result<()> {
        self.inner.free(buf)
    }

    fn buf_len(&self, buf: BufId) -> Result<usize> {
        self.inner.buf_len(buf)
    }

    fn write_local(&mut self, buf: BufId, off: usize, data: &[u8]) -> Result<()> {
        self.inner.write_local(buf, off, data)
    }

    fn read_local(&self, buf: BufId, off: usize, out: &mut [u8]) -> Result<()> {
        self.inner.read_local(buf, off, out)
    }

    fn copy_local(
        &mut self,
        src: BufId,
        src_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()> {
        self.inner.copy_local(src, src_off, dst, dst_off, len)
    }

    fn expose(&mut self, buf: BufId) -> Result<RemoteToken> {
        self.inner.expose(buf)
    }

    fn cma_read(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()> {
        self.ops += 1;
        if self.ops.is_multiple_of(self.period) {
            return Err(CommError::Os(11 /* EAGAIN */));
        }
        self.inner.cma_read(token, remote_off, dst, dst_off, len)
    }

    fn cma_write(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        src: BufId,
        src_off: usize,
        len: usize,
    ) -> Result<()> {
        self.inner.cma_write(token, remote_off, src, src_off, len)
    }

    fn ctrl_send(&mut self, to: usize, tag: Tag, data: &[u8]) -> Result<()> {
        self.inner.ctrl_send(to, tag, data)
    }

    fn ctrl_recv_deadline(
        &mut self,
        from: usize,
        tag: Tag,
        timeout_ns: Option<u64>,
    ) -> Result<Vec<u8>> {
        self.inner.ctrl_recv_deadline(from, tag, timeout_ns)
    }

    fn shm_send_data(
        &mut self,
        to: usize,
        tag: Tag,
        src: BufId,
        off: usize,
        len: usize,
    ) -> Result<()> {
        self.inner.shm_send_data(to, tag, src, off, len)
    }

    fn shm_recv_deadline(
        &mut self,
        from: usize,
        tag: Tag,
        dst: BufId,
        off: usize,
        len: usize,
        timeout_ns: Option<u64>,
    ) -> Result<()> {
        self.inner
            .shm_recv_deadline(from, tag, dst, off, len, timeout_ns)
    }

    fn time_ns(&self) -> u64 {
        self.inner.time_ns()
    }

    fn sleep_ns(&mut self, ns: u64) {
        self.inner.sleep_ns(ns)
    }
}

/// A CMA-dense single-rank plan: expose once, then `rounds` read/write
/// round trips against the exposed buffer. CMA steps are the ones the
/// full recovery ladder (`recovered_cma`) wraps, so they dominate the
/// per-step dispatch being measured. Small payloads keep memcpy cost low
/// relative to dispatch.
fn cma_schedule(rounds: usize, block: usize) -> Schedule {
    let mut steps = vec![Step::Expose {
        slot: Slot::Send,
        reg: TokenReg(0),
    }];
    for _ in 0..rounds {
        steps.push(Step::CmaRead {
            token: TokenReg(0),
            remote_off: 0,
            dst: Slot::Temp(0),
            dst_off: 0,
            len: block,
        });
        steps.push(Step::CmaWrite {
            token: TokenReg(0),
            remote_off: 0,
            src: Slot::Temp(0),
            src_off: 0,
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
    let sched = cma_schedule(rounds, block);
    let tracer = Tracer::off();

    let mut g = c.benchmark_group("recovery_overhead/executor-513-steps");
    g.sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(500));

    // Baseline: the plain executor, no recovery wrapping at all.
    let mut comm = NullComm::new();
    let send = comm.alloc(block);
    let bind = Bindings {
        send: Some(send),
        recv: None,
    };
    g.bench_function("policy-none", |b| {
        b.iter(|| black_box(execute(&mut comm, black_box(&sched), &bind).unwrap()))
    });

    // Fault-free default policy: what every collective runs today. The
    // delta vs `policy-none` is the whole cost of the recovery ladder on
    // a clean run and must be within noise.
    let policy = RecoveryPolicy::default();
    g.bench_function("policy-default-clean", |b| {
        b.iter(|| {
            black_box(
                execute_with_policy(&mut comm, black_box(&sched), &bind, &tracer, &policy).unwrap(),
            )
        })
    });

    // ~1/17 of CMA reads fail transiently and are retried: the delta vs
    // `policy-default-clean` prices the retries themselves.
    let mut faulty = FaultyComm::new(17);
    let fsend = faulty.alloc(block);
    let fbind = Bindings {
        send: Some(fsend),
        recv: None,
    };
    g.bench_function("policy-default-faulty", |b| {
        b.iter(|| {
            let report =
                execute_with_policy(&mut faulty, black_box(&sched), &fbind, &tracer, &policy)
                    .unwrap();
            assert!(report.recovery.transient_retries > 0, "faults never fired");
            black_box(report)
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
