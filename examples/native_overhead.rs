//! Where a small real-CMA collective's time goes. A forked two-rank team
//! times, at 4 KiB, each benchmark collective through its blocking entry,
//! the k-nomial Bcast plan through `execute`, the same transport calls
//! written by hand (token send, `process_vm_readv`, notify), an empty
//! schedule through `execute`, and a control round trip (a token-sized
//! `ctrl_send` answered by one back); it also prints the size of the
//! executor future on this transport. The gap between a collective and
//! its hand-rolled calls is what the library adds on top of the kernel.
//! When at least p CPUs are allowed, rank r is pinned to the r-th of
//! them, as the benchmark's `native_cma` workload pins its ranks;
//! unpinned rows move with the scheduler.
//!
//! Three more rows time the executor alone, on an in-memory stub whose
//! every call returns at once and whose clock is a real `Instant`: a
//! 6-step token / read / notify plan via `execute`, the same six calls
//! by hand, and an empty plan. No CMA, ring or scheduler is involved, so
//! the gap between the first two is the executor's own cost per call.
//! These rows run in-process and print even where CMA is denied.
//!
//! ```text
//! cargo run --release --example native_overhead [calls]
//! ```
//!
//! Latencies are rank 0's median over `calls` timed calls (default
//! 4000), each started from a team barrier. The Bcast's payload is
//! checked on every rank once its row is measured.

use kacc::collectives::schedule::{compile_bcast, Payload, RecvInto, Slot, TokenReg};
use kacc::collectives::verify::contribution;
use kacc::collectives::{
    allgather, alltoall, bcast, execute, execute_polled, gather, scatter, AllgatherAlgo,
    AlltoallAlgo, BcastAlgo, Bindings, GatherAlgo, ScatterAlgo, Schedule, Step,
};
use kacc::comm::stub::{Clocked, StubComm};
use kacc::comm::{Blocking, BufId, Comm, CommError, CommExt, RemoteToken, Result, Tag};
use kacc::native::team::run_forked_collect;
use kacc::native::{cma_available, NativeComm};

const P: usize = 2;
const BYTES: usize = 4096;
/// Untimed calls before each measurement (page faults, plan compiles).
const WARM: usize = 200;

/// Why the example measured nothing.
#[derive(Debug)]
enum Skip {
    /// Cross-process CMA is denied to this process.
    CmaDenied,
}

/// The rows, in print order; the last slot holds the future size.
const ROWS: [&str; 10] = [
    "bcast k-nomial, blocking entry",
    "scatter parallel-read, blocking entry",
    "gather parallel-write, blocking entry",
    "allgather ring source-read, blocking entry",
    "alltoall pairwise, blocking entry",
    "bcast k-nomial plan via execute",
    "hand-rolled token / read / notify",
    "empty schedule via execute",
    "control round trip",
    "executor future on NativeComm",
];

/// The median of `calls` timed calls, after [`WARM`] untimed ones;
/// `timed` runs one call and returns its latency.
fn median(calls: usize, mut timed: impl FnMut() -> Result<u64>) -> Result<u64> {
    let mut lat = Vec::with_capacity(calls);
    for i in 0..WARM + calls {
        let dt = timed()?;
        if i >= WARM {
            lat.push(dt);
        }
    }
    lat.sort_unstable();
    Ok(lat[lat.len() / 2])
}

/// Rank 0's median latency of `op` over `calls` barrier-started calls.
fn median_ns(
    comm: &mut NativeComm,
    calls: usize,
    mut op: impl FnMut(&mut NativeComm) -> Result<()>,
) -> Result<u64> {
    median(calls, || {
        comm.barrier_wait();
        let t0 = comm.time_ns();
        op(comm)?;
        Ok(comm.time_ns() - t0)
    })
}

/// The in-memory rows, in print order.
const STUB_ROWS: [&str; 3] = [
    "6-step token / read / notify plan via execute",
    "the same 6 calls by hand",
    "empty schedule via execute",
];

/// One endpoint's token / read / notify exchange as a plan: expose,
/// send the token, receive the peer's message, read, notify, wait.
fn token_read_notify_plan() -> Schedule {
    let tag = Tag::user(7);
    let steps = vec![
        Step::Expose {
            slot: Slot::Send,
            reg: TokenReg(0),
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
        Step::CmaRead {
            token: TokenReg(0),
            remote_off: 0,
            dst: Slot::Recv,
            dst_off: 0,
            len: BYTES,
        },
        Step::Notify { to: 1, tag },
        Step::WaitNotify { from: 1, tag },
    ];
    Schedule {
        p: P,
        rank: 0,
        token_regs: 1,
        temps: Vec::new(),
        steps,
        class: None,
    }
}

/// The plan's six calls, written by hand.
fn token_read_notify_by_hand(comm: &mut impl Comm, send: BufId, recv: BufId) -> Result<()> {
    let tag = Tag::user(7);
    let token = comm.expose(send)?;
    comm.ctrl_send(1, tag, &token.to_bytes())?;
    comm.ctrl_recv(1, tag)?;
    comm.cma_read(token, 0, recv, 0, BYTES)?;
    comm.notify(1, tag)?;
    comm.wait_notify(1, tag)
}

/// Median latencies of [`STUB_ROWS`] over `calls` calls each.
fn measure_stub(calls: usize) -> Result<[u64; 3]> {
    let start = std::time::Instant::now();
    let mut comm = Clocked {
        stub: StubComm { rank: 0, size: P },
        clock: || start.elapsed().as_nanos() as u64,
    };
    let (send, recv) = (BufId(1), BufId(2));
    let plan = token_read_notify_plan();
    let bind = Bindings {
        send: Some(send),
        recv: Some(recv),
    };
    let empty = Schedule {
        steps: Vec::new(),
        token_regs: 0,
        ..plan.clone()
    };
    let mut timed = |op: &mut dyn FnMut(&mut Clocked<_>) -> Result<()>| {
        median(calls, || {
            let t0 = comm.time_ns();
            op(&mut comm)?;
            Ok(comm.time_ns() - t0)
        })
    };
    Ok([
        timed(&mut |c| execute(c, &plan, &bind).map(drop))?,
        timed(&mut |c| token_read_notify_by_hand(c, send, recv))?,
        timed(&mut |c| execute(c, &empty, &Bindings::default()).map(drop))?,
    ])
}

/// The k-nomial Bcast's transport calls at p = 2, without the library:
/// the root exposes and sends its token, the leaf reads the payload and
/// notifies.
fn hand_rolled_bcast(comm: &mut NativeComm, buf: kacc::comm::BufId) -> Result<()> {
    let (token_tag, done_tag) = (Tag::user(7), Tag::user(8));
    if comm.rank() == 0 {
        let token = comm.expose(buf)?;
        comm.ctrl_send(1, token_tag, &token.to_bytes())?;
        comm.wait_notify(1, done_tag)
    } else {
        let body = comm.ctrl_recv(0, token_tag)?;
        let token = RemoteToken::from_bytes(&body)
            .ok_or_else(|| CommError::Protocol("not a remote token".into()))?;
        comm.cma_read(token, 0, buf, 0, BYTES)?;
        comm.notify(0, done_tag)
    }
}

/// One control round trip at p = 2: rank 0 sends a token-sized message
/// and waits for rank 1's answer.
fn ping_pong(comm: &mut NativeComm) -> Result<()> {
    let tag = Tag::user(9);
    let body = [0u8; RemoteToken::WIRE_LEN];
    if comm.rank() == 0 {
        comm.ctrl_send(1, tag, &body)?;
        comm.ctrl_recv(1, tag).map(drop)
    } else {
        comm.ctrl_recv(0, tag)?;
        comm.ctrl_send(0, tag, &body)
    }
}

/// The CPUs this process may run on, ascending (empty if the call fails).
fn allowed_cpus() -> Vec<usize> {
    let mut set = libc::cpu_set_t::default();
    // SAFETY: the kernel writes at most `size` bytes into `set`.
    let rc = unsafe { libc::sched_getaffinity(0, std::mem::size_of_val(&set), &mut set) };
    if rc < 0 {
        return Vec::new();
    }
    (0..libc::CPU_SETSIZE as usize)
        .filter(|&c| libc::CPU_ISSET(c, &set))
        .collect()
}

/// Pin the calling process to `cpu`; false if the kernel refuses.
fn pin_to(cpu: usize) -> bool {
    let mut set = libc::cpu_set_t::default();
    libc::CPU_SET(cpu, &mut set);
    // SAFETY: `set` is a valid cpu set of the size passed.
    unsafe { libc::sched_setaffinity(0, std::mem::size_of_val(&set), &set) == 0 }
}

/// The rows' medians; with `cpus` (at least P allowed CPUs), rank r is
/// pinned to `cpus[r]`.
fn measure(calls: usize, cpus: Option<&[usize]>) -> std::result::Result<Vec<u64>, Skip> {
    if !cma_available() {
        return Err(Skip::CmaDenied);
    }
    let slots = run_forked_collect(P, ROWS.len(), |comm| {
        let me = comm.rank();
        if let Some(cpus) = cpus {
            if !pin_to(cpus[me]) {
                return Err(CommError::Protocol(format!("pinning to cpu {}", cpus[me])));
            }
        }
        let fill = |comm: &mut NativeComm, len: usize| comm.alloc_with(&contribution(me, len));
        let one = fill(comm, BYTES);
        let all = fill(comm, P * BYTES);
        let out = fill(comm, P * BYTES);
        let kn = BcastAlgo::KNomial { radix: 2 };
        let plan = compile_bcast(kn, P, me, BYTES, 0);
        let plan_bind = Bindings {
            send: Some(one),
            recv: None,
        };
        let empty = Schedule {
            p: P,
            rank: me,
            token_regs: 0,
            temps: Vec::new(),
            steps: Vec::new(),
            class: None,
        };
        let bcast_ns = median_ns(comm, calls, |c| bcast(c, kn, one, BYTES, 0))?;
        // Every rank now holds the root's bytes.
        if comm.read_all(one)? != contribution(0, BYTES) {
            return Err(CommError::Protocol(format!(
                "rank {me}: bcast payload differs"
            )));
        }
        let row = [
            bcast_ns,
            median_ns(comm, calls, |c| {
                let sb = (me == 0).then_some(all);
                scatter(c, ScatterAlgo::ParallelRead, sb, Some(one), BYTES, 0)
            })?,
            median_ns(comm, calls, |c| {
                let rb = (me == 0).then_some(out);
                gather(c, GatherAlgo::ParallelWrite, Some(one), rb, BYTES, 0)
            })?,
            median_ns(comm, calls, |c| {
                allgather(c, AllgatherAlgo::RingSourceRead, Some(one), out, BYTES)
            })?,
            median_ns(comm, calls, |c| {
                alltoall(c, AlltoallAlgo::Pairwise, Some(all), out, BYTES)
            })?,
            median_ns(comm, calls, |c| execute(c, &plan, &plan_bind).map(drop))?,
            median_ns(comm, calls, |c| hand_rolled_bcast(c, one))?,
            median_ns(comm, calls, |c| {
                execute(c, &empty, &Bindings::default()).map(drop)
            })?,
            median_ns(comm, calls, ping_pong)?,
            std::mem::size_of_val(&execute_polled(&mut Blocking(comm), &plan, &plan_bind)) as u64,
        ];
        if me == 0 {
            for (i, v) in row.into_iter().enumerate() {
                comm.result_slot(i)
                    .store(v, std::sync::atomic::Ordering::SeqCst);
            }
        }
        Ok(())
    });
    Ok(slots.unwrap_or_else(|e| panic!("native overhead team failed: {e}")))
}

fn main() {
    let calls: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4000)
        .max(1);
    let stub = measure_stub(calls).unwrap_or_else(|e| panic!("in-memory rows failed: {e}"));
    println!("executor alone: in-memory stub, real clock, median of {calls} calls");
    for (name, ns) in STUB_ROWS.iter().zip(stub) {
        println!("  {name:<44} {:>8.2} us", ns as f64 / 1e3);
    }
    let allowed = allowed_cpus();
    let cpus = (allowed.len() >= P).then_some(allowed.as_slice());
    let slots = match measure(calls, cpus) {
        Ok(slots) => slots,
        Err(Skip::CmaDenied) => {
            eprintln!(
                "skipped ({:?}): process_vm_readv needs same-UID ptrace access \
                 (kernel.yama.ptrace_scope <= 1, or CAP_SYS_PTRACE)",
                Skip::CmaDenied
            );
            return;
        }
    };
    let placement = match cpus {
        Some(_) => "one rank per CPU",
        None => "unpinned",
    };
    println!(
        "native call overhead: p = {P}, {BYTES} B, {placement}, rank 0 median of {calls} calls"
    );
    let (last, lats) = ROWS.split_last().expect("rows are not empty");
    for (name, ns) in lats.iter().zip(&slots) {
        println!("  {name:<44} {:>8.2} us", *ns as f64 / 1e3);
    }
    println!("  {last:<44} {:>8} B", slots[ROWS.len() - 1]);
}
