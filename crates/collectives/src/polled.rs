//! The schedule executor: one async step loop and recovery ladder for
//! every transport.
//!
//! [`execute_polled`] replays a compiled [`Schedule`] on any
//! [`AsyncComm`] endpoint: it binds the schedule's symbolic slots to
//! caller buffers, allocates the scratch buffers the plan declares,
//! resolves token registers as `Expose`/`CtrlRecv` steps fill them, and
//! runs every step in order under the [`RecoveryPolicy`] ladder
//! (transient retries with exponential backoff, short-CMA resume,
//! fallback degradation, deadline-bounded waits, the liveness watchdog)
//! while the [`Recorder`] turns each step into report counters, metric
//! samples and trace spans.
//!
//! On the polled simulator the endpoint is `kacc_machine::PolledComm`
//! and the futures suspend in virtual time; on the blocking transports
//! the blocking entry points in [`crate::exec`] wrap the endpoint in
//! [`kacc_comm::Blocking`] and drive this same code with
//! [`kacc_comm::block_on`]. There is no second executor.

use crate::exec::{
    is_suspect_error, is_transient, proto, recv_deadline_ns, step_peer, Bindings, Ctx, Recorder,
    RecoveryPolicy, ResumeState, ScheduleReport, StepKind, ESRCH,
};
use crate::reduce::combine;
use crate::schedule::{Schedule, Step};
use kacc_comm::{AsyncComm, BufId, CommError, RemoteToken, Result, Tag};
use kacc_trace::{Tracer, Track};

/// Execute a compiled schedule on `comm` with the given bindings.
///
/// Scratch buffers declared by the plan are allocated up front and freed
/// on success. The schedule must have been compiled for this rank and
/// communicator size. Step spans go to the transport's own tracer
/// ([`AsyncComm::tracer`]), so a traced simulator run carries the
/// executor's events without extra plumbing.
pub async fn execute_polled<C: AsyncComm>(
    comm: &mut C,
    sched: &Schedule,
    bind: &Bindings,
) -> Result<ScheduleReport> {
    let tracer = comm.tracer();
    execute_polled_with_policy(comm, sched, bind, &tracer, &RecoveryPolicy::default()).await
}

/// [`execute_polled`] with an explicit tracer and [`RecoveryPolicy`].
///
/// Every fallible step runs through a bounded retry loop:
///
/// * transient errors (EAGAIN-class `Os`, [`CommError::Timeout`]) retry
///   up to `max_retries` times with exponential backoff charged via
///   [`AsyncComm::sleep_ns`];
/// * short CMA transfers ([`CommError::Truncated`]) resume from the
///   partial offset — forward progress resets the retry budget;
/// * persistently failing CMA steps degrade to the two-copy
///   [`AsyncComm::shm_fallback_read`]/`write` path when `cma_fallback` is
///   on (peer death, `Os(ESRCH)`, is never degraded — a dead peer cannot
///   serve the fallback either);
/// * with `step_timeout_ns` set, blocking receives use the transports'
///   deadline variants so a lost message or dead peer surfaces as
///   [`CommError::Timeout`] instead of a hang.
///
/// Every action is recorded in [`ScheduleReport::recovery`] and emitted
/// as a `fault:*` / `retry:*` / `fallback:*` span nested inside the
/// step's own span.
pub async fn execute_polled_with_policy<C: AsyncComm>(
    comm: &mut C,
    sched: &Schedule,
    bind: &Bindings,
    tracer: &Tracer,
    policy: &RecoveryPolicy,
) -> Result<ScheduleReport> {
    let mut resume = None;
    let (result, report) =
        execute_resumable_polled(comm, sched, bind, tracer, policy, false, &mut resume).await;
    // Public entry points never resume: abandon any torn-execution
    // state so scratch is freed exactly as it always was.
    if let Some(state) = resume {
        state.abandon(comm);
    }
    result.map(|()| report)
}

/// [`execute_polled_with_policy`] with partial-progress resume: the
/// membership layer's crate-internal entry point.
///
/// A `tolerant` run (only the agreement collective's, which must
/// complete over the survivors no matter who died) records a failing
/// step with an identifiable peer as a suspicion and skips it instead of
/// aborting, when the membership watch is armed.
///
/// Always returns the execution's [`ScheduleReport`], even when a step
/// failed — a torn run's report carries the watermark
/// ([`ScheduleReport::completed_steps`]) and the observed step-latency
/// p99 the adaptive liveness deadline feeds on.
///
/// On entry, `resume` carries the state of a previous torn attempt of
/// the *same* schedule (or `None` for a fresh run). On a torn exit the
/// state is stored back with an updated watermark and scratch is *not*
/// freed; on success (or a non-resumable error shape) the state is
/// consumed and scratch is freed. A caller that decides not to resume
/// must call [`ResumeState::abandon`].
pub(crate) async fn execute_resumable_polled<C: AsyncComm>(
    comm: &mut C,
    sched: &Schedule,
    bind: &Bindings,
    tracer: &Tracer,
    policy: &RecoveryPolicy,
    tolerant: bool,
    resume: &mut Option<ResumeState>,
) -> (Result<()>, ScheduleReport) {
    if sched.rank != comm.rank() || sched.p != comm.size() {
        let e = proto(format!(
            "schedule compiled for rank {}/{} executed on rank {}/{}",
            sched.rank,
            sched.p,
            comm.rank(),
            comm.size()
        ));
        return (Err(e), ScheduleReport::default());
    }

    let resumed = match resume.take() {
        Some(st) if st.matches(sched) => Some(st),
        // Shape drifted under the caller (different plan): resuming
        // would corrupt state. Start over.
        Some(st) => {
            st.abandon(comm);
            None
        }
        None => None,
    };
    let (mut ctx, start) = match resumed {
        Some(st) => {
            let start = st.next_step().min(sched.steps.len());
            let (temps, regs) = st.into_parts();
            (Ctx { bind, temps, regs }, start)
        }
        None => (
            Ctx {
                bind,
                temps: sched.temps.iter().map(|&len| comm.alloc(len)).collect(),
                regs: vec![None; sched.token_regs],
            },
            0,
        ),
    };
    let t_start = comm.time_ns();
    let mut rec = Recorder::new(tracer, Track::Rank(comm.rank()), sched.class, t_start);
    let result = run_steps(comm, sched, &mut ctx, &mut rec, policy, tolerant, start).await;
    if result.is_err() {
        // A failure ends the execution wherever the failing call
        // returned, which no interval read has covered yet.
        rec.now = comm.time_ns();
    }
    rec.finish();

    match result {
        Ok(()) => {
            for t in ctx.temps.drain(..) {
                let _ = comm.free(t);
            }
            (Ok(()), rec.report)
        }
        Err(e) => {
            *resume = Some(ResumeState::new(
                std::mem::take(&mut ctx.temps),
                std::mem::take(&mut ctx.regs),
                rec.report.completed_steps as usize,
            ));
            (Err(e), rec.report)
        }
    }
}

/// Sleep the policy's exponential backoff for the `attempt`-th
/// consecutive failure (1-based), charging it on the transport's clock.
async fn backoff<C: AsyncComm>(
    comm: &mut C,
    rec: &mut Recorder<'_>,
    policy: &RecoveryPolicy,
    attempt: u32,
) {
    if policy.backoff_ns == 0 {
        return;
    }
    let ns = policy.backoff_ns << (attempt.min(6) - 1).min(5);
    let t0 = rec.now;
    comm.sleep_ns(ns).await;
    rec.recovery("retry:backoff", 0, t0, comm.time_ns());
}

/// Run one non-resumable operation under the retry loop: a transient
/// error is retried after a backoff. An expired wait
/// ([`CommError::Timeout`], which only the receives report: they run
/// under [`recv_deadline_ns`]) counts against the same budget without
/// backoff — the wait itself was the delay. A macro because the retried
/// operation is an `.await`ed expression re-evaluated per attempt, which
/// a closure cannot express without boxing every call.
macro_rules! retry_transient {
    ($comm:ident, $rec:ident, $policy:ident, $op:expr) => {{
        let mut attempts = 0u32;
        loop {
            let t0 = $rec.now;
            match $op {
                Ok(v) => break Ok(v),
                Err(e @ CommError::Timeout { .. }) => {
                    $rec.recovery("fault:timeout", 0, t0, $comm.time_ns());
                    attempts += 1;
                    if attempts > $policy.max_retries {
                        break Err(e);
                    }
                }
                Err(e) if is_transient(&e) => {
                    $rec.recovery("fault:transient", 0, t0, $comm.time_ns());
                    attempts += 1;
                    if attempts > $policy.max_retries {
                        break Err(e);
                    }
                    backoff($comm, $rec, $policy, attempts).await;
                }
                Err(e) => break Err(e),
            }
        }
    }};
}

/// One CMA step's addressing: direction, the peer's token, and the
/// remote and local ranges.
#[derive(Clone, Copy)]
struct CmaOp {
    read: bool,
    token: RemoteToken,
    remote_off: usize,
    local: BufId,
    local_off: usize,
    len: usize,
}

/// A CMA read or write with the full recovery ladder: short transfers
/// resume from the partial offset (progress resets the retry budget),
/// transient errors retry with backoff, and persistent failure or
/// permission denial degrades to the two-copy fallback when allowed.
async fn recovered_cma<C: AsyncComm>(
    comm: &mut C,
    rec: &mut Recorder<'_>,
    policy: &RecoveryPolicy,
    op: CmaOp,
) -> Result<()> {
    let CmaOp {
        token,
        remote_off,
        local,
        local_off,
        len,
        ..
    } = op;
    let mut at = 0usize;
    let mut attempts = 0u32;
    loop {
        let t0 = rec.now;
        let r = if op.read {
            comm.cma_read(token, remote_off + at, local, local_off + at, len - at)
                .await
        } else {
            comm.cma_write(token, remote_off + at, local, local_off + at, len - at)
                .await
        };
        let e = match r {
            Ok(()) => return Ok(()),
            Err(e) => e,
        };
        match e {
            CommError::Truncated { got, .. } if got > 0 => {
                // Forward progress: resume past the bytes that landed.
                rec.recovery("fault:short", got, t0, comm.time_ns());
                at += got.min(len - at);
                attempts = 0;
                if at >= len {
                    return Ok(());
                }
            }
            CommError::Truncated { .. } => {
                // Zero-progress truncation is just a transient failure.
                rec.recovery("fault:short", 0, t0, comm.time_ns());
                attempts += 1;
                if attempts > policy.max_retries {
                    let orig = CommError::Truncated {
                        wanted: len,
                        got: at,
                    };
                    return fallback_or(comm, rec, policy, op, at, orig).await;
                }
                backoff(comm, rec, policy, attempts).await;
            }
            CommError::PermissionDenied => {
                // Revoked access never heals by retrying the same path.
                rec.recovery("fault:denied", 0, t0, comm.time_ns());
                return fallback_or(comm, rec, policy, op, at, e).await;
            }
            e if is_transient(&e) => {
                rec.recovery("fault:transient", 0, t0, comm.time_ns());
                attempts += 1;
                if attempts > policy.max_retries {
                    return fallback_or(comm, rec, policy, op, at, e).await;
                }
                backoff(comm, rec, policy, attempts).await;
            }
            e => return Err(e),
        }
    }
}

/// Finish the remainder (`at..len`) of a failed CMA step over the
/// two-copy shared-memory fallback, or return the original CMA error
/// when the policy forbids it, the peer is dead, or the transport cannot
/// stage the fallback. The *original* error is surfaced in every failure
/// case — it names the root cause; the fallback failing is secondary.
async fn fallback_or<C: AsyncComm>(
    comm: &mut C,
    rec: &mut Recorder<'_>,
    policy: &RecoveryPolicy,
    op: CmaOp,
    at: usize,
    orig: CommError,
) -> Result<()> {
    let peer_dead = matches!(orig, CommError::Os(ESRCH) | CommError::PeerDead(_));
    if !policy.cma_fallback || peer_dead {
        return Err(orig);
    }
    let (remote_off, local_off, rest) = (op.remote_off + at, op.local_off + at, op.len - at);
    let t0 = rec.now;
    let (name, r) = if op.read {
        let r = comm.shm_fallback_read(op.token, remote_off, op.local, local_off, rest);
        ("fallback:read", r.await)
    } else {
        let r = comm.shm_fallback_write(op.token, remote_off, op.local, local_off, rest);
        ("fallback:write", r.await)
    };
    match r {
        Ok(()) => {
            rec.recovery(name, rest, t0, comm.time_ns());
            Ok(())
        }
        Err(_) => Err(orig),
    }
}

/// A control receive under the policy, bounded by the step (or liveness)
/// deadline when one applies (see [`retry_transient!`]).
async fn recovered_ctrl_recv<C: AsyncComm>(
    comm: &mut C,
    rec: &mut Recorder<'_>,
    policy: &RecoveryPolicy,
    from: usize,
    tag: Tag,
) -> Result<Vec<u8>> {
    retry_transient!(
        comm,
        rec,
        policy,
        comm.ctrl_recv_deadline(from, tag, recv_deadline_ns(policy))
            .await
    )
}

/// Run every step, interposing the liveness watchdog: when the policy's
/// membership watch is armed and a step with an identifiable peer dies
/// with a suspect error (timeout, `ESRCH`), the failure is recorded as
/// a `membership:suspect` span and either converted to the typed
/// [`CommError::PeerDead`] or — in a `tolerant` run — the step is
/// skipped so the rest of the schedule still runs.
async fn run_steps<C: AsyncComm>(
    comm: &mut C,
    sched: &Schedule,
    ctx: &mut Ctx<'_>,
    rec: &mut Recorder<'_>,
    policy: &RecoveryPolicy,
    tolerant: bool,
    start: usize,
) -> Result<()> {
    rec.report.completed_steps = start as u64;
    let mut suspects: Vec<usize> = Vec::new();
    for step in &sched.steps[start..] {
        // The previous interval's end read: nothing is awaited between it
        // and this step's first attempt.
        let t0 = rec.now;
        let watch = policy.membership.watch;
        if watch && tolerant {
            if let Some(peer) = step_peer(step, ctx) {
                if suspects.contains(&peer) {
                    // A peer that already missed one deadline in this
                    // run will not answer later steps either; skipping
                    // immediately bounds a rank's detection lateness to
                    // one timeout chain instead of one per torn
                    // exchange, which keeps stragglers inside the
                    // agreement's refutation window.
                    rec.recovery("membership:suspect", peer, t0, t0);
                    rec.report.completed_steps += 1;
                    continue;
                }
            }
        }
        if let Err(e) = run_one_step(comm, step, ctx, rec, policy, t0).await {
            if watch && is_suspect_error(&e) {
                if let Some(peer) = step_peer(step, ctx) {
                    rec.recovery("membership:suspect", peer, t0, comm.time_ns());
                    if tolerant {
                        // A tolerated failure still moves the watermark:
                        // the executor is past this step for good.
                        suspects.push(peer);
                        rec.report.completed_steps += 1;
                        continue;
                    }
                    return Err(CommError::PeerDead(peer));
                }
            }
            return Err(e);
        }
        rec.report.completed_steps += 1;
    }
    Ok(())
}

/// Execute one IR step under the recovery policy; the watchdog wrapper
/// in [`run_steps`] decides what a failure means.
async fn run_one_step<C: AsyncComm>(
    comm: &mut C,
    step: &Step,
    ctx: &mut Ctx<'_>,
    rec: &mut Recorder<'_>,
    policy: &RecoveryPolicy,
    t0: u64,
) -> Result<()> {
    match step {
        Step::Expose { slot, reg } => {
            let buf = ctx.slot(*slot)?;
            let token = retry_transient!(comm, rec, policy, comm.expose(buf).await)?;
            ctx.set_token(*reg, token)?;
            rec.add(StepKind::Expose, 0, t0, comm.time_ns());
        }
        Step::CmaRead {
            token,
            remote_off,
            dst,
            dst_off,
            len,
        } => {
            let op = CmaOp {
                read: true,
                token: ctx.token(*token)?,
                remote_off: *remote_off,
                local: ctx.slot(*dst)?,
                local_off: *dst_off,
                len: *len,
            };
            recovered_cma(comm, rec, policy, op).await?;
            rec.add(StepKind::CmaRead, *len, t0, comm.time_ns());
        }
        Step::CmaWrite {
            token,
            remote_off,
            src,
            src_off,
            len,
        } => {
            let op = CmaOp {
                read: false,
                token: ctx.token(*token)?,
                remote_off: *remote_off,
                local: ctx.slot(*src)?,
                local_off: *src_off,
                len: *len,
            };
            recovered_cma(comm, rec, policy, op).await?;
            rec.add(StepKind::CmaWrite, *len, t0, comm.time_ns());
        }
        Step::CopyLocal {
            src,
            src_off,
            dst,
            dst_off,
            len,
        } => {
            let src = ctx.slot(*src)?;
            let dst = ctx.slot(*dst)?;
            comm.copy_local(src, *src_off, dst, *dst_off, *len).await?;
            rec.add(StepKind::CopyLocal, *len, t0, comm.time_ns());
        }
        Step::CtrlSend { to, tag, payload } => {
            let body = ctx.render_payload(comm, payload)?;
            retry_transient!(comm, rec, policy, comm.ctrl_send(*to, *tag, &body).await)?;
            rec.add(StepKind::CtrlSend, body.len(), t0, comm.time_ns());
        }
        Step::CtrlRecv { from, tag, into } => {
            let body = recovered_ctrl_recv(comm, rec, policy, *from, *tag).await?;
            let n = body.len();
            ctx.apply_recv(comm, into, body)?;
            rec.add(StepKind::CtrlRecv, n, t0, comm.time_ns());
        }
        Step::Notify { to, tag } => {
            retry_transient!(comm, rec, policy, comm.notify(*to, *tag).await)?;
            rec.add(StepKind::Notify, 0, t0, comm.time_ns());
        }
        Step::WaitNotify { from, tag } => {
            // A notification is a 0-byte control message; route it
            // through the bounded receive so the wait obeys the step
            // timeout (mirrors `AsyncComm::wait_notify`).
            let body = recovered_ctrl_recv(comm, rec, policy, *from, *tag).await?;
            if !body.is_empty() {
                return Err(proto(format!(
                    "expected 0-byte notification from rank {from}, got {} bytes",
                    body.len()
                )));
            }
            rec.add(StepKind::WaitNotify, 0, t0, comm.time_ns());
        }
        Step::ShmSend {
            to,
            tag,
            src,
            off,
            len,
        } => {
            let src = ctx.slot(*src)?;
            retry_transient!(
                comm,
                rec,
                policy,
                comm.shm_send_data(*to, *tag, src, *off, *len).await
            )?;
            rec.add(StepKind::ShmSend, *len, t0, comm.time_ns());
        }
        Step::ShmRecv {
            from,
            tag,
            dst,
            off,
            len,
        } => {
            let dst = ctx.slot(*dst)?;
            retry_transient!(
                comm,
                rec,
                policy,
                comm.shm_recv_deadline(*from, *tag, dst, *off, *len, recv_deadline_ns(policy))
                    .await
            )?;
            rec.add(StepKind::ShmRecv, *len, t0, comm.time_ns());
        }
        Step::Reduce {
            op,
            dtype,
            acc,
            acc_off,
            src,
            src_off,
            len,
        } => {
            let acc_buf = ctx.slot(*acc)?;
            let src_buf = ctx.slot(*src)?;
            let mut acc_bytes = vec![0u8; *len];
            let mut src_bytes = vec![0u8; *len];
            comm.read_local(acc_buf, *acc_off, &mut acc_bytes)?;
            comm.read_local(src_buf, *src_off, &mut src_bytes)?;
            combine(&mut acc_bytes, &src_bytes, *dtype, *op);
            comm.write_local(acc_buf, *acc_off, &acc_bytes)?;
            rec.add(StepKind::Reduce, *len, t0, comm.time_ns());
        }
    }
    Ok(())
}
