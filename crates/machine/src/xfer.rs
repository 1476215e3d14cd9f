//! One kernel-assisted transfer as a state machine resident in the
//! machine.
//!
//! A `process_vm_readv`-style call is a fixed sequence — enter the
//! kernel, check permissions, then per batch of pages pin through the
//! peer's page-lock server and copy through the node's memory system —
//! whose every wait is on a timer or a fluid server, never on the calling
//! rank's own code. So the call lives here, in [`MachineState::xfers`],
//! not in the rank's future: [`crate::PolledComm`] installs an [`Xfer`]
//! and awaits [`step_xfer`] through `sim_steps`; the harness installs the
//! same function as the kernel's step hook, so every later dispatch of
//! the rank advances the transfer straight from the event loop and the
//! rank's future is polled again only when the call has returned.
//!
//! This is the one implementation of the paper's CMA cost model (Tables
//! II–IV): syscall entry, permission check, per-batch pinning through the
//! peer's page-lock server, copying through the memory system. The unit
//! tests below pin each early return and the fault paths; the figures,
//! `trace_accounting` and the collective pins pin the rest in virtual
//! nanoseconds.

use crate::fluid::FlowId;
use crate::state::{move_bytes, MachineState};
use kacc_comm::{BufId, CommError, RemoteToken, Result};
use kacc_sim_core::polled::{Park, Step};
use kacc_sim_core::{SimTime, Waker};
use kacc_trace::Track;

/// Direction of a kernel-assisted transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmaDir {
    /// `process_vm_readv`: data flows remote → local.
    Read,
    /// `process_vm_writev`: data flows local → remote.
    Write,
}

/// The arguments of one kernel-assisted call: `remote_len` bytes of the
/// exposed buffer are pinned, the first `copy_len` of them move.
#[derive(Debug, Clone, Copy)]
pub struct CmaCall {
    /// The peer's exposed buffer.
    pub token: RemoteToken,
    /// Offset into it.
    pub remote_off: usize,
    /// The caller's buffer.
    pub local: BufId,
    /// Offset into it.
    pub local_off: usize,
    /// Extent pinned on the peer.
    pub remote_len: usize,
    /// Extent copied (`≤ remote_len`).
    pub copy_len: usize,
    /// Which way the bytes flow.
    pub dir: CmaDir,
}

#[derive(Debug)]
enum Phase {
    /// Inside syscall entry/exit and, when the call is known to reach it,
    /// the permission check: one timer for both.
    Entry,
    /// About to queue the next batch of pages on the peer's lock server.
    PinAdd,
    /// Pages queued; waiting for the grant.
    PinWait(FlowId),
    /// Batch pinned; about to start copying its share of the extent.
    CopyAdd,
    /// Copy flow in the memory system.
    CopyWait(FlowId),
    /// Returned; the caller collects the result.
    Done(Result<()>),
}

/// A kernel-assisted transfer in flight. At most one per rank (a rank is
/// inside at most one system call).
#[derive(Debug)]
pub struct Xfer {
    call: CmaCall,
    /// When the call entered the kernel, and when its entry timer ends.
    t0: SimTime,
    entry_until: SimTime,
    /// What the call returns straight after the syscall, without touching
    /// the peer: no such rank, another node, or an empty extent. `None`
    /// means it reaches the permission check, so the entry timer covers
    /// that too.
    early: Option<Result<()>>,
    /// Caller's node (whose memory system copies) and socket (cross-socket
    /// test in the lock server).
    node: usize,
    socket: usize,
    /// Per-flow bandwidth ceiling and capacity weight of the copies.
    peak: f64,
    weight: f64,
    /// Batch cursor: pages pinned so far, pages in the current batch,
    /// bytes copied so far, bytes in the current copy.
    pages_total: usize,
    page_at: usize,
    pages_now: usize,
    copied: usize,
    copy_now: usize,
    /// When the current pin or copy was queued.
    t_phase: SimTime,
    phase: Phase,
}

impl Xfer {
    /// The transfer `me` calls at `now`; install it in
    /// [`MachineState::xfers`] and drive it with [`step_xfer`]. It enters
    /// the kernel at the rank's own clock, `now` or its busy-until horizon
    /// if that is later.
    pub fn new(s: &MachineState, me: usize, call: CmaCall, now: SimTime) -> Xfer {
        let t0 = now.max(s.busy_until[me]);
        assert!(
            call.copy_len <= call.remote_len,
            "cannot copy more than is pinned"
        );
        let a = &s.arch;
        let peer = call.token.rank as usize;
        let node = s.node_of[me];
        let early = if peer >= s.nranks {
            Some(Err(CommError::BadRank(peer)))
        } else if s.node_of[peer] != node {
            Some(Err(CommError::Protocol(format!(
                "kernel-assisted transfer to rank {peer} crosses nodes ({node} -> {})",
                s.node_of[peer]
            ))))
        } else if call.remote_len == 0 {
            // An empty remote iovec returns after the syscall, touching
            // nothing — how the probe isolates T₁.
            Some(Ok(()))
        } else {
            None
        };
        let t_entry = a.t_syscall_ns as u64
            + if early.is_none() {
                a.t_permcheck_ns as u64
            } else {
                0
            };
        let local = s.local_rank(me);
        let same_socket = s.topo.same_socket(local, s.local_rank(peer));
        Xfer {
            call,
            t0,
            entry_until: t0 + t_entry,
            early,
            node,
            socket: s.topo.socket_of(local),
            peak: if same_socket {
                a.bw_core
            } else {
                a.bw_core / a.inter_socket_bw_penalty
            },
            weight: if same_socket {
                1.0
            } else {
                (a.bw_total / a.bw_qpi).max(1.0)
            },
            pages_total: call.remote_len.div_ceil(a.page_size),
            page_at: 0,
            pages_now: 0,
            copied: 0,
            copy_now: 0,
            t_phase: t0,
            phase: Phase::Entry,
        }
    }

    /// The call's return value, once [`step_xfer`] reported `Ready`.
    pub fn into_result(self) -> Result<()> {
        match self.phase {
            Phase::Done(r) => r,
            phase => panic!("transfer collected in flight ({phase:?})"),
        }
    }
}

/// Advance `tid`'s resident transfer as far as it goes at `now`:
/// `Ready` when there is none or it has returned, `Wait` on its timer or
/// fluid-server completion, `Again` to end the evaluation before a second
/// server call that may request wakes (a flow leaving or joining a
/// server). One such call per evaluation keeps each server call's wakes
/// in an evaluation of their own, so wakes coalesce and the fan-out
/// histogram counts as if every server call were its own poll closure.
pub fn step_xfer(s: &mut MachineState, tid: usize, w: &mut Waker, now: SimTime) -> Step<()> {
    let MachineState {
        arch,
        xfers,
        heaps,
        locks,
        mems,
        stats,
        tracer,
        ..
    } = s;
    let Some(x) = xfers[tid].as_mut() else {
        return Step::Ready(());
    };
    let traced = tracer.on();
    let me = tid;
    let peer = x.call.token.rank as usize;
    // Has this evaluation made its wake-requesting server call?
    let mut woke = false;
    loop {
        match x.phase {
            Phase::Done(_) => return Step::Ready(()),
            Phase::Entry => {
                if now < x.entry_until {
                    return Step::Wait(Park {
                        label: "advance",
                        wake_at: Some(x.entry_until),
                    });
                }
                // The phase spans are the only record of the phase times:
                // a rank's spans, summed in emission order, are its Fig 4
                // breakdown.
                let t_sys = arch.t_syscall_ns as u64;
                stats[me].cma_ops += 1;
                if traced {
                    tracer.span(Track::Rank(me), "syscall", x.t0, t_sys as f64, 0, None);
                }
                if let Some(r) = x.early.take() {
                    x.phase = Phase::Done(r);
                    continue;
                }
                let t_chk = arch.t_permcheck_ns as u64 as f64;
                if traced {
                    tracer.span(Track::Rank(me), "check", x.t0 + t_sys, t_chk, 0, None);
                }
                let exposed_len = heaps[peer].exposed_len(x.call.token.token);
                let local_len = heaps[me].len_of(x.call.local.0);
                x.phase = match admit(&x.call, exposed_len, local_len) {
                    Ok(()) => Phase::PinAdd,
                    Err(e) => Phase::Done(Err(e)),
                };
            }
            Phase::PinAdd => {
                if x.page_at == x.pages_total {
                    // Every batch pinned and copied: move the actual bytes
                    // (correctness plane; phantom-aware), unless the peer
                    // freed the source while the call was in flight.
                    let c = &x.call;
                    let remote = (peer, c.token.token, c.remote_off);
                    let near = (me, c.local.0, c.local_off);
                    let (src, dst) = match c.dir {
                        CmaDir::Read => (remote, near),
                        CmaDir::Write => (near, remote),
                    };
                    if heaps[src.0].len_of(src.1).is_none() {
                        x.phase = Phase::Done(Err(CommError::PermissionDenied));
                        continue;
                    }
                    if c.copy_len > 0 {
                        move_bytes(heaps, src, dst, c.copy_len);
                        match c.dir {
                            CmaDir::Read => stats[me].bytes_read += c.copy_len as u64,
                            CmaDir::Write => stats[me].bytes_written += c.copy_len as u64,
                        }
                    }
                    x.phase = Phase::Done(Ok(()));
                    continue;
                }
                // get_user_pages on a batch, copy it, move to the next.
                x.pages_now = arch.pin_batch_pages.max(1).min(x.pages_total - x.page_at);
                x.t_phase = now;
                let lock = &mut locks[peer];
                lock.update(now);
                let id = lock.add(tid, x.socket, x.pages_now);
                tracer.counter(
                    Track::LockServer(peer),
                    "queue_depth",
                    now,
                    lock.concurrency() as f64,
                );
                x.phase = Phase::PinWait(id);
            }
            Phase::PinWait(id) => {
                let lock = &mut locks[peer];
                lock.update(now);
                if !lock.is_done(id) {
                    return Step::Wait(Park {
                        label: "pin:wait",
                        wake_at: lock.park(id, now),
                    });
                }
                if std::mem::replace(&mut woke, true) {
                    return Step::Again;
                }
                let (lock_ns, pin_ns) = lock.remove_with(id, now, |t, at| w.wake_at(t, at));
                tracer.counter(
                    Track::LockServer(peer),
                    "queue_depth",
                    now,
                    lock.concurrency() as f64,
                );
                if traced {
                    // The batch's wall time splits into a lock share then
                    // a pin share (the server attributes every dt to one
                    // or the other), so render them back to back.
                    let tb = x.t_phase;
                    tracer.span(Track::Rank(me), "lock", tb, lock_ns, 0, None);
                    let t_pin = tb.saturating_add(lock_ns as u64);
                    tracer.span(Track::Rank(me), "pin", t_pin, pin_ns, 0, None);
                }
                // Bytes of the copy extent covered by this batch.
                x.page_at += x.pages_now;
                let batch_end = (x.page_at * arch.page_size).min(x.call.remote_len);
                x.copy_now = batch_end.min(x.call.copy_len).saturating_sub(x.copied);
                x.phase = if x.copy_now > 0 {
                    Phase::CopyAdd
                } else {
                    Phase::PinAdd
                };
            }
            Phase::CopyAdd => {
                if std::mem::replace(&mut woke, true) {
                    return Step::Again;
                }
                x.t_phase = now;
                let mem = &mut mems[x.node];
                mem.update(now);
                let id = mem.add_weighted(tid, x.copy_now, x.peak, x.weight);
                mem.arm_head(now, |t, at| w.wake_at(t, at));
                x.phase = Phase::CopyWait(id);
            }
            Phase::CopyWait(id) => {
                let mem = &mut mems[x.node];
                mem.update(now);
                if !mem.is_done(id) {
                    return Step::Wait(Park {
                        label: "flow:wait",
                        wake_at: mem.park(id, now),
                    });
                }
                if std::mem::replace(&mut woke, true) {
                    return Step::Again;
                }
                mem.remove_with(id, now, |t, at| w.wake_at(t, at));
                if traced {
                    let wall = (now - x.t_phase) as f64;
                    let bytes = x.copy_now as u64;
                    tracer.span(Track::Rank(me), "copy", x.t_phase, wall, bytes, None);
                }
                x.copied += x.copy_now;
                x.phase = Phase::PinAdd;
            }
        }
    }
}

/// The checks `process_vm_readv` makes once it has found the target
/// process: the region must be exposed, both extents in range.
fn admit(c: &CmaCall, exposed_len: Option<usize>, local_len: Option<usize>) -> Result<()> {
    let rcap = exposed_len.ok_or(CommError::PermissionDenied)?;
    if c.remote_off
        .checked_add(c.remote_len)
        .is_none_or(|end| end > rcap)
    {
        return Err(CommError::OutOfRange {
            buf: c.token.token,
            off: c.remote_off,
            len: c.remote_len,
            cap: rcap,
        });
    }
    let cap = local_len.ok_or(CommError::InvalidBuffer(c.local.0))?;
    if c.local_off
        .checked_add(c.copy_len)
        .is_none_or(|end| end > cap)
    {
        return Err(CommError::OutOfRange {
            buf: c.local.0,
            off: c.local_off,
            len: c.copy_len,
            cap,
        });
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::polled::{run_polled_machine_full, sm_barrier_polled, PolledComm};
    use crate::state::RankStats;
    use kacc_fault::{FaultDecision, FaultHook, FaultInjector, FaultOp, FaultSite};
    use kacc_model::ArchProfile;
    use kacc_trace::EventKind;
    use std::sync::Arc;

    const LEN: usize = 8192;

    /// What rank 0 does with its buffer before rank 1 calls.
    #[derive(Clone, Copy)]
    enum Owner {
        Exposes,
        NeverExposes,
        ExposesThenFrees,
    }

    /// Rank 1's phase spans, `(name, duration)` in emission order.
    type Phases = Vec<(&'static str, f64)>;

    /// Rank 0 prepares a `LEN`-byte buffer (id 0); after a barrier rank 1
    /// allocates `LEN` bytes of its own and makes the call `shape` builds
    /// from `(token of rank 0's buffer, rank 1's buffer)`. Returns the
    /// call's result, its duration, rank 1's counts and its phase spans.
    fn one_call(
        state: MachineState,
        owner: Owner,
        shape: fn(RemoteToken, BufId) -> CmaCall,
    ) -> (Result<()>, SimTime, RankStats, Phases) {
        let (run, mut out, trace) =
            run_polled_machine_full(state, true, true, move |rank| async move {
                let mut comm = PolledComm::new(rank);
                if rank == 0 {
                    let buf = comm.alloc_with(&[7u8; LEN]).unwrap();
                    if !matches!(owner, Owner::NeverExposes) {
                        comm.expose(buf).await.unwrap();
                    }
                    if matches!(owner, Owner::ExposesThenFrees) {
                        comm.free(buf).unwrap();
                    }
                }
                sm_barrier_polled(&mut comm).await.unwrap();
                if rank != 1 {
                    return None;
                }
                let local = comm.alloc(LEN);
                let token = RemoteToken { rank: 0, token: 0 };
                let c = shape(token, local);
                let t0 = comm.time_ns();
                let r = comm
                    .cma_transfer(
                        c.token,
                        c.remote_off,
                        c.local,
                        c.local_off,
                        c.remote_len,
                        c.copy_len,
                        c.dir,
                    )
                    .await;
                Some((r, comm.time_ns() - t0))
            });
        let (r, dt) = out.remove(1).unwrap();
        let phases = trace
            .iter()
            .filter(|e| e.track == Track::Rank(1))
            .filter_map(|e| match e.kind {
                EventKind::Span { dur, .. } => Some((e.name, dur)),
                _ => None,
            })
            .filter(|(name, _)| ["syscall", "check", "lock", "pin", "copy"].contains(name))
            .collect();
        (r, dt, run.stats[1], phases)
    }

    fn whole(token: RemoteToken, local: BufId) -> CmaCall {
        CmaCall {
            token,
            remote_off: 0,
            local,
            local_off: 0,
            remote_len: LEN,
            copy_len: LEN,
            dir: CmaDir::Read,
        }
    }

    fn node() -> MachineState {
        MachineState::new(ArchProfile::broadwell(), 2)
    }

    /// `(t_syscall, t_syscall + t_permcheck)` on Broadwell, ns.
    fn entry_times() -> (u64, u64) {
        let a = ArchProfile::broadwell();
        let t_sys = a.t_syscall_ns as u64;
        (t_sys, t_sys + a.t_permcheck_ns as u64)
    }

    /// The counts of one kernel-assisted call that moved nothing.
    fn one_empty_call() -> RankStats {
        RankStats {
            cma_ops: 1,
            ..RankStats::default()
        }
    }

    /// A call that returned after the syscall: charged that and nothing else.
    fn assert_syscall_only(stats: &RankStats, phases: &Phases) {
        let (t_sys, _) = entry_times();
        assert_eq!(*stats, one_empty_call());
        assert_eq!(*phases, vec![("syscall", t_sys as f64)]);
    }

    /// A call refused by the permission check: charged syscall and check.
    fn assert_refused(stats: &RankStats, phases: &Phases) {
        let (t_sys, t_both) = entry_times();
        assert_eq!(*stats, one_empty_call());
        assert_eq!(
            *phases,
            vec![
                ("syscall", t_sys as f64),
                ("check", (t_both - t_sys) as f64)
            ]
        );
    }

    #[test]
    fn a_bad_rank_costs_the_syscall() {
        let (r, dt, stats, phases) = one_call(node(), Owner::Exposes, |mut token, local| {
            token.rank = 9;
            whole(token, local)
        });
        assert_eq!(r, Err(CommError::BadRank(9)));
        assert_eq!(dt, entry_times().0);
        assert_syscall_only(&stats, &phases);
    }

    #[test]
    fn a_peer_on_another_node_costs_the_syscall() {
        let arch = ArchProfile::broadwell();
        let fabric = arch.default_fabric();
        let cluster = MachineState::cluster(arch, 2, 1, Some(fabric));
        let (r, dt, stats, phases) = one_call(cluster, Owner::Exposes, whole);
        assert!(
            matches!(&r, Err(CommError::Protocol(m)) if m.contains("crosses nodes (1 -> 0)")),
            "{r:?}"
        );
        assert_eq!(dt, entry_times().0);
        assert_syscall_only(&stats, &phases);
    }

    #[test]
    fn an_empty_extent_returns_after_the_syscall() {
        let (r, dt, stats, phases) =
            one_call(node(), Owner::NeverExposes, |token, local| CmaCall {
                remote_len: 0,
                copy_len: 0,
                ..whole(token, local)
            });
        assert_eq!(r, Ok(()));
        assert_eq!(dt, entry_times().0);
        assert_syscall_only(&stats, &phases);
    }

    #[test]
    fn an_unexposed_or_freed_buffer_is_refused_after_the_check() {
        for owner in [Owner::NeverExposes, Owner::ExposesThenFrees] {
            let (r, dt, stats, phases) = one_call(node(), owner, whole);
            assert_eq!(r, Err(CommError::PermissionDenied));
            assert_eq!(dt, entry_times().1);
            assert_refused(&stats, &phases);
        }
    }

    #[test]
    fn out_of_range_extents_are_refused_after_the_check() {
        let (r, dt, stats, phases) = one_call(node(), Owner::Exposes, |token, local| CmaCall {
            remote_off: 1,
            ..whole(token, local)
        });
        let remote = CommError::OutOfRange {
            buf: 0,
            off: 1,
            len: LEN,
            cap: LEN,
        };
        assert_eq!((r, dt), (Err(remote), entry_times().1));
        assert_refused(&stats, &phases);

        // The local range is checked against the copy extent, not the
        // pinned one: 100 bytes fit at LEN - 100.
        let (r, _, stats, _) = one_call(node(), Owner::Exposes, |token, local| CmaCall {
            local_off: LEN - 100,
            copy_len: 100,
            ..whole(token, local)
        });
        assert_eq!(r, Ok(()));
        assert_eq!(stats.bytes_read, 100);
        let (r, dt, stats, phases) = one_call(node(), Owner::Exposes, |token, local| CmaCall {
            local_off: LEN - 100,
            copy_len: 101,
            ..whole(token, local)
        });
        let local = CommError::OutOfRange {
            buf: 0,
            off: LEN - 100,
            len: 101,
            cap: LEN,
        };
        assert_eq!((r, dt), (Err(local), entry_times().1));
        assert_refused(&stats, &phases);
    }

    #[test]
    fn an_invalid_local_buffer_is_refused_after_the_check() {
        let (r, dt, stats, phases) =
            one_call(node(), Owner::Exposes, |token, _| whole(token, BufId(42)));
        assert_eq!(
            (r, dt),
            (Err(CommError::InvalidBuffer(42)), entry_times().1)
        );
        assert_refused(&stats, &phases);
    }

    /// Rank 1 reads the whole of rank 0's exposed `len`-byte buffer right
    /// after a barrier; with `free_after`, rank 0 frees that buffer this
    /// long after the barrier. Returns the read's result, its start and
    /// end, and the bytes that landed.
    fn read_while_freed(len: usize, free_after: Option<u64>) -> (Result<()>, u64, u64, Vec<u8>) {
        let (_, mut out, _) =
            run_polled_machine_full(node(), false, true, move |rank| async move {
                let mut comm = PolledComm::new(rank);
                let buf = if rank == 0 {
                    let buf = comm.alloc_with(&vec![7u8; len]).unwrap();
                    comm.expose(buf).await.unwrap();
                    buf
                } else {
                    comm.alloc(len)
                };
                sm_barrier_polled(&mut comm).await.unwrap();
                if rank == 0 {
                    if let Some(dt) = free_after {
                        comm.sleep_ns(dt).await;
                        comm.free(buf).unwrap();
                    }
                    return None;
                }
                let t0 = comm.time_ns();
                let token = RemoteToken { rank: 0, token: 0 };
                let r = comm.cma_read(token, 0, buf, 0, len).await;
                Some((r, t0, comm.time_ns(), comm.read_all(buf).unwrap()))
            });
        out.remove(1).unwrap()
    }

    #[test]
    fn a_source_freed_mid_read_is_refused_and_moves_nothing() {
        // Four pin batches: the free lands between them.
        let len = 4 * ArchProfile::broadwell().pin_batch_pages * 4096;
        let (plain, t0, t1, bytes) = read_while_freed(len, None);
        assert_eq!((plain, bytes), (Ok(()), vec![7u8; len]));
        let (r, start, end, bytes) = read_while_freed(len, Some((t1 - t0) / 2));
        // The call runs its course in time and returns what a call on an
        // unexposed buffer returns; the destination is untouched.
        assert_eq!(r, Err(CommError::PermissionDenied));
        assert_eq!((start, end), (t0, t1));
        assert_eq!((t0, t1), (300, 367_692));
        assert_eq!(bytes, vec![0u8; len]);
    }

    /// Injects `0` into every kernel-assisted call.
    struct OnCma(FaultDecision);

    impl FaultInjector for OnCma {
        fn decide(&self, site: &FaultSite) -> FaultDecision {
            if matches!(site.op, FaultOp::CmaRead | FaultOp::CmaWrite) {
                self.0.clone()
            } else {
                FaultDecision::Allow
            }
        }
    }

    fn faulty(decision: FaultDecision) -> MachineState {
        let mut state = node();
        state.fault = FaultHook::new(Arc::new(OnCma(decision)));
        state
    }

    #[test]
    fn an_injected_failure_costs_an_empty_call() {
        let (r, dt, stats, phases) = one_call(
            faulty(FaultDecision::Fail(CommError::Os(11))),
            Owner::Exposes,
            whole,
        );
        assert_eq!((r, dt), (Err(CommError::Os(11)), entry_times().0));
        assert_syscall_only(&stats, &phases);
    }

    #[test]
    fn an_injected_truncation_moves_and_charges_the_short_extent() {
        let got = 5000;
        let (plain, plain_dt, plain_stats, plain_phases) =
            one_call(node(), Owner::Exposes, |token, local| CmaCall {
                remote_len: 5000,
                copy_len: 5000,
                ..whole(token, local)
            });
        assert_eq!(plain, Ok(()));
        let (r, dt, stats, phases) = one_call(
            faulty(FaultDecision::Truncate { got }),
            Owner::Exposes,
            whole,
        );
        assert_eq!(r, Err(CommError::Truncated { wanted: LEN, got }));
        assert_eq!((dt, stats, phases), (plain_dt, plain_stats, plain_phases));
        assert_eq!(stats.bytes_read, got as u64);
    }

    #[test]
    fn an_injected_delay_precedes_the_whole_call() {
        let (plain, plain_dt, plain_stats, plain_phases) = one_call(node(), Owner::Exposes, whole);
        let (r, dt, stats, phases) = one_call(
            faulty(FaultDecision::Delay { ns: 700 }),
            Owner::Exposes,
            whole,
        );
        assert_eq!((plain, r), (Ok(()), Ok(())));
        assert_eq!(dt, plain_dt + 700);
        assert_eq!((stats, &phases), (plain_stats, &plain_phases));
        // Two pages in one batch: entry, one pin, one copy.
        let (_, t_both) = entry_times();
        assert!(plain_dt > t_both);
        assert_eq!(
            plain_phases.iter().map(|(_, dur)| dur).sum::<f64>(),
            plain_dt as f64,
            "an uncontended call is all accounted time"
        );
    }
}
