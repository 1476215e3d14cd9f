//! `SimComm`: the blocking [`Comm`] endpoint backed by the simulated
//! machine — a test transport, and the reference the polled endpoint is
//! compared against.
//!
//! Every operation is sequential code over [`Ctx::poll`] closures, so the
//! cost model reads top to bottom here; [`crate::PolledComm`] charges the
//! same costs through `async` methods, and its kernel-assisted transfers
//! through the resident state machine in [`crate::xfer`], which must stay
//! this file's `cma_transfer_inner` event for event (same server calls in
//! the same order, one wake-requesting call per evaluation, the single
//! entry timer for syscall + permission check).

use crate::fluid::FlowId;
use crate::state::{Buf, MachineState};
use kacc_comm::{BufId, Comm, CommError, RemoteToken, Result, Tag, Topology};
use kacc_fault::{FaultDecision, FaultHook, FaultOp, FaultSite};
use kacc_sim_core::{Ctx, Poll};
use kacc_trace::{Tracer, Track};

/// Direction of a kernel-assisted transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmaDir {
    /// `process_vm_readv`: data flows remote → local.
    Read,
    /// `process_vm_writev`: data flows local → remote.
    Write,
}

/// One rank's endpoint into the simulated machine.
pub struct SimComm {
    ctx: Ctx<MachineState>,
    rank: usize,
    nranks: usize,
    topo: Topology,
    /// Node hosting each rank.
    nodes: Vec<usize>,
    /// This rank's node.
    node: usize,
    /// This rank's local rank within the node (drives socket mapping).
    local: usize,
    // Cached cost constants (immutable for the run).
    t_syscall: u64,
    t_permcheck: u64,
    sm_msg_ns: f64,
    sm_byte_ns: f64,
    bw_core: f64,
    inter_socket_bw_penalty: f64,
    page_size: usize,
    pin_batch_pages: usize,
    net_alpha_ns: f64,
    net_bw: f64,
    /// Capacity weight of a cross-socket copy (bw_total / bw_qpi).
    qpi_weight: f64,
    /// Shared tracer (clone of the machine state's); off unless the run
    /// was traced.
    tracer: Tracer,
    /// Shared fault injector (clone of the machine state's); off unless
    /// the run installed a plan. One branch per site when off.
    fault: FaultHook,
}

impl SimComm {
    /// Build the endpoint for `rank`. Called by the team harness; the
    /// ctx's tid must equal the rank.
    pub fn new(ctx: Ctx<MachineState>, rank: usize) -> SimComm {
        assert_eq!(
            ctx.tid(),
            rank,
            "rank threads must be spawned in rank order"
        );
        let (nranks, topo, nodes, local, a, fabric, tracer, fault) = ctx.with_state(|s, _| {
            (
                s.nranks,
                s.topo,
                s.node_of.clone(),
                s.local_rank(rank),
                s.arch.clone(),
                s.net.as_ref().map(|n| n.params.clone()),
                s.tracer.clone(),
                s.fault.clone(),
            )
        });
        SimComm {
            tracer,
            fault,
            node: nodes[rank],
            nodes,
            local,
            ctx,
            rank,
            nranks,
            topo,
            t_syscall: a.t_syscall_ns as u64,
            t_permcheck: a.t_permcheck_ns as u64,
            sm_msg_ns: a.sm_msg_ns,
            sm_byte_ns: a.sm_byte_ns,
            bw_core: a.bw_core,
            inter_socket_bw_penalty: a.inter_socket_bw_penalty,
            page_size: a.page_size,
            pin_batch_pages: a.pin_batch_pages,
            net_alpha_ns: fabric.as_ref().map_or(0.0, |f| f.alpha_ns),
            net_bw: fabric.as_ref().map_or(f64::INFINITY, |f| f.bw_link),
            qpi_weight: (a.bw_total / a.bw_qpi).max(1.0),
        }
    }

    /// Underlying simulation context (used by higher-level harnesses).
    pub fn ctx(&self) -> &Ctx<MachineState> {
        &self.ctx
    }

    fn check_local(&self, buf: BufId, off: usize, len: usize) -> Result<()> {
        let cap = self.buf_len(buf)?;
        if off.checked_add(len).is_none_or(|end| end > cap) {
            return Err(CommError::OutOfRange {
                buf: buf.0,
                off,
                len,
                cap,
            });
        }
        Ok(())
    }

    /// Local rank of `rank` within its node.
    fn local_of(&self, rank: usize) -> usize {
        rank % (self.nranks / self.nodes.iter().max().map_or(1, |m| m + 1))
    }

    /// Per-flow bandwidth ceiling for an intra-node transfer touching
    /// `peer` (same node as us).
    fn peak_bw(&self, peer: usize) -> f64 {
        if self.topo.same_socket(self.local, self.local_of(peer)) {
            self.bw_core
        } else {
            self.bw_core / self.inter_socket_bw_penalty
        }
    }

    /// Run a pinning request through `target`'s page-lock server;
    /// returns the (lock, pin) wall-time attribution.
    fn lock_flow(&self, target: usize, pages: usize) -> (f64, f64) {
        if pages == 0 {
            return (0.0, 0.0);
        }
        let tid = self.ctx.tid();
        let socket = self.topo.socket_of(self.local);
        let id: FlowId = self.ctx.poll("pin:add", move |s, _w, now| {
            s.locks[target].update(now);
            let id = s.locks[target].add(tid, socket, pages);
            // Queue-depth counter for the lock server's trace track.
            s.tracer.counter(
                Track::LockServer(target),
                "queue_depth",
                now,
                s.locks[target].concurrency() as f64,
            );
            Poll::Ready(id)
        });
        self.ctx.poll("pin:wait", move |s, w, now| {
            s.locks[target].update(now);
            if s.locks[target].is_done(id) {
                let attr = s.locks[target].remove_with(id, now, |t, at| w.wake_at(t, at));
                s.tracer.counter(
                    Track::LockServer(target),
                    "queue_depth",
                    now,
                    s.locks[target].concurrency() as f64,
                );
                Poll::Ready(attr)
            } else {
                Poll::Wait {
                    wake_at: s.locks[target].park(id, now),
                }
            }
        })
    }

    /// Run a flow through a fluid server selected by `pick`; returns
    /// wall time. Used for memory copies and NIC link occupancy.
    fn flow_via<F>(&self, bytes: usize, peak: f64, pick: F) -> u64
    where
        F: Fn(&mut MachineState) -> &mut crate::fluid::MemSys + Clone + 'static,
    {
        self.flow_via_weighted(bytes, peak, 1.0, pick)
    }

    fn flow_via_weighted<F>(&self, bytes: usize, peak: f64, weight: f64, pick: F) -> u64
    where
        F: Fn(&mut MachineState) -> &mut crate::fluid::MemSys + Clone + 'static,
    {
        if bytes == 0 {
            return 0;
        }
        let tid = self.ctx.tid();
        let start = self.ctx.now();
        let pick_add = pick.clone();
        let id: FlowId = self.ctx.poll("flow:add", move |s, w, now| {
            let srv = pick_add(s);
            srv.update(now);
            let id = srv.add_weighted(tid, bytes, peak, weight);
            srv.arm_head(now, |t, at| w.wake_at(t, at));
            Poll::Ready(id)
        });
        self.ctx.poll("flow:wait", move |s, w, now| {
            let srv = pick(s);
            srv.update(now);
            if srv.is_done(id) {
                srv.remove_with(id, now, |t, at| w.wake_at(t, at));
                Poll::Ready(())
            } else {
                Poll::Wait {
                    wake_at: srv.park(id, now),
                }
            }
        });
        self.ctx.now() - start
    }

    /// Run a copy through this rank's node memory system; cross-socket
    /// copies consume extra capacity (DRAM + interconnect).
    fn copy_flow_routed(&self, bytes: usize, peak: f64, inter_socket: bool) -> u64 {
        let node = self.node;
        let weight = if inter_socket { self.qpi_weight } else { 1.0 };
        self.flow_via_weighted(bytes, peak, weight, move |s| &mut s.mems[node])
    }

    /// Run an intra-socket copy through this rank's node memory system.
    fn copy_flow(&self, bytes: usize, peak: f64) -> u64 {
        self.copy_flow_routed(bytes, peak, false)
    }

    /// Consult the fault hook for one site; applies an injected delay to
    /// virtual time in place. Returns what the operation must do.
    fn fault_gate(&mut self, peer: Option<usize>, op: FaultOp, len: usize) -> FaultDecision {
        if !self.fault.on() {
            return FaultDecision::Allow;
        }
        let d = self.fault.decide(&FaultSite {
            rank: self.rank,
            peer,
            op,
            len,
        });
        let d = if op.is_cma() { d } else { d.no_partial() };
        if let FaultDecision::Delay { ns } = d {
            self.ctx.advance(ns);
            return FaultDecision::Allow;
        }
        d
    }

    /// Kernel-assisted transfer with separately controllable pin extent
    /// and copy extent — the Table III probe surface. `remote_len` bytes
    /// of the remote buffer are pinned; `copy_len` bytes actually move
    /// (`copy_len ≤ remote_len`). The public [`Comm::cma_read`] /
    /// [`Comm::cma_write`] use `copy_len == remote_len == len`.
    ///
    /// Fault-injection surface: a `Truncate { got }` decision genuinely
    /// moves the first `got` bytes (charging their full pin+copy cost)
    /// and then reports `Truncated`, so a resuming caller observes
    /// exactly the short-count semantics of `process_vm_readv`.
    #[allow(clippy::too_many_arguments)]
    pub fn cma_transfer(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        local: BufId,
        local_off: usize,
        remote_len: usize,
        copy_len: usize,
        dir: CmaDir,
    ) -> Result<()> {
        let op = match dir {
            CmaDir::Read => FaultOp::CmaRead,
            CmaDir::Write => FaultOp::CmaWrite,
        };
        match self.fault_gate(Some(token.rank as usize), op, copy_len) {
            FaultDecision::Allow | FaultDecision::Delay { .. } => self.cma_transfer_inner(
                token, remote_off, local, local_off, remote_len, copy_len, dir,
            ),
            FaultDecision::Fail(e) => {
                // The failed syscall still enters and exits the kernel; an
                // empty transfer charges exactly that.
                self.cma_transfer_inner(token, remote_off, local, local_off, 0, 0, dir)?;
                Err(e)
            }
            FaultDecision::Truncate { got } => {
                let got = got.min(copy_len);
                self.cma_transfer_inner(token, remote_off, local, local_off, got, got, dir)?;
                Err(CommError::Truncated {
                    wanted: copy_len,
                    got,
                })
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn cma_transfer_inner(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        local: BufId,
        local_off: usize,
        remote_len: usize,
        copy_len: usize,
        dir: CmaDir,
    ) -> Result<()> {
        assert!(copy_len <= remote_len, "cannot copy more than is pinned");
        let peer = token.rank as usize;
        let me = self.rank;
        // Phase spans carry the *same* f64 values added to `RankStats`, in
        // the same order, so per-rank span sums are bitwise equal to the
        // stats — the invariant the trace-accounting test pins. Timestamps
        // are only read when tracing is on; the untraced path is unchanged.
        let traced = self.tracer.on();

        // 1+2. Syscall entry/exit, then the permission / capability check
        // against the remote process. Nothing another rank can observe
        // happens between the two, so a call known to reach the check
        // charges both delays on one timer.
        let past_syscall = peer < self.nranks && self.nodes[peer] == self.node && remote_len > 0;
        let t0 = if traced { self.ctx.now() } else { 0 };
        self.ctx.advance(if past_syscall {
            self.t_syscall + self.t_permcheck
        } else {
            self.t_syscall
        });
        let t_sys = self.t_syscall as f64;
        self.ctx.with_state(move |s, _| {
            s.stats[me].syscall_ns += t_sys;
            s.stats[me].cma_ops += 1;
        });
        if traced {
            self.tracer
                .span(Track::Rank(me), "syscall", t0, t_sys, 0, None);
        }

        if peer >= self.nranks {
            return Err(CommError::BadRank(peer));
        }
        if self.nodes[peer] != self.node {
            return Err(CommError::Protocol(format!(
                "kernel-assisted transfer to rank {peer} crosses nodes ({} -> {})",
                self.node, self.nodes[peer]
            )));
        }
        // An empty remote iovec returns after the syscall, touching
        // nothing — exactly how the probe isolates T₁.
        if remote_len == 0 {
            return Ok(());
        }

        let t_chk = self.t_permcheck as f64;
        self.ctx
            .with_state(move |s, _| s.stats[me].check_ns += t_chk);
        if traced {
            self.tracer.span(
                Track::Rank(me),
                "check",
                t0 + self.t_syscall,
                t_chk,
                0,
                None,
            );
        }

        let exposed_len = self
            .ctx
            .with_state(|s, _| s.heaps[peer].exposed_len(token.token));
        let Some(rcap) = exposed_len else {
            return Err(CommError::PermissionDenied);
        };
        if remote_off
            .checked_add(remote_len)
            .is_none_or(|end| end > rcap)
        {
            return Err(CommError::OutOfRange {
                buf: token.token,
                off: remote_off,
                len: remote_len,
                cap: rcap,
            });
        }
        self.check_local(local, local_off, copy_len)?;

        // 3. Pin + copy in batches, like the real CMA implementation:
        // get_user_pages on a batch, copy it, move to the next batch.
        let pages_total = remote_len.div_ceil(self.page_size);
        let batch = self.pin_batch_pages.max(1);
        let peak = self.peak_bw(peer);
        let inter_socket = !self.topo.same_socket(self.local, self.local_of(peer));
        let mut page_at = 0usize;
        let mut copied = 0usize;
        while page_at < pages_total {
            let pages_now = batch.min(pages_total - page_at);
            let tb = if traced { self.ctx.now() } else { 0 };
            let (lock_ns, pin_ns) = self.lock_flow(peer, pages_now);
            self.ctx.with_state(move |s, _| {
                s.stats[me].lock_ns += lock_ns;
                s.stats[me].pin_ns += pin_ns;
            });
            if traced {
                // The batch's wall time splits into a lock share followed by
                // a pin share (the fluid server attributes every dt to one
                // or the other), so render them back-to-back.
                self.tracer
                    .span(Track::Rank(me), "lock", tb, lock_ns, 0, None);
                self.tracer.span(
                    Track::Rank(me),
                    "pin",
                    tb.saturating_add(lock_ns as u64),
                    pin_ns,
                    0,
                    None,
                );
            }
            // Bytes of the copy extent covered by this batch.
            let batch_end_byte = ((page_at + pages_now) * self.page_size).min(remote_len);
            let copy_now = batch_end_byte.min(copy_len).saturating_sub(copied);
            if copy_now > 0 {
                let tc = if traced { self.ctx.now() } else { 0 };
                let wall = self.copy_flow_routed(copy_now, peak, inter_socket) as f64;
                self.ctx.with_state(move |s, _| s.stats[me].copy_ns += wall);
                if traced {
                    self.tracer
                        .span(Track::Rank(me), "copy", tc, wall, copy_now as u64, None);
                }
                copied += copy_now;
            }
            page_at += pages_now;
        }

        // 4. Move the actual bytes (correctness plane). Phantom buffers
        // carry no data, so the copy is skipped — timing was already
        // charged above.
        if copy_len > 0 {
            let (remote, near) = ((peer, token.token, remote_off), (me, local.0, local_off));
            self.ctx.with_state(|s, _| match dir {
                CmaDir::Read => {
                    s.move_bytes(remote, near, copy_len);
                    s.stats[me].bytes_read += copy_len as u64;
                }
                CmaDir::Write => {
                    s.move_bytes(near, remote, copy_len);
                    s.stats[me].bytes_written += copy_len as u64;
                }
            });
        }
        Ok(())
    }

    /// Two-copy degradation path: remote buffer → shared staging →
    /// local buffer (or the reverse for writes). No syscall, no page
    /// pinning, no lock-server traffic — it works when kernel-assisted
    /// access is denied, at the cost of a second copy. Both copies are
    /// charged to `copy_ns` and emitted as `copy` spans, preserving the
    /// span-sum == `RankStats` invariant.
    fn shm_fallback_transfer(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        local: BufId,
        local_off: usize,
        len: usize,
        dir: CmaDir,
    ) -> Result<()> {
        let peer = token.rank as usize;
        let me = self.rank;
        if peer >= self.nranks {
            return Err(CommError::BadRank(peer));
        }
        if self.nodes[peer] != self.node {
            return Err(CommError::Protocol(format!(
                "shared-memory fallback to rank {peer} crosses nodes ({} -> {})",
                self.node, self.nodes[peer]
            )));
        }
        let op = match dir {
            CmaDir::Read => FaultOp::FallbackRead,
            CmaDir::Write => FaultOp::FallbackWrite,
        };
        if let FaultDecision::Fail(e) = self.fault_gate(Some(peer), op, len) {
            return Err(e);
        }
        let exposed_len = self
            .ctx
            .with_state(|s, _| s.heaps[peer].exposed_len(token.token));
        let Some(rcap) = exposed_len else {
            return Err(CommError::PermissionDenied);
        };
        if remote_off.checked_add(len).is_none_or(|end| end > rcap) {
            return Err(CommError::OutOfRange {
                buf: token.token,
                off: remote_off,
                len,
                cap: rcap,
            });
        }
        self.check_local(local, local_off, len)?;
        if len == 0 {
            return Ok(());
        }
        self.ctx.with_state(move |s, _| {
            s.transport.fallback_ops += 1;
            s.transport.fallback_bytes += len as u64;
        });
        let traced = self.tracer.on();
        let peak = self.peak_bw(peer);
        let inter = !self.topo.same_socket(self.local, self.local_of(peer));
        // First copy: between the peer's memory and shared staging,
        // routed across sockets if the peer lives on the other one.
        let t0 = if traced { self.ctx.now() } else { 0 };
        let w1 = self.copy_flow_routed(len, peak, inter) as f64;
        self.ctx.with_state(move |s, _| s.stats[me].copy_ns += w1);
        if traced {
            self.tracer
                .span(Track::Rank(me), "copy", t0, w1, len as u64, None);
        }
        // Second copy: staging and the local buffer share a socket.
        let t1 = if traced { self.ctx.now() } else { 0 };
        let w2 = self.copy_flow(len, self.bw_core) as f64;
        self.ctx.with_state(move |s, _| s.stats[me].copy_ns += w2);
        if traced {
            self.tracer
                .span(Track::Rank(me), "copy", t1, w2, len as u64, None);
        }
        // Data plane (phantom-aware), same accounting as the CMA path.
        let (remote, near) = ((peer, token.token, remote_off), (me, local.0, local_off));
        self.ctx.with_state(move |s, _| match dir {
            CmaDir::Read => {
                s.move_bytes(remote, near, len);
                s.stats[me].bytes_read += len as u64;
            }
            CmaDir::Write => {
                s.move_bytes(near, remote, len);
                s.stats[me].bytes_written += len as u64;
            }
        });
        Ok(())
    }

    /// Second half of a bulk receive, shared by the plain and the deadline
    /// variant: the length check on the message taken from the mailbox,
    /// the second copy (or the ingress link), the message landing in
    /// `dst`, and the `shm_recv` span opened at `t0`.
    #[allow(clippy::too_many_arguments)]
    fn shm_land(
        &mut self,
        from: usize,
        tag: Tag,
        dst: BufId,
        off: usize,
        len: usize,
        payload: Buf,
        t0: u64,
    ) -> Result<()> {
        if payload.len() != len {
            return Err(CommError::Truncated {
                wanted: len,
                got: payload.len(),
            });
        }
        if self.nodes[from] != self.node {
            // Wire occupancy on this node's ingress link.
            let node = self.node;
            self.flow_via(len, self.net_bw, move |s| {
                &mut s.net.as_mut().expect("fabric present").ingress[node]
            });
        } else {
            // Second copy: shared staging → local buffer. The peer for
            // socket purposes is the sender.
            let peak = self.peak_bw(from);
            let inter = !self.topo.same_socket(self.local, self.local_of(from));
            self.copy_flow_routed(len, peak, inter);
        }
        let me = self.rank;
        let landed = self
            .ctx
            .with_state(|s, _| s.heaps[me].copy_in(dst.0, off, &payload));
        debug_assert!(landed, "range checked before the wait");
        if self.tracer.on() {
            let dur = (self.ctx.now() - t0) as f64;
            self.tracer.span(
                Track::Rank(me),
                "shm_recv",
                t0,
                dur,
                len as u64,
                tag.class(),
            );
        }
        Ok(())
    }
}

impl Comm for SimComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.nranks
    }

    fn topology(&self) -> Topology {
        self.topo
    }

    fn node_of(&self, rank: usize) -> usize {
        self.nodes.get(rank).copied().unwrap_or(0)
    }

    fn alloc(&mut self, len: usize) -> BufId {
        let me = self.rank;
        BufId(self.ctx.with_state(move |s, _| s.heaps[me].alloc(len)))
    }

    fn free(&mut self, buf: BufId) -> Result<()> {
        let me = self.rank;
        if self.ctx.with_state(move |s, _| s.heaps[me].free(buf.0)) {
            Ok(())
        } else {
            Err(CommError::InvalidBuffer(buf.0))
        }
    }

    fn buf_len(&self, buf: BufId) -> Result<usize> {
        let me = self.rank;
        self.ctx
            .with_state(move |s, _| s.heaps[me].len_of(buf.0))
            .ok_or(CommError::InvalidBuffer(buf.0))
    }

    fn write_local(&mut self, buf: BufId, off: usize, data: &[u8]) -> Result<()> {
        self.check_local(buf, off, data.len())?;
        let me = self.rank;
        let data = data.to_vec();
        self.ctx.with_state(move |s, _| {
            s.heaps[me].write(buf.0, off, &data);
        });
        Ok(())
    }

    fn read_local(&self, buf: BufId, off: usize, out: &mut [u8]) -> Result<()> {
        self.check_local(buf, off, out.len())?;
        let me = self.rank;
        let len = out.len();
        let data = self.ctx.with_state(move |s, _| {
            s.heaps[me]
                .extract(buf.0, off, len)
                .expect("range checked above")
        });
        out.copy_from_slice(&data);
        Ok(())
    }

    fn copy_local(
        &mut self,
        src: BufId,
        src_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()> {
        self.check_local(src, src_off, len)?;
        self.check_local(dst, dst_off, len)?;
        let t0 = if self.tracer.on() { self.ctx.now() } else { 0 };
        // memcpy consumes memory bandwidth like any other copy.
        let wall = self.copy_flow(len, self.bw_core);
        self.tracer.span(
            Track::Rank(self.rank),
            "copy_local",
            t0,
            wall as f64,
            len as u64,
            None,
        );
        let me = self.rank;
        self.ctx.with_state(move |s, _| {
            s.move_bytes((me, src.0, src_off), (me, dst.0, dst_off), len);
        });
        Ok(())
    }

    fn expose(&mut self, buf: BufId) -> Result<RemoteToken> {
        if let FaultDecision::Fail(e) = self.fault_gate(None, FaultOp::Expose, 0) {
            return Err(e);
        }
        let me = self.rank;
        if self.ctx.with_state(move |s, _| s.heaps[me].expose(buf.0)) {
            Ok(RemoteToken {
                rank: me as u64,
                token: buf.0,
            })
        } else {
            Err(CommError::InvalidBuffer(buf.0))
        }
    }

    fn cma_read(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()> {
        self.cma_transfer(token, remote_off, dst, dst_off, len, len, CmaDir::Read)
    }

    fn cma_write(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        src: BufId,
        src_off: usize,
        len: usize,
    ) -> Result<()> {
        self.cma_transfer(token, remote_off, src, src_off, len, len, CmaDir::Write)
    }

    fn ctrl_send(&mut self, to: usize, tag: Tag, data: &[u8]) -> Result<()> {
        if to >= self.nranks {
            return Err(CommError::BadRank(to));
        }
        // A dropped control message surfaces as a typed send failure, not
        // a silent loss: silently losing it would deadlock the receiver,
        // which models nothing recoverable.
        if let FaultDecision::Fail(e) = self.fault_gate(Some(to), FaultOp::CtrlSend, data.len()) {
            return Err(e);
        }
        let start = self.ctx.now();
        // Sender-side occupancy: enqueue bookkeeping plus the copy of the
        // payload into the shared slot (or NIC doorbell + inline copy).
        let occupancy = (0.3 * self.sm_msg_ns + 0.5 * data.len() as f64 * self.sm_byte_ns) as u64;
        self.ctx.advance(occupancy);
        let latency = if self.nodes[to] == self.node {
            self.sm_msg_ns + data.len() as f64 * self.sm_byte_ns
        } else {
            self.net_alpha_ns + data.len() as f64 / self.net_bw
        };
        let arrival = start + latency as u64;
        let me = self.rank;
        let payload = data.to_vec();
        self.ctx.poll("ctrl:send", move |s, w, _now| {
            s.mail
                .deposit(w, to, me, tag.0 as u64, arrival, payload.clone());
            Poll::Ready(())
        });
        if self.tracer.on() {
            let dur = (self.ctx.now() - start) as f64;
            self.tracer.span(
                Track::Rank(me),
                "ctrl_send",
                start,
                dur,
                data.len() as u64,
                tag.class(),
            );
        }
        Ok(())
    }

    fn ctrl_recv(&mut self, from: usize, tag: Tag) -> Result<Vec<u8>> {
        if from >= self.nranks {
            return Err(CommError::BadRank(from));
        }
        if let FaultDecision::Fail(e) = self.fault_gate(Some(from), FaultOp::CtrlRecv, 0) {
            return Err(e);
        }
        let me = self.rank;
        let tid = self.ctx.tid();
        let t0 = if self.tracer.on() { self.ctx.now() } else { 0 };
        let payload = self.ctx.poll("ctrl:recv", move |s, _w, now| {
            s.mail.take(tid, me, from, tag.0 as u64, now)
        });
        if self.tracer.on() {
            let dur = (self.ctx.now() - t0) as f64;
            self.tracer.span(
                Track::Rank(me),
                "ctrl_recv",
                t0,
                dur,
                payload.len() as u64,
                tag.class(),
            );
        }
        Ok(payload)
    }

    fn shm_send_data(
        &mut self,
        to: usize,
        tag: Tag,
        src: BufId,
        off: usize,
        len: usize,
    ) -> Result<()> {
        if to >= self.nranks {
            return Err(CommError::BadRank(to));
        }
        if let FaultDecision::Fail(e) = self.fault_gate(Some(to), FaultOp::ShmSend, len) {
            return Err(e);
        }
        self.check_local(src, off, len)?;
        let t0 = if self.tracer.on() { self.ctx.now() } else { 0 };
        let cross_node = self.nodes[to] != self.node;
        if cross_node {
            // Wire occupancy on this node's egress link (fluid-shared
            // with concurrent outbound transfers).
            let node = self.node;
            self.flow_via(len, self.net_bw, move |s| {
                &mut s.net.as_mut().expect("fabric present").egress[node]
            });
        } else {
            // First copy: local buffer → shared staging.
            self.copy_flow(len, self.bw_core);
        }
        let me = self.rank;
        let arrival = self.ctx.now()
            + if cross_node {
                self.net_alpha_ns as u64
            } else {
                self.sm_msg_ns as u64
            };
        // Bulk data has a mailbox of its own, so it never collides with
        // control messages of the same tag.
        self.ctx.poll("shm:post", move |s, w, _now| {
            s.transport.shm_ops += 1;
            s.transport.shm_bytes += len as u64;
            let payload = s.heaps[me]
                .copy_out(src.0, off, len)
                .expect("range checked above");
            s.bulk.deposit(w, to, me, tag.0 as u64, arrival, payload);
            Poll::Ready(())
        });
        if self.tracer.on() {
            let dur = (self.ctx.now() - t0) as f64;
            self.tracer.span(
                Track::Rank(me),
                "shm_send",
                t0,
                dur,
                len as u64,
                tag.class(),
            );
        }
        Ok(())
    }

    fn shm_recv_data(
        &mut self,
        from: usize,
        tag: Tag,
        dst: BufId,
        off: usize,
        len: usize,
    ) -> Result<()> {
        if from >= self.nranks {
            return Err(CommError::BadRank(from));
        }
        if let FaultDecision::Fail(e) = self.fault_gate(Some(from), FaultOp::ShmRecv, len) {
            return Err(e);
        }
        self.check_local(dst, off, len)?;
        let me = self.rank;
        let tid = self.ctx.tid();
        let t0 = if self.tracer.on() { self.ctx.now() } else { 0 };
        let payload = self.ctx.poll("shm:wait", move |s, _w, now| {
            s.bulk.take(tid, me, from, tag.0 as u64, now)
        });
        self.shm_land(from, tag, dst, off, len, payload, t0)
    }

    fn ctrl_recv_deadline(
        &mut self,
        from: usize,
        tag: Tag,
        timeout_ns: u64,
    ) -> Result<Option<Vec<u8>>> {
        if from >= self.nranks {
            return Err(CommError::BadRank(from));
        }
        if let FaultDecision::Fail(e) = self.fault_gate(Some(from), FaultOp::CtrlRecv, 0) {
            return Err(e);
        }
        let me = self.rank;
        let tid = self.ctx.tid();
        let deadline = self.ctx.now().saturating_add(timeout_ns);
        let t0 = if self.tracer.on() { self.ctx.now() } else { 0 };
        let payload = self.ctx.poll("ctrl:recv", move |s, _w, now| {
            match s.mail.take(tid, me, from, tag.0 as u64, now) {
                Poll::Ready(p) => Poll::Ready(Some(p)),
                Poll::Wait { .. } if now >= deadline => {
                    // Give up: withdraw the wait registration so a later
                    // deposit doesn't wake (or trip over) a ghost waiter.
                    s.mail.unregister(me, from, tag.0 as u64, tid);
                    Poll::Ready(None)
                }
                Poll::Wait { wake_at } => Poll::Wait {
                    wake_at: Some(wake_at.map_or(deadline, |a| a.min(deadline))),
                },
            }
        });
        if self.tracer.on() {
            let dur = (self.ctx.now() - t0) as f64;
            let bytes = payload.as_ref().map_or(0, Vec::len) as u64;
            self.tracer
                .span(Track::Rank(me), "ctrl_recv", t0, dur, bytes, tag.class());
        }
        Ok(payload)
    }

    fn shm_recv_deadline(
        &mut self,
        from: usize,
        tag: Tag,
        dst: BufId,
        off: usize,
        len: usize,
        timeout_ns: u64,
    ) -> Result<bool> {
        if from >= self.nranks {
            return Err(CommError::BadRank(from));
        }
        if let FaultDecision::Fail(e) = self.fault_gate(Some(from), FaultOp::ShmRecv, len) {
            return Err(e);
        }
        self.check_local(dst, off, len)?;
        let me = self.rank;
        let tid = self.ctx.tid();
        let key = tag.0 as u64;
        let deadline = self.ctx.now().saturating_add(timeout_ns);
        let t0 = if self.tracer.on() { self.ctx.now() } else { 0 };
        let payload = self.ctx.poll("shm:wait", move |s, _w, now| {
            match s.bulk.take(tid, me, from, key, now) {
                Poll::Ready(p) => Poll::Ready(Some(p)),
                Poll::Wait { .. } if now >= deadline => {
                    s.bulk.unregister(me, from, key, tid);
                    Poll::Ready(None)
                }
                Poll::Wait { wake_at } => Poll::Wait {
                    wake_at: Some(wake_at.map_or(deadline, |a| a.min(deadline))),
                },
            }
        });
        let Some(payload) = payload else {
            return Ok(false);
        };
        self.shm_land(from, tag, dst, off, len, payload, t0)?;
        Ok(true)
    }

    fn sleep_ns(&mut self, ns: u64) {
        // Backoff charges virtual time, exactly like any other wait.
        self.ctx.advance(ns);
    }

    fn shm_fallback_read(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()> {
        self.shm_fallback_transfer(token, remote_off, dst, dst_off, len, CmaDir::Read)
    }

    fn shm_fallback_write(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        src: BufId,
        src_off: usize,
        len: usize,
    ) -> Result<()> {
        self.shm_fallback_transfer(token, remote_off, src, src_off, len, CmaDir::Write)
    }

    fn time_ns(&self) -> u64 {
        self.ctx.now()
    }

    fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    // SimComm is exercised end-to-end through the team harness; see
    // `crate::team` and the integration tests.
}
