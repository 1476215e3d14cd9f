//! `PolledComm`: the simulator's endpoint, plus the `run_polled_*`
//! harness family.
//!
//! [`PolledComm`] is the machine model behind a native
//! [`kacc_comm::AsyncComm`]: the two-copy shared-memory path, the
//! small-message control plane and local copies, each charged in virtual
//! time by `async` methods that return `Pending(wake_at)` to the
//! [`kacc_sim_core::polled::PolledSim`] driver. Kernel-assisted transfers
//! are the exception: [`PolledComm::cma_transfer`] hands the call to the
//! machine ([`crate::xfer`]) and the kernel steps it — syscall,
//! permission check, batched pinning through the page-lock server,
//! copying through the memory system — from the event loop, through the
//! step hook [`run_polled_machine_full`] installs; the rank's future is
//! polled again only to collect the result. Every figure, the benchmark,
//! the measurement helpers and every simulator test run on this
//! endpoint; it is the simulator's only transport.

use crate::fluid::FlowId;
use crate::state::{move_bytes, MachineState};
use crate::team::TeamRun;
use crate::xfer::{refusal, step_xfer, CmaCall, CmaDir, Xfer};
use kacc_comm::{AsyncComm, BufId, CommError, RemoteToken, Result, Tag, Topology};
use kacc_fault::{FaultDecision, FaultHook, FaultOp, FaultSite};
use kacc_model::{ArchProfile, FabricParams};
use kacc_sim_core::polled::{
    sim_advance, sim_now, sim_poll, sim_steps, sim_tid, sim_with_state, PolledSim,
};
use kacc_sim_core::Poll;
use kacc_trace::{Event, Tracer, Track};
use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

/// One rank's endpoint into the simulated machine. Construct inside a
/// rank task with [`PolledComm::new`]; it caches the cost constants its
/// operations charge.
pub struct PolledComm {
    rank: usize,
    nranks: usize,
    topo: Topology,
    node: usize,
    local: usize,
    /// Ranks hosted per node (nodes are equally subscribed, ranks
    /// block-distributed), so node and local rank of any peer are one
    /// division away.
    ranks_per_node: usize,
    sm_msg_ns: f64,
    sm_byte_ns: f64,
    bw_core: f64,
    inter_socket_bw_penalty: f64,
    net_alpha_ns: f64,
    net_bw: f64,
    qpi_weight: f64,
    tracer: Tracer,
    fault: FaultHook,
}

impl PolledComm {
    /// Build the endpoint for `rank`. Must be called from inside the
    /// rank's task (the harness guarantees tasks are spawned in rank
    /// order, so the driving tid must equal the rank).
    pub fn new(rank: usize) -> PolledComm {
        assert_eq!(sim_tid(), rank, "rank tasks must be spawned in rank order");
        sim_with_state(|s: &mut MachineState, _| {
            let a = &s.arch;
            let fabric = s.net.as_ref().map(|n| &n.params);
            let ranks_per_node = s.nranks / s.mems.len();
            PolledComm {
                rank,
                nranks: s.nranks,
                topo: s.topo,
                node: rank / ranks_per_node,
                local: rank % ranks_per_node,
                ranks_per_node,
                sm_msg_ns: a.sm_msg_ns,
                sm_byte_ns: a.sm_byte_ns,
                bw_core: a.bw_core,
                inter_socket_bw_penalty: a.inter_socket_bw_penalty,
                net_alpha_ns: fabric.map_or(0.0, |f| f.alpha_ns),
                net_bw: fabric.map_or(f64::INFINITY, |f| f.bw_link),
                qpi_weight: (a.bw_total / a.bw_qpi).max(1.0),
                tracer: s.tracer.clone(),
                fault: s.fault.clone(),
            }
        })
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the team.
    pub fn size(&self) -> usize {
        self.nranks
    }

    /// Socket topology of this rank's node.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Node hosting `rank` (0 for a rank outside the team).
    pub fn node_of(&self, rank: usize) -> usize {
        if rank < self.nranks {
            rank / self.ranks_per_node
        } else {
            0
        }
    }

    /// This rank's clock: the current virtual time, or the end of the
    /// rank's last control send if that is later
    /// ([`MachineState::busy_until`]).
    pub fn time_ns(&self) -> u64 {
        let me = self.rank;
        sim_with_state(move |s: &mut MachineState, now| now.max(s.busy_until[me]))
    }

    /// Shared tracer (off unless the run was traced).
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
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

    fn local_of(&self, rank: usize) -> usize {
        rank % self.ranks_per_node
    }

    fn peak_bw(&self, peer: usize) -> f64 {
        if self.topo.same_socket(self.local, self.local_of(peer)) {
            self.bw_core
        } else {
            self.bw_core / self.inter_socket_bw_penalty
        }
    }

    async fn flow_via<F>(&self, bytes: usize, peak: f64, pick: F) -> u64
    where
        F: Fn(&mut MachineState) -> &mut crate::fluid::MemSys + Clone + Unpin + 'static,
    {
        self.flow_via_weighted(bytes, peak, 1.0, pick).await
    }

    async fn flow_via_weighted<F>(&self, bytes: usize, peak: f64, weight: f64, pick: F) -> u64
    where
        F: Fn(&mut MachineState) -> &mut crate::fluid::MemSys + Clone + Unpin + 'static,
    {
        if bytes == 0 {
            return 0;
        }
        let tid = sim_tid();
        let start = self.time_ns();
        let pick_add = pick.clone();
        let id: FlowId = sim_poll("flow:add", move |s: &mut MachineState, w, now| {
            // A shared server sees the rank at its own clock.
            let horizon = s.busy_until[tid];
            if now < horizon {
                return Poll::Wait {
                    wake_at: Some(horizon),
                };
            }
            let srv = pick_add(s);
            srv.update(now);
            let id = srv.add_weighted(tid, bytes, peak, weight);
            srv.arm_head(now, |t, at| w.wake_at(t, at));
            Poll::Ready(id)
        })
        .await;
        sim_poll("flow:wait", move |s: &mut MachineState, w, now| {
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
        })
        .await;
        self.time_ns() - start
    }

    async fn copy_flow_routed(&self, bytes: usize, peak: f64, inter_socket: bool) -> u64 {
        let node = self.node;
        let weight = if inter_socket { self.qpi_weight } else { 1.0 };
        self.flow_via_weighted(bytes, peak, weight, move |s| &mut s.mems[node])
            .await
    }

    async fn copy_flow(&self, bytes: usize, peak: f64) -> u64 {
        self.copy_flow_routed(bytes, peak, false).await
    }

    async fn fault_gate(&mut self, peer: Option<usize>, op: FaultOp, len: usize) -> FaultDecision {
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
            self.sleep_ns(ns).await;
            return FaultDecision::Allow;
        }
        d
    }

    /// Kernel-assisted transfer with separately controllable extents:
    /// `remote_len` bytes of the peer's buffer are pinned, the first
    /// `copy_len` of them move (`copy_len < remote_len` models a short
    /// transfer). A fault decision is taken first; the call itself is
    /// stepped by the machine ([`crate::xfer`]).
    #[allow(clippy::too_many_arguments)]
    pub async fn cma_transfer(
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
        let call = CmaCall {
            token,
            remote_off,
            local,
            local_off,
            remote_len,
            copy_len,
            dir,
        };
        match self
            .fault_gate(Some(token.rank as usize), op, copy_len)
            .await
        {
            FaultDecision::Allow | FaultDecision::Delay { .. } => self.cma_call(call).await,
            FaultDecision::Fail(e) => {
                // The failed syscall still enters and exits the kernel; an
                // empty transfer charges exactly that.
                let empty = CmaCall {
                    remote_len: 0,
                    copy_len: 0,
                    ..call
                };
                self.cma_call(empty).await?;
                Err(e)
            }
            FaultDecision::Truncate { got } => {
                let got = got.min(copy_len);
                let short = CmaCall {
                    remote_len: got,
                    copy_len: got,
                    ..call
                };
                self.cma_call(short).await?;
                Err(CommError::Truncated {
                    wanted: copy_len,
                    got,
                })
            }
        }
    }

    /// One system call: hand it to the machine ([`crate::xfer`]), which
    /// steps it from the event loop, and come back for the return value.
    async fn cma_call(&mut self, call: CmaCall) -> Result<()> {
        let mut fresh = Some(call);
        sim_steps(move |s: &mut MachineState, me, w, now| {
            if let Some(call) = fresh.take() {
                debug_assert!(s.xfers[me].is_none(), "rank {me} is already in a call");
                s.xfers[me] = Some(Xfer::new(s, me, call, now));
            }
            step_xfer(s, me, w, now).map(|()| {
                let done = s.xfers[me].take();
                done.expect("the transfer stays resident until collected")
                    .into_result()
            })
        })
        .await
    }

    async fn shm_fallback_transfer(
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
        if self.node_of(peer) != self.node {
            return Err(CommError::Protocol(format!(
                "shared-memory fallback to rank {peer} crosses nodes ({} -> {})",
                self.node,
                self.node_of(peer)
            )));
        }
        let op = match dir {
            CmaDir::Read => FaultOp::FallbackRead,
            CmaDir::Write => FaultOp::FallbackWrite,
        };
        if let FaultDecision::Fail(e) = self.fault_gate(Some(peer), op, len).await {
            return Err(e);
        }
        let exposed_len =
            sim_with_state(|s: &mut MachineState, _| s.heaps[peer].exposed_len(token.token));
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
        sim_with_state(move |s: &mut MachineState, _| {
            s.stats[me].fallback_ops += 1;
            s.stats[me].fallback_bytes += len as u64;
        });
        let traced = self.tracer.on();
        let peak = self.peak_bw(peer);
        let inter = !self.topo.same_socket(self.local, self.local_of(peer));
        // First copy: peer's memory ↔ shared staging.
        let t0 = if traced { self.time_ns() } else { 0 };
        let w1 = self.copy_flow_routed(len, peak, inter).await as f64;
        if traced {
            self.tracer
                .span(Track::Rank(me), "copy", t0, w1, len as u64, None);
        }
        // Second copy: staging ↔ local buffer (same socket).
        let t1 = if traced { self.time_ns() } else { 0 };
        let w2 = self.copy_flow(len, self.bw_core).await as f64;
        if traced {
            self.tracer
                .span(Track::Rank(me), "copy", t1, w2, len as u64, None);
        }
        // Data plane (zeros onto zeros move nothing), with the same
        // refusal of a source freed in flight as the CMA path.
        let (remote, near) = ((peer, token.token, remote_off), (me, local.0, local_off));
        let (src, dst) = match dir {
            CmaDir::Read => (remote, near),
            CmaDir::Write => (near, remote),
        };
        sim_with_state(move |s: &mut MachineState, _| {
            s.heaps[src.0]
                .len_of(src.1)
                .ok_or_else(|| refusal(&s.exited, src.0))?;
            move_bytes(&mut s.heaps, src, dst, len);
            Ok(())
        })
    }

    /// Allocate `len` bytes on this rank's heap.
    pub fn alloc(&mut self, len: usize) -> BufId {
        let me = self.rank;
        BufId(sim_with_state(move |s: &mut MachineState, _| {
            s.heaps[me].alloc(len)
        }))
    }

    /// Free a buffer.
    pub fn free(&mut self, buf: BufId) -> Result<()> {
        let me = self.rank;
        if sim_with_state(move |s: &mut MachineState, _| s.heaps[me].free(buf.0)) {
            Ok(())
        } else {
            Err(CommError::InvalidBuffer(buf.0))
        }
    }

    /// Length of a local buffer.
    pub fn buf_len(&self, buf: BufId) -> Result<usize> {
        let me = self.rank;
        sim_with_state(move |s: &mut MachineState, _| s.heaps[me].len_of(buf.0))
            .ok_or(CommError::InvalidBuffer(buf.0))
    }

    /// Write into a local buffer (no virtual-time cost, as
    /// [`kacc_comm::Comm::write_local`]).
    pub fn write_local(&mut self, buf: BufId, off: usize, data: &[u8]) -> Result<()> {
        self.check_local(buf, off, data.len())?;
        let me = self.rank;
        sim_with_state(|s: &mut MachineState, _| {
            s.heaps[me].write(buf.0, off, data);
        });
        Ok(())
    }

    /// Read from a local buffer (no virtual-time cost).
    pub fn read_local(&self, buf: BufId, off: usize, out: &mut [u8]) -> Result<()> {
        self.check_local(buf, off, out.len())?;
        let me = self.rank;
        let ok = sim_with_state(|s: &mut MachineState, _| s.heaps[me].read(buf.0, off, out));
        debug_assert!(ok, "range checked above");
        Ok(())
    }

    /// Allocate and fill a buffer — the polled mirror of
    /// [`kacc_comm::CommExt::alloc_with`].
    pub fn alloc_with(&mut self, data: &[u8]) -> Result<BufId> {
        let me = self.rank;
        Ok(BufId(sim_with_state(|s: &mut MachineState, _| {
            s.heaps[me].alloc_from(data)
        })))
    }

    /// Read a whole buffer — the polled mirror of
    /// [`kacc_comm::CommExt::read_all`].
    pub fn read_all(&self, buf: BufId) -> Result<Vec<u8>> {
        let me = self.rank;
        sim_with_state(|s: &mut MachineState, _| {
            let heap = &s.heaps[me];
            heap.extract(buf.0, 0, heap.len_of(buf.0)?)
        })
        .ok_or(CommError::InvalidBuffer(buf.0))
    }

    /// Local memcpy charged to memory bandwidth.
    pub async fn copy_local(
        &mut self,
        src: BufId,
        src_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()> {
        self.check_local(src, src_off, len)?;
        self.check_local(dst, dst_off, len)?;
        let t0 = if self.tracer.on() { self.time_ns() } else { 0 };
        let wall = self.copy_flow(len, self.bw_core).await;
        self.tracer.span(
            Track::Rank(self.rank),
            "copy_local",
            t0,
            wall as f64,
            len as u64,
            None,
        );
        let me = self.rank;
        sim_with_state(move |s: &mut MachineState, _| {
            move_bytes(
                &mut s.heaps,
                (me, src.0, src_off),
                (me, dst.0, dst_off),
                len,
            );
        });
        Ok(())
    }

    /// Expose a buffer for kernel-assisted access.
    pub async fn expose(&mut self, buf: BufId) -> Result<RemoteToken> {
        if let FaultDecision::Fail(e) = self.fault_gate(None, FaultOp::Expose, 0).await {
            return Err(e);
        }
        let me = self.rank;
        if sim_with_state(move |s: &mut MachineState, _| s.heaps[me].expose(buf.0)) {
            Ok(RemoteToken {
                rank: me as u64,
                token: buf.0,
            })
        } else {
            Err(CommError::InvalidBuffer(buf.0))
        }
    }

    /// Kernel-assisted read (`process_vm_readv`).
    pub async fn cma_read(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()> {
        self.cma_transfer(token, remote_off, dst, dst_off, len, len, CmaDir::Read)
            .await
    }

    /// Kernel-assisted write (`process_vm_writev`).
    pub async fn cma_write(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        src: BufId,
        src_off: usize,
        len: usize,
    ) -> Result<()> {
        self.cma_transfer(token, remote_off, src, src_off, len, len, CmaDir::Write)
            .await
    }

    /// Small-message control-plane send.
    pub async fn ctrl_send(&mut self, to: usize, tag: Tag, data: &[u8]) -> Result<()> {
        if to >= self.nranks {
            return Err(CommError::BadRank(to));
        }
        if let FaultDecision::Fail(e) = self
            .fault_gate(Some(to), FaultOp::CtrlSend, data.len())
            .await
        {
            return Err(e);
        }
        let start = self.time_ns();
        // Sender-side occupancy: enqueue bookkeeping plus the copy of the
        // payload into the shared slot (or NIC doorbell + inline copy). It
        // delays only this rank's next operation, so it moves the rank's
        // horizon rather than parking it on a timer.
        let occupancy = (0.3 * self.sm_msg_ns + 0.5 * data.len() as f64 * self.sm_byte_ns) as u64;
        let latency = if self.node_of(to) == self.node {
            self.sm_msg_ns + data.len() as f64 * self.sm_byte_ns
        } else {
            self.net_alpha_ns + data.len() as f64 / self.net_bw
        };
        let arrival = start + latency as u64;
        let me = self.rank;
        // The closure is ready on its first evaluation, so the payload
        // moves into the mailbox instead of being cloned.
        let mut payload = data.to_vec();
        sim_poll("ctrl:send", move |s: &mut MachineState, w, _now| {
            let payload = std::mem::take(&mut payload);
            s.busy_until[me] = start + occupancy;
            s.mail.deposit(w, to, me, tag.0 as u64, arrival, payload);
            Poll::Ready(())
        })
        .await;
        if self.tracer.on() {
            self.tracer.span(
                Track::Rank(me),
                "ctrl_send",
                start,
                occupancy as f64,
                data.len() as u64,
                tag.class(),
            );
        }
        Ok(())
    }

    /// Small-message control-plane receive (blocking in virtual time).
    pub async fn ctrl_recv(&mut self, from: usize, tag: Tag) -> Result<Vec<u8>> {
        self.ctrl_recv_deadline(from, tag, None).await
    }

    /// Control-plane receive giving up after `timeout_ns` of virtual
    /// time (`None`: never) with [`CommError::Timeout`]; the abandoned
    /// wait leaves the mailbox, so a late message stays claimable.
    pub async fn ctrl_recv_deadline(
        &mut self,
        from: usize,
        tag: Tag,
        timeout_ns: Option<u64>,
    ) -> Result<Vec<u8>> {
        if from >= self.nranks {
            return Err(CommError::BadRank(from));
        }
        if let FaultDecision::Fail(e) = self.fault_gate(Some(from), FaultOp::CtrlRecv, 0).await {
            return Err(e);
        }
        let me = self.rank;
        let tid = sim_tid();
        let deadline = timeout_ns.map(|ns| self.time_ns().saturating_add(ns));
        let t0 = if self.tracer.on() { self.time_ns() } else { 0 };
        let payload = sim_poll("ctrl:recv", move |s: &mut MachineState, _w, now| {
            let key = tag.0 as u64;
            let got = s.mail.take_after(tid, me, from, key, now, s.busy_until[me]);
            until(got, deadline, now, || s.mail.unregister(me, from, key, tid))
        })
        .await;
        if self.tracer.on() {
            let dur = (self.time_ns() - t0) as f64;
            let bytes = payload.as_ref().map_or(0, Vec::len) as u64;
            self.tracer
                .span(Track::Rank(me), "ctrl_recv", t0, dur, bytes, tag.class());
        }
        payload.ok_or(CommError::Timeout {
            waited_ns: timeout_ns.unwrap_or_default(),
        })
    }

    /// 0-byte notification — the polled mirror of
    /// [`kacc_comm::CommExt::notify`].
    pub async fn notify(&mut self, to: usize, tag: Tag) -> Result<()> {
        self.ctrl_send(to, tag, &[]).await
    }

    /// Wait for a 0-byte notification — the polled mirror of
    /// [`kacc_comm::CommExt::wait_notify`].
    pub async fn wait_notify(&mut self, from: usize, tag: Tag) -> Result<()> {
        let msg = self.ctrl_recv(from, tag).await?;
        if !msg.is_empty() {
            return Err(CommError::Protocol(format!(
                "expected 0-byte notification from rank {from}, got {} bytes",
                msg.len()
            )));
        }
        Ok(())
    }

    /// Bulk shared-memory send.
    pub async fn shm_send_data(
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
        if let FaultDecision::Fail(e) = self.fault_gate(Some(to), FaultOp::ShmSend, len).await {
            return Err(e);
        }
        self.check_local(src, off, len)?;
        let t0 = if self.tracer.on() { self.time_ns() } else { 0 };
        let cross_node = self.node_of(to) != self.node;
        if cross_node {
            let node = self.node;
            self.flow_via(len, self.net_bw, move |s| {
                &mut s.net.as_mut().expect("fabric present").egress[node]
            })
            .await;
        } else {
            // First copy: local buffer → shared staging.
            self.copy_flow(len, self.bw_core).await;
        }
        let me = self.rank;
        let arrival = self.time_ns()
            + if cross_node {
                self.net_alpha_ns as u64
            } else {
                self.sm_msg_ns as u64
            };
        sim_poll("shm:post", move |s: &mut MachineState, w, _now| {
            s.stats[me].shm_ops += 1;
            s.stats[me].shm_bytes += len as u64;
            // The message is the region as it is once the copy is paid
            // for: its bytes, or the length of a region nobody wrote.
            let payload = s.heaps[me]
                .copy_out(src.0, off, len)
                .expect("range checked above");
            s.bulk.deposit(w, to, me, tag.0 as u64, arrival, payload);
            Poll::Ready(())
        })
        .await;
        if self.tracer.on() {
            let dur = (self.time_ns() - t0) as f64;
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

    /// Bulk shared-memory receive giving up after `timeout_ns` of
    /// virtual time (`None`: never) with [`CommError::Timeout`], before
    /// anything lands in `dst`.
    #[allow(clippy::too_many_arguments)]
    pub async fn shm_recv_deadline(
        &mut self,
        from: usize,
        tag: Tag,
        dst: BufId,
        off: usize,
        len: usize,
        timeout_ns: Option<u64>,
    ) -> Result<()> {
        if from >= self.nranks {
            return Err(CommError::BadRank(from));
        }
        if let FaultDecision::Fail(e) = self.fault_gate(Some(from), FaultOp::ShmRecv, len).await {
            return Err(e);
        }
        self.check_local(dst, off, len)?;
        let me = self.rank;
        let tid = sim_tid();
        let deadline = timeout_ns.map(|ns| self.time_ns().saturating_add(ns));
        let t0 = if self.tracer.on() { self.time_ns() } else { 0 };
        let payload = sim_poll("shm:wait", move |s: &mut MachineState, _w, now| {
            let key = tag.0 as u64;
            let got = s.bulk.take_after(tid, me, from, key, now, s.busy_until[me]);
            until(got, deadline, now, || s.bulk.unregister(me, from, key, tid))
        })
        .await;
        let Some(payload) = payload else {
            return Err(CommError::Timeout {
                waited_ns: timeout_ns.unwrap_or_default(),
            });
        };
        if payload.len() != len {
            return Err(CommError::Truncated {
                wanted: len,
                got: payload.len(),
            });
        }
        if self.node_of(from) != self.node {
            let node = self.node;
            self.flow_via(len, self.net_bw, move |s| {
                &mut s.net.as_mut().expect("fabric present").ingress[node]
            })
            .await;
        } else {
            let peak = self.peak_bw(from);
            let inter = !self.topo.same_socket(self.local, self.local_of(from));
            self.copy_flow_routed(len, peak, inter).await;
        }
        let landed =
            sim_with_state(|s: &mut MachineState, _| s.heaps[me].copy_in(dst.0, off, &payload));
        debug_assert!(landed, "range checked before the wait");
        if self.tracer.on() {
            let dur = (self.time_ns() - t0) as f64;
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

    /// Charge `ns` of virtual time (retry backoff etc.), counted from the
    /// rank's own clock.
    pub async fn sleep_ns(&mut self, ns: u64) {
        let lag = self.time_ns() - sim_now::<MachineState>();
        sim_advance::<MachineState>(lag + ns).await;
    }

    /// Two-copy fallback read — see
    /// [`kacc_comm::Comm::shm_fallback_read`].
    pub async fn shm_fallback_read(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()> {
        self.shm_fallback_transfer(token, remote_off, dst, dst_off, len, CmaDir::Read)
            .await
    }

    /// Two-copy fallback write — see
    /// [`kacc_comm::Comm::shm_fallback_write`].
    pub async fn shm_fallback_write(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        src: BufId,
        src_off: usize,
        len: usize,
    ) -> Result<()> {
        self.shm_fallback_transfer(token, remote_off, src, src_off, len, CmaDir::Write)
            .await
    }
}

/// One poll of a mailbox wait under an optional virtual-time `deadline`.
/// Without one, `got` passes through untouched — the same wakes as an
/// unbounded wait. With one, a wait at or past it gives up (`give_up`
/// withdraws the waiter so a late message stays claimable) and an earlier
/// wait also wakes at the deadline.
fn until<T>(
    got: Poll<T>,
    deadline: Option<u64>,
    now: u64,
    give_up: impl FnOnce(),
) -> Poll<Option<T>> {
    match (got, deadline) {
        (Poll::Ready(p), _) => Poll::Ready(Some(p)),
        (Poll::Wait { wake_at }, None) => Poll::Wait { wake_at },
        (Poll::Wait { .. }, Some(d)) if now >= d => {
            give_up();
            Poll::Ready(None)
        }
        (Poll::Wait { wake_at }, Some(d)) => Poll::Wait {
            wake_at: Some(wake_at.map_or(d, |a| a.min(d))),
        },
    }
}

/// `fn name(&mut self, args..) -> impl Future<Output = T>` handing back
/// the inherent method's future, one line per async trait method.
macro_rules! forward_async {
    ($($name:ident($($arg:ident: $ty:ty),*) -> $out:ty;)*) => {$(
        fn $name(&mut self, $($arg: $ty),*) -> impl Future<Output = $out> {
            PolledComm::$name(self, $($arg),*)
        }
    )*};
}

/// The polled endpoint is a native [`AsyncComm`]: every trait method
/// hands back the inherent method's future unchanged, so generic bodies
/// (executor, membership loop, library personas) instantiated over
/// `PolledComm` compile to the same state machines a hand-written
/// polled body would.
impl AsyncComm for PolledComm {
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
        PolledComm::node_of(self, rank)
    }

    fn alloc(&mut self, len: usize) -> BufId {
        PolledComm::alloc(self, len)
    }

    fn free(&mut self, buf: BufId) -> Result<()> {
        PolledComm::free(self, buf)
    }

    fn buf_len(&self, buf: BufId) -> Result<usize> {
        PolledComm::buf_len(self, buf)
    }

    fn write_local(&mut self, buf: BufId, off: usize, data: &[u8]) -> Result<()> {
        PolledComm::write_local(self, buf, off, data)
    }

    fn read_local(&self, buf: BufId, off: usize, out: &mut [u8]) -> Result<()> {
        PolledComm::read_local(self, buf, off, out)
    }

    fn time_ns(&self) -> u64 {
        PolledComm::time_ns(self)
    }

    fn tracer(&self) -> Tracer {
        PolledComm::tracer(self)
    }

    forward_async! {
        copy_local(src: BufId, src_off: usize, dst: BufId, dst_off: usize, len: usize) -> Result<()>;
        expose(buf: BufId) -> Result<RemoteToken>;
        cma_read(token: RemoteToken, remote_off: usize, dst: BufId, dst_off: usize, len: usize) -> Result<()>;
        cma_write(token: RemoteToken, remote_off: usize, src: BufId, src_off: usize, len: usize) -> Result<()>;
        ctrl_send(to: usize, tag: Tag, data: &[u8]) -> Result<()>;
        ctrl_recv_deadline(from: usize, tag: Tag, timeout_ns: Option<u64>) -> Result<Vec<u8>>;
        sleep_ns(ns: u64) -> ();
        shm_send_data(to: usize, tag: Tag, src: BufId, off: usize, len: usize) -> Result<()>;
        shm_recv_deadline(from: usize, tag: Tag, dst: BufId, off: usize, len: usize, timeout_ns: Option<u64>) -> Result<()>;
        shm_fallback_read(token: RemoteToken, remote_off: usize, dst: BufId, dst_off: usize, len: usize) -> Result<()>;
        shm_fallback_write(token: RemoteToken, remote_off: usize, src: BufId, src_off: usize, len: usize) -> Result<()>;
    }
}

/// Dissemination barrier over the control plane:
/// [`kacc_comm::smcoll::sm_barrier`] on this endpoint.
pub async fn sm_barrier_polled(comm: &mut PolledComm) -> Result<()> {
    kacc_comm::smcoll::sm_barrier(comm).await
}

// ---------------------------------------------------------------------
// Harness: run one async body per rank on the polled engine.
// ---------------------------------------------------------------------

/// Run `f` on every rank of a simulated `nranks`-process node and return
/// the timing report plus each rank's result (indexed by rank). `f`
/// receives the rank and returns the rank's async body; the body should
/// construct its endpoint with [`PolledComm::new`]. Virtual time is a
/// deterministic function of (arch, nranks, f).
pub fn run_polled_team<R, F, Fut>(arch: &ArchProfile, nranks: usize, f: F) -> (TeamRun, Vec<R>)
where
    F: Fn(usize) -> Fut + 'static,
    Fut: Future<Output = R> + 'static,
    R: 'static,
{
    let (run, results, _) =
        run_polled_machine_full(MachineState::new(arch.clone(), nranks), false, true, f);
    (run, results)
}

/// [`run_polled_team`] under its former name, kept only because the
/// benchmark package imports it: a team that never writes its buffers
/// allocates none of them on any heap.
pub fn run_polled_team_phantom<R, F, Fut>(
    arch: &ArchProfile,
    nranks: usize,
    f: F,
) -> (TeamRun, Vec<R>)
where
    F: Fn(usize) -> Fut + 'static,
    Fut: Future<Output = R> + 'static,
    R: 'static,
{
    run_polled_team(arch, nranks, f)
}

/// [`run_polled_team`] with tracing enabled: additionally returns the
/// full structured event stream — scheduler dispatches, copy-path phase
/// spans (syscall/check/lock/pin/copy), transport spans with tag-class
/// attribution, and lock-server queue-depth counters. Export with
/// [`kacc_trace::chrome_trace_json`] for a Perfetto timeline or aggregate
/// with [`kacc_trace::Breakdown`] for the Fig 2–4 tables.
pub fn run_polled_team_traced<R, F, Fut>(
    arch: &ArchProfile,
    nranks: usize,
    f: F,
) -> (TeamRun, Vec<R>, Vec<Event>)
where
    F: Fn(usize) -> Fut + 'static,
    Fut: Future<Output = R> + 'static,
    R: 'static,
{
    run_polled_machine_full(MachineState::new(arch.clone(), nranks), true, true, f)
}

/// [`run_polled_team`] with a fault injector installed: every transport
/// operation consults `hook` before executing. With `FaultHook::off()`
/// the run is bitwise-identical to [`run_polled_team`].
pub fn run_polled_team_faulty<R, F, Fut>(
    arch: &ArchProfile,
    nranks: usize,
    hook: FaultHook,
    f: F,
) -> (TeamRun, Vec<R>)
where
    F: Fn(usize) -> Fut + 'static,
    Fut: Future<Output = R> + 'static,
    R: 'static,
{
    let mut state = MachineState::new(arch.clone(), nranks);
    state.fault = hook;
    let (run, results, _) = run_polled_machine_full(state, false, true, f);
    (run, results)
}

/// [`run_polled_team_faulty`] with tracing enabled, for observing
/// `fault:*` / `retry:*` / `fallback:*` recovery spans alongside the
/// machine phases.
pub fn run_polled_team_faulty_traced<R, F, Fut>(
    arch: &ArchProfile,
    nranks: usize,
    hook: FaultHook,
    f: F,
) -> (TeamRun, Vec<R>, Vec<Event>)
where
    F: Fn(usize) -> Fut + 'static,
    Fut: Future<Output = R> + 'static,
    R: 'static,
{
    let mut state = MachineState::new(arch.clone(), nranks);
    state.fault = hook;
    run_polled_machine_full(state, true, true, f)
}

/// Run `f` on every rank of a simulated cluster of `nodes` identical
/// nodes with `ranks_per_node` processes each (see
/// [`MachineState::cluster`] for the rank placement).
pub fn run_polled_cluster<R, F, Fut>(
    arch: &ArchProfile,
    nodes: usize,
    ranks_per_node: usize,
    fabric: FabricParams,
    f: F,
) -> (TeamRun, Vec<R>)
where
    F: Fn(usize) -> Fut + 'static,
    Fut: Future<Output = R> + 'static,
    R: 'static,
{
    let (run, results, _) = run_polled_machine_full(
        MachineState::cluster(arch.clone(), nodes, ranks_per_node, Some(fabric)),
        false,
        true,
        f,
    );
    (run, results)
}

/// The harness every variant above calls: `state` as built, with or
/// without a trace and the kernel's direct-handoff fast path. One
/// buffered tracer is shared by the scheduler and the machine model, so
/// all layers land in a single correlated event stream; one task runs
/// per rank. The fast path off routes every wake through the event
/// queue — the reference `fastpath_equivalence` checks the default
/// against.
pub fn run_polled_machine_full<R, F, Fut>(
    mut state: MachineState,
    trace: bool,
    fast_path: bool,
    f: F,
) -> (TeamRun, Vec<R>, Vec<Event>)
where
    F: Fn(usize) -> Fut + 'static,
    Fut: Future<Output = R> + 'static,
    R: 'static,
{
    let capture = trace.then(|| {
        let (tracer, buf) = Tracer::buffered();
        state.tracer = tracer.clone();
        (tracer, buf)
    });
    let nranks = state.nranks;
    let mut sim = PolledSim::new(state);
    sim.set_step_hook(step_xfer);
    sim.set_fast_path(fast_path);
    if let Some((tracer, _)) = &capture {
        sim.set_tracer(tracer.clone());
    }
    let f = Rc::new(f);
    let results: Rc<RefCell<Vec<Option<R>>>> =
        Rc::new(RefCell::new((0..nranks).map(|_| None).collect()));
    for rank in 0..nranks {
        let f = Rc::clone(&f);
        let results = Rc::clone(&results);
        sim.spawn(move |tid| async move {
            debug_assert_eq!(tid, rank, "tasks spawn in rank order");
            let r = f(rank).await;
            sim_with_state(|s: &mut MachineState, _| s.exited[rank] = true);
            debug_assert!(
                !sim_with_state(|s: &mut MachineState, _| s.owns_live_flow(rank)),
                "rank {rank} finished while it owns a live flow"
            );
            debug_assert!(
                sim_with_state(|s: &mut MachineState, _| s.xfers[rank].is_none()),
                "rank {rank} finished inside a kernel-assisted transfer"
            );
            results.borrow_mut()[rank] = Some(r);
        });
    }
    let report = sim.run();
    let trace = capture.map(|(_, buf)| buf.take()).unwrap_or_default();
    let st = report.state;
    // A rank whose last operation was a send ends at its horizon, with no
    // event of its own there.
    let finish_ns: Vec<u64> = report
        .finish_times
        .iter()
        .zip(&st.busy_until)
        .map(|(&done, &busy)| done.max(busy))
        .collect();
    let end_ns = finish_ns.iter().copied().fold(report.end_time, u64::max);
    let run = crate::team::finish_team_run(&st, end_ns, finish_ns, report.events, report.metrics);
    let results = Rc::try_unwrap(results)
        .unwrap_or_else(|_| panic!("rank tasks done"))
        .into_inner();
    (
        run,
        results
            .into_iter()
            .map(|r| r.expect("every rank returned"))
            .collect(),
        trace,
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::state::Buf;

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rank 1 finished while it owns a live flow")]
    fn finishing_with_a_live_flow_is_caught() {
        run_polled_team(&ArchProfile::broadwell(), 2, |rank| async move {
            if rank == 1 {
                sim_with_state(|s: &mut MachineState, now| {
                    s.mems[0].update(now);
                    s.mems[0].add(1, 4096, 1.0);
                });
            }
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rank 1 finished inside a kernel-assisted transfer")]
    fn finishing_inside_a_transfer_is_caught() {
        run_polled_team(&ArchProfile::broadwell(), 2, |rank| async move {
            if rank == 1 {
                sim_with_state(|s: &mut MachineState, now| {
                    let call = CmaCall {
                        token: RemoteToken { rank: 0, token: 0 },
                        remote_off: 0,
                        local: BufId(0),
                        local_off: 0,
                        remote_len: 4096,
                        copy_len: 4096,
                        dir: CmaDir::Read,
                    };
                    s.xfers[1] = Some(Xfer::new(s, 1, call, now));
                });
            }
        });
    }

    /// 64-bit FNV-1a.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// `run` against the clocks and event count, and the digest of the
    /// whole report, that the thread kernel produced for the same program
    /// (these tests compared the two engines while both existed). The
    /// event counts and digests were refreshed once since, when a control
    /// send stopped costing its sender an event; only the event and queue
    /// counters of the report moved. The digest is of [`pinned_record`].
    fn assert_run(
        (run, trace): (&TeamRun, &[Event]),
        end_ns: u64,
        finish_ns: &[u64],
        events: u64,
        whole: u64,
    ) {
        assert_eq!(
            (run.end_ns, &run.finish_ns[..], run.events),
            (end_ns, finish_ns, events)
        );
        let record = pinned_record(run, trace);
        assert_eq!(fnv(record.as_bytes()), whole, "{record}");
    }

    /// `run` as `{run:?}` printed it when the digests were taken: each
    /// rank's `RankStats` then also carried its phase times — the sums,
    /// in emission order, of its phase spans in the run's `trace` — and
    /// the shared-memory counts sat in one machine-wide
    /// `TransportCounters` after `mem_recaches`.
    fn pinned_record(run: &TeamRun, trace: &[Event]) -> String {
        let stats: Vec<String> = (run.stats.iter().enumerate())
            .map(|(r, s)| {
                let [sys, chk, lock, pin, copy] =
                    ["syscall", "check", "lock", "pin", "copy"].map(|phase| {
                        (trace.iter())
                            .filter(|e| e.track == Track::Rank(r) && e.name == phase)
                            .fold(0.0, |sum, e| match e.kind {
                                kacc_trace::EventKind::Span { dur, .. } => sum + dur,
                                _ => sum,
                            })
                    });
                format!(
                    "RankStats {{ syscall_ns: {sys:?}, check_ns: {chk:?}, lock_ns: {lock:?}, \
                     pin_ns: {pin:?}, copy_ns: {copy:?}, cma_ops: {}, bytes_read: {}, \
                     bytes_written: {} }}",
                    s.cma_ops, s.bytes_read, s.bytes_written
                )
            })
            .collect();
        let t = run.total_stats();
        format!(
            "TeamRun {{ end_ns: {}, finish_ns: {:?}, stats: [{}], mem_peak_concurrency: {:?}, \
             lock_peak_concurrency: {:?}, mail_pending: {}, events: {}, sim: {:?}, \
             lock_depth: {:?}, lock_recaches: {}, mem_recaches: {}, transport: \
             TransportCounters {{ shm_ops: {}, shm_bytes: {}, fallback_ops: {}, \
             fallback_bytes: {} }} }}",
            run.end_ns,
            run.finish_ns,
            stats.join(", "),
            run.mem_peak_concurrency,
            run.lock_peak_concurrency,
            run.mail_pending,
            run.events,
            run.sim,
            run.lock_depth,
            run.lock_recaches,
            run.mem_recaches,
            t.shm_ops,
            t.shm_bytes,
            t.fallback_ops,
            t.fallback_bytes
        )
    }

    /// The team-harness smoke program: a two-rank CMA read.
    #[test]
    fn cma_read_matches_threads_engine() {
        let arch = ArchProfile::broadwell();
        let (run, results, trace) = run_polled_team_traced(&arch, 2, |rank| async move {
            let mut comm = PolledComm::new(rank);
            if rank == 0 {
                let buf = comm.alloc(8192);
                comm.write_local(buf, 0, &[0xAB; 8192]).unwrap();
                let tok = comm.expose(buf).await.unwrap();
                comm.ctrl_send(1, Tag::user(1), &tok.to_bytes())
                    .await
                    .unwrap();
                comm.wait_notify(1, Tag::user(2)).await.unwrap();
                Vec::new()
            } else {
                let raw = comm.ctrl_recv(0, Tag::user(1)).await.unwrap();
                let tok = RemoteToken::from_bytes(&raw).unwrap();
                let dst = comm.alloc(8192);
                comm.cma_read(tok, 0, dst, 0, 8192).await.unwrap();
                comm.notify(0, Tag::user(2)).await.unwrap();
                comm.read_all(dst).unwrap()
            }
        });
        assert_eq!(results, [Vec::new(), vec![0xAB; 8192]]);
        assert_run(
            (&run, &trace),
            4448,
            &[4448, 4238],
            7,
            0x86f4_f79a_2bea_9953,
        );
    }

    #[test]
    fn contended_one_to_all_matches_threads_engine_traced() {
        // Many readers on one exposed buffer: lock-server contention,
        // fluid-server wake storms, and tracing all active at once.
        let arch = ArchProfile::knl();
        let eta = 16 * 1024;
        let readers = 6usize;
        let (run, durs, trace) =
            run_polled_team_traced(&arch, readers + 1, move |rank| async move {
                let mut comm = PolledComm::new(rank);
                if rank == 0 {
                    let buf = comm.alloc(eta * readers);
                    let tok = comm.expose(buf).await.unwrap();
                    for r in 1..=readers {
                        comm.ctrl_send(r, Tag::user(1), &tok.to_bytes())
                            .await
                            .unwrap();
                    }
                    for r in 1..=readers {
                        comm.wait_notify(r, Tag::user(2)).await.unwrap();
                    }
                    0u64
                } else {
                    let raw = comm.ctrl_recv(0, Tag::user(1)).await.unwrap();
                    let tok = RemoteToken::from_bytes(&raw).unwrap();
                    let dst = comm.alloc(eta);
                    let t0 = comm.time_ns();
                    comm.cma_read(tok, (rank - 1) * eta, dst, 0, eta)
                        .await
                        .unwrap();
                    let d = comm.time_ns() - t0;
                    comm.notify(0, Tag::user(2)).await.unwrap();
                    d
                }
            });
        assert_eq!(durs, [0, 12950, 14061, 14313, 14313, 14207, 14049]);
        let finish = [16178, 13739, 15034, 15470, 15654, 15732, 15758];
        assert_run((&run, &trace), 16178, &finish, 38, 0xfbcb_5031_3418_dbb6);
        let json = kacc_trace::chrome_trace_json(&trace);
        assert_eq!(
            fnv(json.as_bytes()),
            0x4fa8_f9e8_6a4c_def0,
            "the event stream moved"
        );
    }

    #[test]
    fn barrier_matches_threads_engine() {
        let arch = ArchProfile::broadwell();
        let (run, _, trace) = run_polled_team_traced(&arch, 8, |rank| async move {
            let mut comm = PolledComm::new(rank);
            sm_barrier_polled(&mut comm).await.unwrap();
            comm.time_ns()
        });
        assert_run((&run, &trace), 900, &[900; 8], 32, 0xfc82_2b65_51e8_e2a0);
    }

    #[test]
    fn cross_node_shm_send_matches_threads_engine() {
        let arch = ArchProfile::broadwell();
        let fabric = arch.default_fabric();
        let cluster = MachineState::cluster(arch, 2, 2, Some(fabric));
        let (run, res, trace) = run_polled_machine_full(cluster, true, true, |rank| async move {
            let mut comm = PolledComm::new(rank);
            let me = comm.rank();
            let p = comm.size();
            let buf = comm.alloc(4096);
            comm.write_local(buf, 0, &[me as u8; 4096]).unwrap();
            let dst = comm.alloc(4096);
            let peer = (me + p / 2) % p;
            if me < p / 2 {
                comm.shm_send_data(peer, Tag::user(3), buf, 0, 4096)
                    .await
                    .unwrap();
                comm.shm_recv_data(peer, Tag::user(4), dst, 0, 4096)
                    .await
                    .unwrap();
            } else {
                comm.shm_recv_data(peer, Tag::user(3), dst, 0, 4096)
                    .await
                    .unwrap();
                comm.shm_send_data(peer, Tag::user(4), buf, 0, 4096)
                    .await
                    .unwrap();
            }
            comm.read_all(dst).unwrap()[0]
        });
        assert_eq!(res, [2, 3, 0, 1]);
        assert_run(
            (&run, &trace),
            5624,
            &[5624, 5624, 3468, 3468],
            20,
            0x853d_fe8b_b9e3_d572,
        );
    }

    // ---- the bulk message plane, on written and on unwritten heaps ----

    /// Byte the written runs of [`on_both_heaps`] fill their buffers with.
    const FILL: u8 = 0xA5;

    /// Run `f(rank, fill)` on a `nodes × rpn` Broadwell cluster twice:
    /// with buffers filled with [`FILL`] (written), and with zeros (never
    /// allocated). Virtual time must not tell the two apart.
    fn on_both_heaps<R, F, Fut>(nodes: usize, rpn: usize, f: F) -> [(TeamRun, Vec<R>); 2]
    where
        F: Fn(usize, u8) -> Fut + Clone + 'static,
        Fut: Future<Output = R> + 'static,
        R: 'static,
    {
        [FILL, 0].map(|fill| {
            let arch = ArchProfile::broadwell();
            let fabric = (nodes > 1).then(|| arch.default_fabric());
            let state = MachineState::cluster(arch, nodes, rpn, fabric);
            let f = f.clone();
            let (run, results, _) =
                run_polled_machine_full(state, false, true, move |rank| f(rank, fill));
            (run, results)
        })
    }

    /// The message as it sits on the plane: taken straight off the
    /// mailbox, no receive-side copy.
    fn intercept(to: usize, from: usize, tag: Tag) -> Buf {
        let tid = sim_tid();
        sim_with_state(|s: &mut MachineState, now| {
            match s.bulk.take(tid, to, from, tag.0 as u64, now) {
                Poll::Ready(msg) => msg,
                Poll::Wait { wake_at } => panic!("no message yet (due {wake_at:?})"),
            }
        })
    }

    #[test]
    fn a_zero_message_is_a_length_and_a_written_one_its_bytes() {
        const LEN: usize = 1 << 20;
        let [(real_run, real), (zero_run, zero)] = on_both_heaps(1, 2, |rank, fill| async move {
            let comm = &mut PolledComm::new(rank);
            let buf = comm.alloc_with(&vec![fill; LEN + 8]).unwrap();
            if rank == 0 {
                for tag in [1, 2] {
                    comm.shm_send_data(1, Tag::user(tag), buf, 8, LEN)
                        .await
                        .unwrap();
                }
                comm.wait_notify(1, Tag::user(3)).await.unwrap();
                None
            } else {
                comm.sleep_ns(10_000_000).await;
                let in_flight = intercept(1, 0, Tag::user(1));
                let dst = comm.alloc(LEN);
                comm.shm_recv_data(0, Tag::user(2), dst, 0, LEN)
                    .await
                    .unwrap();
                comm.notify(0, Tag::user(3)).await.unwrap();
                let me = comm.rank();
                let landed = sim_with_state(|s: &mut MachineState, _| {
                    s.heaps[me].copy_out(dst.0, 0, LEN).unwrap()
                });
                Some((in_flight, landed))
            }
        });
        let bytes = || Buf::Real(vec![FILL; LEN]);
        assert_eq!(real[1], Some((bytes(), bytes())));
        assert_eq!(zero[1], Some((Buf::Zeros(LEN), Buf::Zeros(LEN))));
        assert_eq!(real_run, zero_run, "the data is invisible in time");
        assert_eq!(
            (real_run.stats[0].shm_ops, real_run.stats[0].shm_bytes),
            (2, 2 * LEN as u64)
        );
        assert_eq!(real_run.mail_pending, 0);
    }

    #[test]
    fn a_length_mismatch_is_truncated_on_both_heaps() {
        let [(real_run, real), (zero_run, zero)] = on_both_heaps(1, 2, |rank, fill| async move {
            let comm = &mut PolledComm::new(rank);
            let buf = comm.alloc_with(&vec![fill; 4096]).unwrap();
            if rank == 0 {
                comm.shm_send_data(1, Tag::user(1), buf, 0, 100)
                    .await
                    .unwrap();
                comm.shm_send_data(1, Tag::user(2), buf, 0, 100)
                    .await
                    .unwrap();
                Vec::new()
            } else {
                let short = comm.shm_recv_data(0, Tag::user(1), buf, 0, 64).await;
                let t_short = comm.time_ns();
                let long = comm
                    .shm_recv_deadline(0, Tag::user(2), buf, 0, 4096, Some(1_000_000))
                    .await;
                vec![(short, t_short), (long, comm.time_ns())]
            }
        });
        let want = |wanted| Err(CommError::Truncated { wanted, got: 100 });
        assert_eq!(real[1][0].0, want(64));
        assert_eq!(real[1][1].0, want(4096));
        assert_eq!(real, zero, "same errors at the same virtual times");
        assert_eq!(real_run, zero_run);
        // The refused messages were consumed, and the receiver was charged
        // no copy: it fails the moment the second message arrives.
        assert_eq!(real_run.mail_pending, 0);
        let arrival = real_run.finish_ns[0] + ArchProfile::broadwell().sm_msg_ns as u64;
        assert_eq!(real[1][1].1, arrival);
    }

    #[test]
    fn an_expired_bulk_deadline_times_out_and_leaves_no_waiter() {
        let [(real_run, real), (zero_run, zero)] = on_both_heaps(1, 2, |rank, fill| async move {
            if rank == 0 {
                return None;
            }
            let comm = &mut PolledComm::new(rank);
            let dst = comm.alloc_with(&[fill; 64]).unwrap();
            let got = comm
                .shm_recv_deadline(0, Tag::user(1), dst, 0, 64, Some(700))
                .await;
            let expired_at = comm.time_ns();
            // A second receiver may claim the key (a leftover registration
            // would trip the two-waiters assertion), and once it withdraws
            // too the channel is gone.
            let channels = sim_with_state(|s: &mut MachineState, now| {
                let key = Tag::user(1).0 as u64;
                assert!(matches!(
                    s.bulk.take(99, 1, 0, key, now),
                    Poll::Wait { wake_at: None }
                ));
                s.bulk.unregister(1, 0, key, 99);
                (s.bulk.deposited, s.bulk.pending())
            });
            Some((got, expired_at, channels))
        });
        let expired = Err(CommError::Timeout { waited_ns: 700 });
        assert_eq!(real[1], Some((expired, 700, (0, 0))));
        assert_eq!(real, zero);
        assert_eq!(real_run, zero_run);
    }

    #[test]
    fn a_cross_node_message_rides_the_fabric_servers() {
        const LEN: usize = 256 << 10;
        let [(real_run, real), (zero_run, zero)] = on_both_heaps(2, 2, |rank, fill| async move {
            let comm = &mut PolledComm::new(rank);
            match rank {
                1 => {
                    let src = comm.alloc_with(&vec![fill; LEN]).unwrap();
                    comm.shm_send_data(2, Tag::user(1), src, 0, LEN)
                        .await
                        .unwrap();
                    (comm.time_ns(), Vec::new())
                }
                2 => {
                    let dst = comm.alloc(LEN);
                    let got = comm
                        .shm_recv_deadline(1, Tag::user(1), dst, 0, LEN, Some(u64::MAX / 2))
                        .await;
                    assert_eq!(got, Ok(()));
                    (comm.time_ns(), comm.read_all(dst).unwrap())
                }
                _ => (0, Vec::new()),
            }
        });
        assert_eq!(real[2].1, vec![FILL; LEN]);
        assert_eq!(zero[2].1, vec![0; LEN]);
        assert_eq!(real_run, zero_run);
        // Egress link, the fabric's latency, ingress link — and no node's
        // memory system.
        let fabric = ArchProfile::broadwell().default_fabric();
        let wire = (LEN as f64 / fabric.bw_link).ceil() as u64;
        let (sent, received) = (real[1].0, real[2].0);
        assert!(sent >= wire && sent <= wire + 2, "egress: {sent} vs {wire}");
        let floor = sent + fabric.alpha_ns as u64 + wire;
        assert!(
            received >= floor && received <= floor + 2,
            "ingress: {received} vs {floor}"
        );
        assert_eq!(real_run.mem_peak_concurrency, vec![0, 0]);
        assert!(real_run.mem_recaches > 0, "the link servers did the work");
    }

    /// Buffers materialized on this thread so far.
    fn materialized() -> usize {
        crate::state::MATERIALIZED.with(|n| n.get())
    }

    /// A team that never writes its buffers moves any volume through
    /// every data path without allocating a byte of it.
    #[test]
    fn a_team_that_writes_nothing_allocates_nothing() {
        const P: usize = 16;
        const LEN: usize = 1 << 20;
        const ROUNDS: usize = 22;
        let n0 = materialized();
        let (run, moved) = run_polled_team(&ArchProfile::broadwell(), P, |rank| async move {
            let comm = &mut PolledComm::new(rank);
            let (next, prev) = ((rank + 1) % P, (rank + P - 1) % P);
            let [src, dst, tmp] = [0; 3].map(|_| comm.alloc(LEN));
            let tok = comm.expose(src).await.unwrap();
            comm.ctrl_send(prev, Tag::user(1), &tok.to_bytes())
                .await
                .unwrap();
            let raw = comm.ctrl_recv(next, Tag::user(1)).await.unwrap();
            let peer = RemoteToken::from_bytes(&raw).unwrap();
            for _ in 0..ROUNDS {
                comm.cma_read(peer, 0, dst, 0, LEN).await.unwrap();
                comm.shm_send_data(next, Tag::user(2), dst, 0, LEN)
                    .await
                    .unwrap();
                comm.shm_recv_data(prev, Tag::user(2), tmp, 0, LEN)
                    .await
                    .unwrap();
                comm.copy_local(tmp, 0, src, 0, LEN).await.unwrap();
            }
            sm_barrier_polled(comm).await.unwrap();
            3 * ROUNDS * LEN
        });
        assert!(moved.iter().sum::<usize>() >= 1 << 30);
        let cma: u64 = run.stats.iter().map(|s| s.bytes_read).sum();
        let shm: u64 = run.stats.iter().map(|s| s.shm_bytes).sum();
        let each = (P * ROUNDS * LEN) as u64;
        assert_eq!((cma, shm), (each, each));
        assert_eq!(materialized() - n0, 0, "no buffer was allocated");
        // The count sees the simulated team: one written byte builds one.
        run_polled_team(&ArchProfile::broadwell(), 1, |rank| async move {
            PolledComm::new(rank).alloc_with(&[1]).unwrap();
        });
        assert_eq!(materialized() - n0, 1);
    }

    #[test]
    fn a_fallback_source_freed_between_the_copies_is_refused() {
        const LEN: usize = 1 << 20;
        let read = |free_after: Option<u64>, exits: bool| {
            on_both_heaps(1, 2, move |rank, fill| async move {
                let comm = &mut PolledComm::new(rank);
                let buf = if rank == 0 {
                    let buf = comm.alloc_with(&vec![fill; LEN]).unwrap();
                    comm.expose(buf).await.unwrap();
                    buf
                } else {
                    comm.alloc(LEN)
                };
                sm_barrier_polled(comm).await.unwrap();
                if rank == 0 {
                    if let Some(dt) = free_after {
                        comm.sleep_ns(dt).await;
                        comm.free(buf).unwrap();
                    }
                    if !exits {
                        // Outlive the read.
                        comm.sleep_ns(1 << 30).await;
                    }
                    return None;
                }
                let t0 = comm.time_ns();
                let src = RemoteToken { rank: 0, token: 0 };
                let r = comm.shm_fallback_read(src, 0, buf, 0, LEN).await;
                Some((r, comm.time_ns() - t0, comm.read_all(buf).unwrap()[0]))
            })
        };
        let [(_, real), (_, zero)] = read(None, true);
        let Some((Ok(()), dt, FILL)) = real[1] else {
            panic!("the plain read: {:?}", real[1]);
        };
        assert!(matches!(zero[1], Some((Ok(()), t, 0)) if t == dt));
        // Freed after the first copy: both copies are still paid for,
        // nothing lands, and the refusal is EPERM while the owner lives
        // and ESRCH once it has exited.
        for (exits, refused) in [
            (false, CommError::PermissionDenied),
            (true, CommError::Os(kacc_comm::ESRCH)),
        ] {
            for (_, res) in read(Some(dt / 2), exits) {
                assert_eq!(res[1], Some((Err(refused.clone()), dt, 0)));
            }
        }
    }

    /// A short message and an expired deadline are refused at the times
    /// the thread kernel refused them, whether the buffers were written
    /// or not.
    #[test]
    fn bulk_refusals_match_threads_engine() {
        let arch = ArchProfile::broadwell();
        let polled = |fill: u8| {
            move |rank| async move {
                let comm = &mut PolledComm::new(rank);
                let buf = comm.alloc_with(&[fill; 4096]).unwrap();
                if rank == 0 {
                    comm.shm_send_data(1, Tag::user(1), buf, 0, 100)
                        .await
                        .unwrap();
                    (Ok(()), Ok(()), comm.time_ns())
                } else {
                    let short = comm.shm_recv_data(0, Tag::user(1), buf, 0, 64).await;
                    let expired = comm
                        .shm_recv_deadline(0, Tag::user(2), buf, 0, 64, Some(900))
                        .await;
                    (short, expired, comm.time_ns())
                }
            }
        };
        let (run, res, trace) = run_polled_team_traced(&arch, 2, polled(0));
        let truncated = Err(CommError::Truncated {
            wanted: 64,
            got: 100,
        });
        let expired = Err(CommError::Timeout { waited_ns: 900 });
        assert_eq!(res, [(Ok(()), Ok(()), 33), (truncated, expired, 1233)]);
        assert_run((&run, &trace), 1233, &[33, 1233], 5, 0xb465_3cc6_0324_99ff);
        assert_eq!(run_polled_team(&arch, 2, polled(FILL)), (run, res));
    }

    // ---- the sender's busy-until horizon -------------------------------

    /// Broadwell's control plane: a 0-byte send occupies its sender for
    /// `OCC` ns and arrives `LAT` ns after it starts.
    const OCC: u64 = 90;
    const LAT: u64 = 300;

    #[test]
    fn the_control_plane_constants_are_broadwells() {
        let a = ArchProfile::broadwell();
        assert_eq!(((0.3 * a.sm_msg_ns) as u64, a.sm_msg_ns as u64), (OCC, LAT));
    }

    /// Two Broadwell ranks, traced.
    fn traced_pair<R, F, Fut>(f: F) -> (TeamRun, Vec<R>, Vec<Event>)
    where
        F: Fn(usize) -> Fut + 'static,
        Fut: Future<Output = R> + 'static,
        R: 'static,
    {
        run_polled_team_traced(&ArchProfile::broadwell(), 2, f)
    }

    /// How often the scheduler dispatched `rank`: the instants on its track.
    fn dispatches(trace: &[Event], rank: usize) -> usize {
        trace
            .iter()
            .filter(|e| e.track == Track::Rank(rank))
            .filter(|e| matches!(e.kind, kacc_trace::EventKind::Instant { .. }))
            .count()
    }

    /// Start of `rank`'s first span called `name`.
    fn span_start(trace: &[Event], rank: usize, name: &str) -> u64 {
        trace
            .iter()
            .find(|e| e.track == Track::Rank(rank) && e.name == name)
            .map(Event::ts)
            .unwrap_or_else(|| panic!("no {name} span on rank {rank}"))
    }

    #[test]
    fn back_to_back_sends_move_the_horizon_without_a_dispatch() {
        const K: u64 = 4;
        let (run, arrivals, trace) = traced_pair(|rank| async move {
            let comm = &mut PolledComm::new(rank);
            let mut seen = Vec::new();
            for i in 0..K as u32 {
                if rank == 0 {
                    comm.notify(1, Tag::user(i)).await.unwrap();
                } else {
                    comm.wait_notify(0, Tag::user(i)).await.unwrap();
                    seen.push(comm.time_ns());
                }
            }
            seen
        });
        // The i-th send starts where the (i-1)-th stopped occupying rank 0.
        let want: Vec<u64> = (0..K).map(|i| i * OCC + LAT).collect();
        assert_eq!(arrivals[1], want);
        assert_eq!(dispatches(&trace, 0), 1, "only rank 0's first poll");
        assert_eq!(run.finish_ns[0], K * OCC);
    }

    #[test]
    fn a_rank_that_ends_on_a_send_finishes_at_its_horizon() {
        let (run, _, trace) = traced_pair(|rank| async move {
            if rank == 0 {
                PolledComm::new(rank).notify(1, Tag::user(1)).await.unwrap();
            }
        });
        assert_eq!((run.end_ns, &run.finish_ns[..]), (OCC, &[OCC, 0][..]));
        assert_eq!(dispatches(&trace, 0), 1, "no trailing event at the horizon");
        assert_eq!(run.events, 2);
        assert_eq!(run.mail_pending, 1);
    }

    #[test]
    fn a_reply_after_the_horizon_costs_one_dispatch() {
        let (run, t, trace) = traced_pair(|rank| async move {
            let comm = &mut PolledComm::new(rank);
            let peer = 1 - rank;
            if rank == 0 {
                comm.notify(peer, Tag::user(1)).await.unwrap();
            } else {
                comm.wait_notify(peer, Tag::user(1)).await.unwrap();
            }
            if rank == 0 {
                comm.wait_notify(peer, Tag::user(2)).await.unwrap();
            } else {
                comm.notify(peer, Tag::user(2)).await.unwrap();
            }
            comm.time_ns()
        });
        assert_eq!(t[0], 2 * LAT);
        // The first poll, then the reply's wake: none at the horizon.
        assert_eq!(dispatches(&trace, 0), 2);
        assert_eq!(run.finish_ns, [2 * LAT, LAT + OCC]);
    }

    #[test]
    fn a_reply_that_beat_the_horizon_is_taken_at_the_horizon() {
        // A 4000-byte send occupies rank 0 well past the reply's arrival.
        const LEN: usize = 4000;
        let horizon = OCC + (0.5 * LEN as f64 * ArchProfile::broadwell().sm_byte_ns) as u64;
        assert!(horizon > LAT);
        let (_, t, trace) = traced_pair(|rank| async move {
            let comm = &mut PolledComm::new(rank);
            if rank == 0 {
                comm.ctrl_send(1, Tag::user(1), &[0; LEN]).await.unwrap();
                comm.wait_notify(1, Tag::user(2)).await.unwrap();
            } else {
                comm.notify(0, Tag::user(2)).await.unwrap();
                comm.ctrl_recv(0, Tag::user(1)).await.unwrap();
            }
            comm.time_ns()
        });
        assert_eq!(t[0], horizon);
        assert_eq!(dispatches(&trace, 0), 2);
        // The receive opens at rank 0's own clock and is over at once.
        assert_eq!(span_start(&trace, 0, "ctrl_recv"), horizon);
    }

    #[test]
    fn a_deadline_counts_from_the_horizon() {
        const TIMEOUT: u64 = 1000;
        let (run, got, _) = traced_pair(|rank| async move {
            let comm = &mut PolledComm::new(rank);
            if rank == 1 {
                return None;
            }
            comm.notify(1, Tag::user(1)).await.unwrap();
            let got = comm
                .ctrl_recv_deadline(1, Tag::user(2), Some(TIMEOUT))
                .await;
            Some((got, comm.time_ns()))
        });
        let expired = Err(CommError::Timeout { waited_ns: TIMEOUT });
        assert_eq!(got[0], Some((expired, OCC + TIMEOUT)));
        assert_eq!(run.finish_ns[0], OCC + TIMEOUT);
    }

    #[test]
    fn a_system_call_after_a_send_enters_the_kernel_at_the_horizon() {
        let (_, _, trace) = traced_pair(|rank| async move {
            let comm = &mut PolledComm::new(rank);
            let buf = comm.alloc(8192);
            if rank == 0 {
                let tok = comm.expose(buf).await.unwrap();
                comm.ctrl_send(1, Tag::user(1), &tok.to_bytes())
                    .await
                    .unwrap();
                comm.wait_notify(1, Tag::user(2)).await.unwrap();
            } else {
                let raw = comm.ctrl_recv(0, Tag::user(1)).await.unwrap();
                comm.notify(0, Tag::user(2)).await.unwrap();
                let tok = RemoteToken::from_bytes(&raw).unwrap();
                comm.cma_read(tok, 0, buf, 0, 8192).await.unwrap();
            }
        });
        let horizon = span_start(&trace, 1, "ctrl_send") + OCC;
        assert_eq!(span_start(&trace, 1, "syscall"), horizon);
    }

    #[test]
    fn a_flow_after_a_send_joins_its_server_at_the_horizon() {
        let copy = |send_first: bool| {
            let (_, _, trace) = traced_pair(move |rank| async move {
                let comm = &mut PolledComm::new(rank);
                if rank == 1 {
                    return;
                }
                let (src, dst) = (comm.alloc(4096), comm.alloc(4096));
                if send_first {
                    comm.notify(1, Tag::user(1)).await.unwrap();
                }
                comm.copy_local(src, 0, dst, 0, 4096).await.unwrap();
            });
            let span = trace.iter().find(|e| e.name == "copy_local").unwrap();
            match span.kind {
                kacc_trace::EventKind::Span { ts, dur } => (ts, dur),
                _ => unreachable!("copy_local is a span"),
            }
        };
        let (t_plain, d_plain) = copy(false);
        assert_eq!(copy(true), (t_plain + OCC, d_plain));
    }

    /// Delays every control send that carries a payload.
    struct DelayPayloadSends(u64);

    impl kacc_fault::FaultInjector for DelayPayloadSends {
        fn decide(&self, site: &FaultSite) -> FaultDecision {
            if site.op == FaultOp::CtrlSend && site.len > 0 {
                FaultDecision::Delay { ns: self.0 }
            } else {
                FaultDecision::Allow
            }
        }
    }

    #[test]
    fn a_delay_after_a_send_runs_from_the_horizon() {
        const DELAY: u64 = 700;
        let hook = FaultHook::new(std::sync::Arc::new(DelayPayloadSends(DELAY)));
        let arch = ArchProfile::broadwell();
        let (run, arrivals) = run_polled_team_faulty(&arch, 2, hook, |rank| async move {
            let comm = &mut PolledComm::new(rank);
            if rank == 0 {
                comm.notify(1, Tag::user(1)).await.unwrap();
                comm.ctrl_send(1, Tag::user(2), &[1]).await.unwrap();
                return Vec::new();
            }
            let mut seen = Vec::new();
            for tag in [1, 2] {
                comm.ctrl_recv(0, Tag::user(tag)).await.unwrap();
                seen.push(comm.time_ns());
            }
            seen
        });
        // The second send starts DELAY after the first one's horizon.
        let second = OCC + DELAY;
        assert_eq!(arrivals[1], [LAT, second + LAT]);
        assert_eq!(run.finish_ns[0], second + OCC);
    }
}
