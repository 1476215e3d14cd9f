//! The point-to-point library stacks as compiled plans (§III, §VII).
//!
//! Production MPI libraries build large-message collectives out of
//! point-to-point messages, and every message pays its protocol. Four
//! protocols, each a fixed step sequence per message:
//!
//! * **Eager** — the payload rides the control plane: a
//!   [`Payload::Region`] send into a [`RecvInto::Region`] receive.
//! * **ShmCopy** — the two-copy bulk path (`ShmSend` / `ShmRecv`); across
//!   nodes the fabric maps it onto a one-sided push.
//! * **RendezvousCma** — intra-node: the sender exposes its buffer and
//!   sends an RTS carrying token ‖ offset ‖ length; the receiver issues a
//!   single-copy `CmaRead` and answers with a FIN, which the sender waits
//!   for. This is the per-message handshake the native collectives avoid
//!   (Fig 9).
//! * **NetRendezvous** — cross-node: an 8-byte RTS, a CTS back, then the
//!   bulk push. Every message pays a fabric round trip before data flows,
//!   which is why flat single-level collectives degrade with node count
//!   (§VII-G).
//!
//! A message's protocol is resolved per peer from the rank placement:
//! CMA cannot cross nodes, so both ends of a cross-node `RendezvousCma`
//! run the network rendezvous. Each message is split into phases — the
//! sender's *post* and *complete*, the receiver's *serve* and *finish* —
//! so an exchange orders them post, serve, complete, finish, in which
//! every blocking wait depends only on a phase its peer has already run:
//! any cycle of exchanges is deadlock-free under every protocol mix.
//!
//! The classic algorithms libraries fall back to are compiled from those
//! messages ([`Algo`]): binomial broadcast, scatter and gather, flat
//! (direct) scatter and gather, ring allgather and pairwise alltoall.
//! [`run_polled`] checks the call, looks this rank's plan up in the
//! [`PlanCache`] (compiling it over the communicator's placement on a
//! miss) and runs it on the one executor, so the personas get step
//! telemetry, trace spans and the recovery ladder like every other plan.

use crate::class;
use crate::exec::{Bindings, ScheduleReport};
use crate::polled::execute_polled;
use crate::schedule::{
    Builder, Payload, PlanCache, PlanKey, RecvInto, Schedule, Slot, Step, TokenReg,
};
use crate::{check_call, unvrank, vrank};
use kacc_comm::{AsyncComm, BufId, CommError, Result, Tag};

/// Point-to-point transfer protocol. Sender and receiver must agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Payload inlined on the control plane.
    Eager,
    /// Two-copy staging (shared memory intra-node, fabric push across).
    ShmCopy,
    /// RTS / single-copy CMA read / FIN rendezvous (intra-node only;
    /// runs as [`Protocol::NetRendezvous`] across nodes).
    RendezvousCma,
    /// RTS / CTS / bulk-push rendezvous over the fabric.
    NetRendezvous,
}

impl Protocol {
    /// The protocol a CMA-capable library picks for `len` bytes, given
    /// its eager/rendezvous threshold (the paper cites ≥ 16 KiB as the
    /// kernel-assisted sweet spot for pt2pt).
    pub fn for_len(len: usize, rndv_threshold: usize) -> Protocol {
        if len < rndv_threshold {
            Protocol::Eager
        } else {
            Protocol::RendezvousCma
        }
    }
}

/// A classic collective over point-to-point messages. The rooted ones
/// number ranks virtually, with the root at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Binomial-tree broadcast of the data buffer (bound as send): every
    /// rank receives the whole message from its parent, then forwards it
    /// to its children, largest subtree first.
    Bcast {
        /// Rank holding the data.
        root: usize,
    },
    /// Binomial-tree scatter: the root stages the blocks in virtual-rank
    /// order and sends each child its subtree's range; inner ranks stage
    /// theirs and forward the sub-ranges.
    Scatter {
        /// Rank holding every block.
        root: usize,
    },
    /// Binomial-tree gather, the scatter reversed.
    Gather {
        /// Rank collecting every block.
        root: usize,
    },
    /// Flat scatter: the root sends every rank its block, in virtual-rank
    /// order.
    FlatScatter {
        /// Rank holding every block.
        root: usize,
    },
    /// Flat gather: every rank sends its block to the root, which
    /// receives them in virtual-rank order — the single-level strategy
    /// of §VII-G, every message paying its handshake at the root.
    FlatGather {
        /// Rank collecting every block.
        root: usize,
    },
    /// Ring allgather: p − 1 exchanges, each forwarding to the right the
    /// block received from the left in the previous one.
    Allgather,
    /// Pairwise-exchange alltoall: p − 1 exchanges, with partner `me ^ i`
    /// on a power-of-two team and shifted partners otherwise.
    Alltoall,
}

impl Algo {
    /// User tag of the algorithm's data, RTS, FIN and CTS messages.
    fn tag(self) -> u32 {
        match self {
            Algo::Bcast { .. } => 20,
            Algo::Scatter { .. } => 21,
            Algo::Gather { .. } => 22,
            Algo::Allgather => 23,
            Algo::Alltoall => 24,
            Algo::FlatGather { .. } => 25,
            Algo::FlatScatter { .. } => 26,
        }
    }

    pub(crate) fn root(self) -> usize {
        match self {
            Algo::Bcast { root }
            | Algo::Scatter { root }
            | Algo::Gather { root }
            | Algo::FlatScatter { root }
            | Algo::FlatGather { root } => root,
            Algo::Allgather | Algo::Alltoall => 0,
        }
    }

    /// Compile `rank`'s plan on a team of `p` ranks placed on nodes by
    /// `node_of`, for `count` bytes per block, every message under
    /// `proto` (resolved per peer; only a CMA rendezvous asks for a
    /// node). Bindings: [`Slot::Send`] = the send buffer (Bcast's data
    /// buffer), [`Slot::Recv`] = the receive buffer. `in_place` says the
    /// rank's own block is in the other buffer: a Scatter root without a
    /// receive buffer, a Gather root, Allgather or Alltoall rank without a
    /// send buffer. Callers must have checked the root and `count > 0`.
    pub fn compile(
        self,
        p: usize,
        rank: usize,
        node_of: &dyn Fn(usize) -> usize,
        count: usize,
        proto: Protocol,
        in_place: bool,
    ) -> Schedule {
        let mut s = Stack {
            b: Builder::new(p, rank, class::PT2PT),
            me: rank,
            p,
            node_of,
            proto,
            tag: self.tag(),
        };
        let root = self.root();
        match self {
            Algo::Bcast { .. } => s.bcast(count, root),
            Algo::Scatter { .. } => s.scatter(count, root, in_place),
            Algo::Gather { .. } => s.gather(count, root, in_place),
            Algo::FlatScatter { .. } => s.flat_scatter(count, root, in_place),
            Algo::FlatGather { .. } => s.flat_gather(count, root, in_place),
            Algo::Allgather => s.allgather(count, in_place),
            Algo::Alltoall => s.alltoall(count, in_place),
        }
        s.b.finish()
    }
}

/// One end of a message: `len` bytes to or from `peer` at `off` in this
/// rank's `slot`, which the sender holds at `src_off` in its buffer.
#[derive(Clone, Copy)]
struct Msg {
    peer: usize,
    slot: Slot,
    off: usize,
    len: usize,
    src_off: usize,
}

/// One rank's plan under construction.
struct Stack<'a> {
    b: Builder,
    me: usize,
    p: usize,
    node_of: &'a dyn Fn(usize) -> usize,
    proto: Protocol,
    tag: u32,
}

impl Stack<'_> {
    /// The protocol of a message to or from `peer`: both ends resolve a
    /// cross-node CMA rendezvous to the network rendezvous.
    fn proto(&self, peer: usize) -> Protocol {
        let node_of = self.node_of;
        if self.proto == Protocol::RendezvousCma && node_of(peer) != node_of(self.me) {
            Protocol::NetRendezvous
        } else {
            self.proto
        }
    }

    fn tag(&self, class: u32) -> Tag {
        Tag::internal(class, self.tag)
    }

    /// A charged local copy of `len` bytes.
    fn copy(&mut self, src: Slot, src_off: usize, dst: Slot, dst_off: usize, len: usize) {
        self.b.push(Step::CopyLocal {
            src,
            src_off,
            dst,
            dst_off,
            len,
        });
    }

    /// A scratch copy of `len` bytes of the receive buffer at `off`: an
    /// in-place rank's own data, staged where a send buffer would be.
    fn stage_in_place(&mut self, off: usize, len: usize) -> Slot {
        let t = self.b.temp(len);
        self.copy(Slot::Recv, off, t, 0, len);
        t
    }

    /// The request-to-send announcing `m`, with the sender's token in
    /// the CMA form.
    fn rts(&mut self, m: Msg, token: Option<TokenReg>) {
        let (off, len) = (m.src_off, m.len);
        let tag = self.tag(class::PT2PT_RTS);
        let payload = Payload::Rts { token, off, len };
        self.b.push(Step::CtrlSend {
            to: m.peer,
            tag,
            payload,
        });
    }

    /// The sender's non-blocking part: the eager payload, the bulk push,
    /// or the RTS.
    fn post(&mut self, m: Msg) {
        let (peer, slot, off, len) = (m.peer, m.slot, m.off, m.len);
        let data = self.tag(class::PT2PT);
        match self.proto(peer) {
            Protocol::Eager => self.b.push(Step::CtrlSend {
                to: peer,
                tag: data,
                payload: Payload::Region { slot, off, len },
            }),
            Protocol::ShmCopy => self.b.push(Step::ShmSend {
                to: peer,
                tag: data,
                src: slot,
                off,
                len,
            }),
            Protocol::RendezvousCma => {
                let reg = self.b.reg();
                self.b.push(Step::Expose { slot, reg });
                self.rts(m, Some(reg));
            }
            Protocol::NetRendezvous => self.rts(m, None),
        }
    }

    /// The sender's blocking part: wait for the FIN, or for the CTS and
    /// then push the data.
    fn complete(&mut self, m: Msg) {
        match self.proto(m.peer) {
            Protocol::Eager | Protocol::ShmCopy => {}
            Protocol::RendezvousCma => self.b.push(Step::WaitNotify {
                from: m.peer,
                tag: self.tag(class::PT2PT_FIN),
            }),
            Protocol::NetRendezvous => {
                self.b.push(Step::WaitNotify {
                    from: m.peer,
                    tag: self.tag(class::PT2PT_CTS),
                });
                self.b.push(Step::ShmSend {
                    to: m.peer,
                    tag: self.tag(class::PT2PT),
                    src: m.slot,
                    off: m.off,
                    len: m.len,
                });
            }
        }
    }

    /// The receiver's answer to the sender's RTS: read and FIN, or CTS.
    fn serve(&mut self, m: Msg) {
        let token = match self.proto(m.peer) {
            Protocol::Eager | Protocol::ShmCopy => return,
            Protocol::RendezvousCma => Some(self.b.reg()),
            Protocol::NetRendezvous => None,
        };
        let (off, len) = (m.src_off, m.len);
        self.b.push(Step::CtrlRecv {
            from: m.peer,
            tag: self.tag(class::PT2PT_RTS),
            into: RecvInto::Rts { token, off, len },
        });
        let Some(token) = token else {
            return self.b.push(Step::Notify {
                to: m.peer,
                tag: self.tag(class::PT2PT_CTS),
            });
        };
        self.b.push(Step::CmaRead {
            token,
            remote_off: off,
            dst: m.slot,
            dst_off: m.off,
            len,
        });
        self.b.push(Step::Notify {
            to: m.peer,
            tag: self.tag(class::PT2PT_FIN),
        });
    }

    /// The receiver's data: the eager payload or the bulk push.
    fn finish(&mut self, m: Msg) {
        let (peer, slot, off, len) = (m.peer, m.slot, m.off, m.len);
        let data = self.tag(class::PT2PT);
        match self.proto(peer) {
            Protocol::Eager => self.b.push(Step::CtrlRecv {
                from: peer,
                tag: data,
                into: RecvInto::Region { slot, off, len },
            }),
            Protocol::ShmCopy | Protocol::NetRendezvous => self.b.push(Step::ShmRecv {
                from: peer,
                tag: data,
                dst: slot,
                off,
                len,
            }),
            Protocol::RendezvousCma => {}
        }
    }

    fn send(&mut self, m: Msg) {
        self.post(m);
        self.complete(m);
    }

    fn recv(&mut self, m: Msg) {
        self.serve(m);
        self.finish(m);
    }

    /// A send and a receive in the deadlock-free phase order.
    fn sendrecv(&mut self, sent: Msg, received: Msg) {
        self.post(sent);
        self.serve(received);
        self.complete(sent);
        self.finish(received);
    }

    fn bcast(&mut self, count: usize, root: usize) {
        let (me, p) = (self.me, self.p);
        let v = vrank(me, root, p);
        if v != 0 {
            let parent = unvrank(v & (v - 1), root, p);
            self.recv(inc(parent, Slot::Send, 0, count, 0));
        }
        for child in Builder::binomial_children(v, p).into_iter().rev() {
            self.send(out(unvrank(child, root, p), Slot::Send, 0, count));
        }
    }

    fn scatter(&mut self, count: usize, root: usize, in_place: bool) {
        let (me, p) = (self.me, self.p);
        let recv = if in_place {
            self.b.temp(count)
        } else {
            Slot::Recv
        };
        let v = vrank(me, root, p);
        if v == 0 {
            // Stage in virtual order so subtree ranges are contiguous.
            let staged = self.b.temp(p * count);
            for vv in 0..p {
                let r = unvrank(vv, root, p);
                self.copy(Slot::Send, r * count, staged, vv * count, count);
            }
            let mut span = p.next_power_of_two();
            while span > 1 {
                span /= 2;
                if span < p {
                    let len = span.min(p - span) * count;
                    self.send(out(unvrank(span, root, p), staged, span * count, len));
                }
            }
            self.copy(staged, 0, recv, 0, count);
            return;
        }
        // My subtree spans [v, v + span), span = v's lowest set bit.
        let span = v & v.wrapping_neg();
        let blocks = span.min(p - v);
        let parent = v & (v - 1);
        let from = unvrank(parent, root, p);
        let src_off = (v - parent) * count;
        if blocks == 1 {
            self.recv(inc(from, recv, 0, count, src_off));
            return;
        }
        let staged = self.b.temp(blocks * count);
        self.recv(inc(from, staged, 0, blocks * count, src_off));
        let mut half = span;
        while half > 1 {
            half /= 2;
            let child = v + half;
            if child < p {
                let len = half.min(p - child) * count;
                self.send(out(unvrank(child, root, p), staged, half * count, len));
            }
        }
        self.copy(staged, 0, recv, 0, count);
    }

    fn gather(&mut self, count: usize, root: usize, in_place: bool) {
        let (me, p) = (self.me, self.p);
        let v = vrank(me, root, p);
        let own = if in_place {
            self.stage_in_place(me * count, count)
        } else {
            Slot::Send
        };
        let span = if v == 0 {
            p.next_power_of_two()
        } else {
            v & v.wrapping_neg()
        };
        let blocks = span.min(p - v);
        // Collect the subtree in staging, own block first.
        let staged = (v == 0 || blocks > 1).then(|| self.b.temp(blocks * count));
        if let Some(st) = staged {
            self.copy(own, 0, st, 0, count);
        }
        // Children's subtrees, smallest first.
        let mut half = 1;
        while half < span {
            let child = v + half;
            if child < p {
                let st = staged.expect("inner ranks stage");
                let len = half.min(p - child) * count;
                self.recv(inc(unvrank(child, root, p), st, half * count, len, 0));
            }
            half *= 2;
        }
        if v == 0 {
            let st = staged.expect("the tree root stages");
            for vv in 0..p {
                let r = unvrank(vv, root, p);
                self.copy(st, vv * count, Slot::Recv, r * count, count);
            }
        } else {
            let parent = unvrank(v & (v - 1), root, p);
            self.send(out(parent, staged.unwrap_or(own), 0, blocks * count));
        }
    }

    fn flat_scatter(&mut self, count: usize, root: usize, in_place: bool) {
        let (me, p) = (self.me, self.p);
        if me != root {
            self.recv(inc(root, Slot::Recv, 0, count, me * count));
            return;
        }
        if !in_place {
            self.copy(Slot::Send, root * count, Slot::Recv, 0, count);
        }
        for r in (1..p).map(|v| unvrank(v, root, p)) {
            self.send(out(r, Slot::Send, r * count, count));
        }
    }

    fn flat_gather(&mut self, count: usize, root: usize, in_place: bool) {
        let (me, p) = (self.me, self.p);
        if me != root {
            self.send(out(root, Slot::Send, 0, count));
            return;
        }
        if !in_place {
            self.copy(Slot::Send, 0, Slot::Recv, root * count, count);
        }
        for r in (1..p).map(|v| unvrank(v, root, p)) {
            self.recv(inc(r, Slot::Recv, r * count, count, 0));
        }
    }

    fn allgather(&mut self, count: usize, in_place: bool) {
        let (me, p) = (self.me, self.p);
        let own = if in_place {
            self.stage_in_place(me * count, count)
        } else {
            Slot::Send
        };
        self.copy(own, 0, Slot::Recv, me * count, count);
        let (right, left) = ((me + 1) % p, (me + p - 1) % p);
        for i in 0..p - 1 {
            let send_off = (me + p - i) % p * count;
            // The left neighbour forwards the block it holds at the
            // offset it lands at here.
            let recv_off = (me + p - i - 1) % p * count;
            let to_right = out(right, Slot::Recv, send_off, count);
            self.sendrecv(to_right, inc(left, Slot::Recv, recv_off, count, recv_off));
        }
    }

    fn alltoall(&mut self, count: usize, in_place: bool) {
        let (me, p) = (self.me, self.p);
        let src = if in_place {
            self.stage_in_place(0, p * count)
        } else {
            Slot::Send
        };
        self.copy(src, me * count, Slot::Recv, me * count, count);
        for i in 1..p {
            let (to, from) = if p.is_power_of_two() {
                (me ^ i, me ^ i)
            } else {
                ((me + i) % p, (me + p - i) % p)
            };
            let mine = inc(from, Slot::Recv, from * count, count, me * count);
            self.sendrecv(out(to, src, to * count, count), mine);
        }
    }
}

/// The sending end of `len` bytes of `slot` at `off`, to `to`.
fn out(to: usize, slot: Slot, off: usize, len: usize) -> Msg {
    inc(to, slot, off, len, off)
}

/// The receiving end of `len` bytes from `from` into `slot` at `off`,
/// which the sender holds at `src_off`.
fn inc(from: usize, slot: Slot, off: usize, len: usize, src_off: usize) -> Msg {
    Msg {
        peer: from,
        slot,
        off,
        len,
        src_off,
    }
}

/// Run `algo` over `comm` under `proto`: check the call, look this rank's
/// plan up in the [`PlanCache`] (compiled over the communicator's
/// placement on a miss) and execute it.
///
/// Buffers: Bcast binds its data buffer as `sendbuf`. A Scatter root
/// binds `sendbuf` (`p·count` bytes) and may omit `recvbuf`; a Gather
/// root binds `recvbuf` (`p·count` bytes) and may omit `sendbuf`; every
/// other rooted rank binds its `count`-byte block. Allgather and Alltoall
/// bind `recvbuf` (`p·count` bytes) and may omit `sendbuf` (in place).
/// A missing buffer is a typed [`CommError::Protocol`] before any
/// traffic; `count == 0` moves nothing.
pub async fn run_polled<C: AsyncComm>(
    comm: &mut C,
    algo: Algo,
    proto: Protocol,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    count: usize,
) -> Result<ScheduleReport> {
    let (me, p) = (comm.rank(), comm.size());
    let leaf = me != algo.root();
    let (needed, msg, in_place) = match algo {
        Algo::Bcast { .. } => (sendbuf, "bcast binds its data buffer as send", false),
        Algo::Scatter { .. } | Algo::FlatScatter { .. } if leaf => {
            (recvbuf, "non-root scatter needs recvbuf", false)
        }
        Algo::Scatter { .. } | Algo::FlatScatter { .. } => {
            (sendbuf, "root scatter needs sendbuf", recvbuf.is_none())
        }
        Algo::Gather { .. } | Algo::FlatGather { .. } if leaf => {
            (sendbuf, "non-root gather needs sendbuf", false)
        }
        Algo::Gather { .. } | Algo::FlatGather { .. } => {
            (recvbuf, "root gather needs recvbuf", sendbuf.is_none())
        }
        Algo::Allgather => (recvbuf, "allgather needs recvbuf", sendbuf.is_none()),
        Algo::Alltoall => (recvbuf, "alltoall needs recvbuf", sendbuf.is_none()),
    };
    // Only a CMA rendezvous consults the placement (to fall back to the
    // network rendezvous across nodes), so only its key carries it.
    let nodes =
        (proto == Protocol::RendezvousCma).then(|| (0..p).map(|r| comm.node_of(r)).collect());
    let key = PlanKey::Pt2pt {
        algo,
        proto,
        p,
        rank: me,
        count,
        in_place,
        nodes,
    };
    let bind = Bindings {
        send: sendbuf,
        recv: recvbuf,
    };
    check_call(comm, &key, &bind)?;
    if needed.is_none() {
        return Err(CommError::Protocol(msg.into()));
    }
    if count == 0 {
        return Ok(ScheduleReport::default());
    }
    let plan = PlanCache::global().plan(key);
    execute_polled(comm, &plan, &bind).await
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_threshold_selection() {
        assert_eq!(Protocol::for_len(1024, 16384), Protocol::Eager);
        assert_eq!(Protocol::for_len(16383, 16384), Protocol::Eager);
        assert_eq!(Protocol::for_len(16384, 16384), Protocol::RendezvousCma);
    }
}
