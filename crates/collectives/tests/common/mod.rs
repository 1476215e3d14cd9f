//! The abstract machine the whole-team plan checks run on, with no
//! simulator.
//!
//! Every rank's compiled plan for one shape runs against a FIFO per
//! `(from, to, tag, plane)` channel, buffers whose bytes carry the global
//! index of the byte they hold and the set of ranks folded into its lane,
//! and a vector clock per rank. [`Team::run`] asserts on the way:
//!
//! * **Matching** — every send pairs FIFO with one receive at the peer
//!   with the same `(from, tag)` and length, both sides of a token pack
//!   carry the same rank labels with a token in the same entries, a
//!   request-to-send announces the offset and length its receiver
//!   expects, and no rank or message is left behind. Control messages are
//!   token packs, single tokens, requests-to-send, eager data regions,
//!   notifications and empty bodies.
//! * **Single writes** — the bytes of a caller's buffer (send or
//!   receive; scratch may be rewritten) are written once each, and never
//!   with a byte nobody wrote (a stale forward).
//! * **Folds** — `Reduce` combines only bytes of the same lane whose
//!   folded rank sets are disjoint, so no contribution counts twice.
//!
//! What the final buffers must hold, and what the recorded CMA steps
//! must satisfy ([`max_cma_chains`]), is each test's own claim.

// Each test crate that includes this module uses a part of it.
#![allow(dead_code)]

use std::collections::{HashMap, VecDeque};

use kacc_collectives::schedule::{Payload, RecvInto, Schedule, Slot, Step, TokenReg};
use kacc_comm::Tag;

/// A buffer on the abstract machine: owner rank and slot.
pub type Buf = (usize, Slot);

/// What one byte holds: the global index of the byte it carries and the
/// ranks folded into its lane (bit `r` for rank `r`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Byte {
    pub at: usize,
    pub folded: u64,
}

/// A buffer's bytes (`None`: unwritten).
pub type Bytes = Vec<Option<Byte>>;
pub type Clock = Vec<u32>;
/// `(from, to, tag, bulk plane)`.
type Channel = (usize, usize, Tag, bool);

/// Bytes `lo..lo + len`, each with the fold set `folded`.
pub fn bytes(lo: usize, len: usize, folded: u64) -> Bytes {
    (lo..lo + len).map(|at| Some(Byte { at, folded })).collect()
}

/// A message in flight: tokens (a pack's labelled entries, or one token
/// under label 0), an eager region or nothing on the control plane, a
/// region on the bulk plane; a request-to-send also carries the offset
/// and length it announces.
#[derive(Default)]
struct Msg {
    len: usize,
    labels: Vec<(u32, Option<Buf>)>,
    bytes: Bytes,
    announce: Option<(usize, usize)>,
    clock: Clock,
}

/// One executed CMA step: who issued it, the remote buffer it moved data
/// on, and the issuer's clock at that moment.
pub struct Cma {
    pub rank: usize,
    pub target: Buf,
    pub clock: Clock,
}

pub struct Team {
    /// The shape, for failure messages.
    ctx: String,
    plans: Vec<Schedule>,
    pc: Vec<usize>,
    clocks: Vec<Clock>,
    regs: Vec<Vec<Option<Buf>>>,
    bufs: HashMap<Buf, Bytes>,
    queues: HashMap<Channel, VecDeque<Msg>>,
    /// Every CMA step, in execution order.
    pub cma: Vec<Cma>,
}

/// The wire length a receive step expects.
fn wire_len(step: &Step) -> usize {
    match step {
        Step::CtrlRecv { into, .. } => into.wire_len(),
        Step::ShmRecv { len, .. } => *len,
        _ => 0,
    }
}

/// Most chains a first-fit cover of each target buffer's CMA steps
/// needs. Execution order is a linear extension of happens-before, so
/// first-fit yields a valid chain cover, which bounds from above how
/// many of the steps can run at once.
pub fn max_cma_chains(cma: &[Cma]) -> usize {
    let mut chains: HashMap<Buf, Vec<&Clock>> = HashMap::new();
    for Cma { target, clock, .. } in cma {
        let ends = chains.entry(*target).or_default();
        let before = |end: &&Clock| end.iter().zip(clock).all(|(a, b)| a <= b);
        match ends.iter().position(before) {
            Some(i) => ends[i] = clock,
            None => ends.push(clock),
        }
    }
    chains.values().map(Vec::len).max().unwrap_or(0)
}

/// The channel a receive step takes its message from.
fn source(r: usize, step: &Step) -> Option<Channel> {
    match *step {
        Step::CtrlRecv { from, tag, .. } | Step::WaitNotify { from, tag } => {
            Some((from, r, tag, false))
        }
        Step::ShmRecv { from, tag, .. } => Some((from, r, tag, true)),
        _ => None,
    }
}

impl Team {
    /// Load every rank's plan with the send and receive buffers
    /// `buffers(rank)` returns and unwritten scratch.
    pub fn new(
        ctx: String,
        plans: Vec<Schedule>,
        buffers: impl Fn(usize) -> (Bytes, Bytes),
    ) -> Team {
        let p = plans.len();
        let mut bufs = HashMap::new();
        for (r, plan) in plans.iter().enumerate() {
            let (send, recv) = buffers(r);
            bufs.insert((r, Slot::Send), send);
            bufs.insert((r, Slot::Recv), recv);
            for (i, &len) in plan.temps.iter().enumerate() {
                bufs.insert((r, Slot::Temp(i as u32)), vec![None; len]);
            }
        }
        Team {
            ctx,
            pc: vec![0; p],
            clocks: vec![vec![0; p]; p],
            regs: plans.iter().map(|s| vec![None; s.token_regs]).collect(),
            plans,
            bufs,
            queues: HashMap::new(),
            cma: Vec::new(),
        }
    }

    /// Run every plan to its end, always stepping the first ready rank in
    /// `order`, and assert that no rank blocks and no message is left.
    pub fn run(&mut self, order: &[usize]) {
        let mut pos = vec![usize::MAX; self.plans.len()];
        for (i, &r) in order.iter().enumerate() {
            pos[r] = i;
        }
        // Every rank before `order[i]` is blocked, and stays so until a
        // message reaches it.
        let mut i = 0;
        while let Some(&r) = order.get(i) {
            if !self.ready(r) {
                i += 1;
            } else if let Some(to) = self.step(r) {
                i = i.min(pos[to]);
            }
        }
        let ctx = &self.ctx;
        for (r, plan) in self.plans.iter().enumerate() {
            let at = plan.steps.get(self.pc[r]);
            assert!(at.is_none(), "{ctx}: rank {r} blocked at {at:?}");
        }
        assert!(self.queues.is_empty(), "{ctx}: unmatched sends");
    }

    /// Rank `r`'s receive buffer.
    pub fn recv(&self, r: usize) -> &Bytes {
        self.buf((r, Slot::Recv))
    }

    /// A buffer's bytes.
    pub fn buf(&self, buf: Buf) -> &Bytes {
        &self.bufs[&buf]
    }

    fn token(&self, r: usize, reg: TokenReg) -> Buf {
        self.regs[r][reg.0 as usize].expect("token register filled before use")
    }

    fn copy(&mut self, src: Buf, src_off: usize, dst: Buf, dst_off: usize, len: usize) {
        let bytes = self.bufs[&src][src_off..src_off + len].to_vec();
        self.write(dst, dst_off, &bytes);
    }

    /// Write `bytes` at `dst[off..]`, once each into a caller's buffer.
    fn write(&mut self, dst: Buf, off: usize, bytes: &[Option<Byte>]) {
        let region = &mut self.bufs.get_mut(&dst).expect("buffer exists")[off..off + bytes.len()];
        if !matches!(dst.1, Slot::Temp(_)) {
            let fresh = region.iter().all(Option::is_none) && bytes.iter().all(Option::is_some);
            assert!(fresh, "{}: {dst:?} rewritten or stale at {off}", self.ctx);
        }
        region.copy_from_slice(bytes);
    }

    /// Fold `src[src_off..]` into `acc[acc_off..]` lane by lane.
    fn fold(&mut self, acc: Buf, acc_off: usize, src: Buf, src_off: usize, len: usize) {
        let src = self.bufs[&src][src_off..src_off + len].to_vec();
        let ctx = &self.ctx;
        let region = &mut self.bufs.get_mut(&acc).expect("buffer exists")[acc_off..acc_off + len];
        for (a, s) in region.iter_mut().zip(src) {
            let (Some(a), Some(s)) = (a.as_mut(), s) else {
                panic!("{ctx}: {acc:?} folds an unwritten byte at {acc_off}");
            };
            assert_eq!(a.at, s.at, "{ctx}: {acc:?} folds another lane");
            assert_eq!(a.folded & s.folded, 0, "{ctx}: {acc:?} folds a rank twice");
            a.folded |= s.folded;
        }
    }

    /// Queue a message stamped with the sender's clock.
    fn send(&mut self, ch: Channel, msg: Msg) {
        let clock = self.clocks[ch.0].clone();
        let msg = Msg { clock, ..msg };
        self.queues.entry(ch).or_default().push_back(msg);
    }

    fn ready(&self, r: usize) -> bool {
        let step = self.plans[r].steps.get(self.pc[r]);
        step.is_some_and(|s| source(r, s).is_none_or(|ch| self.queues.contains_key(&ch)))
    }

    /// Run rank `r`'s next step, which must be [`Team::ready`], and
    /// return the rank it sent a message to.
    fn step(&mut self, r: usize) -> Option<usize> {
        let step = self.plans[r].steps[self.pc[r]].clone();
        let to = match step {
            Step::CtrlSend { to, .. } | Step::Notify { to, .. } | Step::ShmSend { to, .. } => {
                Some(to)
            }
            _ => None,
        };
        self.pc[r] += 1;
        self.clocks[r][r] += 1;
        let msg = source(r, &step).map(|ch| {
            let q = self.queues.get_mut(&ch).expect("ready");
            let msg = q.pop_front().expect("queues are dropped when empty");
            let ctx = &self.ctx;
            assert_eq!(msg.len, wire_len(&step), "{ctx}: rank {r} <- {ch:?} length");
            if q.is_empty() {
                self.queues.remove(&ch);
            }
            for (mine, theirs) in self.clocks[r].iter_mut().zip(&msg.clock) {
                *mine = (*mine).max(*theirs);
            }
            msg
        });
        match step {
            Step::Expose { slot, reg } => self.regs[r][reg.0 as usize] = Some((r, slot)),
            Step::CtrlSend { to, tag, payload } => {
                let len = payload.wire_len();
                let msg = match payload {
                    Payload::Pack(entries) => Msg {
                        labels: entries
                            .iter()
                            .map(|&(l, g)| (l, g.map(|g| self.token(r, g))))
                            .collect(),
                        ..Msg::default()
                    },
                    Payload::Token(reg) => Msg {
                        labels: vec![(0, Some(self.token(r, reg)))],
                        ..Msg::default()
                    },
                    Payload::Bytes(body) if body.is_empty() => Msg::default(),
                    Payload::Region { slot, off, len } => Msg {
                        bytes: self.bufs[&(r, slot)][off..off + len].to_vec(),
                        ..Msg::default()
                    },
                    Payload::Rts { token, off, len } => Msg {
                        labels: token
                            .map(|g| (0, Some(self.token(r, g))))
                            .into_iter()
                            .collect(),
                        announce: Some((off, len)),
                        ..Msg::default()
                    },
                    other => panic!("rank {r}: the abstract machine does not send {other:?}"),
                };
                self.send((r, to, tag, false), Msg { len, ..msg });
            }
            Step::Notify { to, tag } => self.send((r, to, tag, false), Msg::default()),
            Step::ShmSend {
                to,
                tag,
                src,
                off,
                len,
            } => {
                let bytes = self.bufs[&(r, src)][off..off + len].to_vec();
                let msg = Msg {
                    len,
                    bytes,
                    ..Msg::default()
                };
                self.send((r, to, tag, true), msg);
            }
            Step::CtrlRecv {
                into: RecvInto::Pack(want),
                ..
            } => {
                let msg = msg.expect("a receive has a message");
                let got: Vec<_> = msg.labels.iter().map(|&(l, b)| (l, b.is_some())).collect();
                let wanted: Vec<_> = want.iter().map(|&(l, g)| (l, g.is_some())).collect();
                assert_eq!(got, wanted, "{}: rank {r} token pack labels", self.ctx);
                for (&(_, reg), &(_, buf)) in want.iter().zip(&msg.labels) {
                    if let Some(reg) = reg {
                        self.regs[r][reg.0 as usize] = buf;
                    }
                }
            }
            Step::CtrlRecv {
                into: RecvInto::Token(reg),
                ..
            } => {
                let msg = msg.expect("a receive has a message");
                self.regs[r][reg.0 as usize] = msg.labels[0].1;
            }
            Step::CtrlRecv {
                into: RecvInto::Verify(body),
                ..
            } if body.is_empty() => {}
            Step::CtrlRecv {
                into: RecvInto::Region { slot, off, .. },
                ..
            } => {
                let msg = msg.expect("a receive has a message");
                self.write((r, slot), off, &msg.bytes);
            }
            Step::CtrlRecv {
                into: RecvInto::Rts { token, off, len },
                ..
            } => {
                let msg = msg.expect("a receive has a message");
                let ctx = &self.ctx;
                assert_eq!(msg.announce, Some((off, len)), "{ctx}: rank {r} RTS");
                if let Some(reg) = token {
                    self.regs[r][reg.0 as usize] = msg.labels[0].1;
                }
            }
            Step::WaitNotify { .. } => {}
            Step::ShmRecv { dst, off, .. } => {
                let msg = msg.expect("a receive has a message");
                self.write((r, dst), off, &msg.bytes);
            }
            Step::CmaWrite {
                token,
                remote_off,
                src,
                src_off,
                len,
            } => {
                let target = self.token(r, token);
                let clock = self.clocks[r].clone();
                self.cma.push(Cma {
                    rank: r,
                    target,
                    clock,
                });
                self.copy((r, src), src_off, target, remote_off, len);
            }
            Step::CmaRead {
                token,
                remote_off,
                dst,
                dst_off,
                len,
            } => {
                let target = self.token(r, token);
                let clock = self.clocks[r].clone();
                self.cma.push(Cma {
                    rank: r,
                    target,
                    clock,
                });
                self.copy(target, remote_off, (r, dst), dst_off, len);
            }
            Step::CopyLocal {
                src,
                src_off,
                dst,
                dst_off,
                len,
            } => self.copy((r, src), src_off, (r, dst), dst_off, len),
            Step::Reduce {
                acc,
                acc_off,
                src,
                src_off,
                len,
                ..
            } => self.fold((r, acc), acc_off, (r, src), src_off, len),
            other => panic!("rank {r}: the abstract machine does not model {other:?}"),
        }
        to
    }
}
