//! Whole-team checks of the compiled two-level plans, with no simulator.
//!
//! Every rank's plan for one shape runs on an abstract machine: a FIFO
//! per `(from, to, tag, plane)` channel, buffers whose bytes carry the
//! global index of the byte they hold, and a vector clock per rank. The
//! root runs first, then the other leaders, then members, so a leader
//! that forwarded a region before its members finished it would forward
//! stale bytes. Asserted:
//!
//! * **Matching** — every send pairs FIFO with one receive at the peer
//!   with the same `(from, tag)` and length, both sides of a token pack
//!   carry the same rank label, and no rank or message is left behind.
//! * **Coverage** — every byte of the root's receive buffer (gather) and
//!   of each rank's (scatter) is written exactly once, with the right
//!   byte. Offsets are compiled into the CMA steps, not sent, so this is
//!   what shows they are right.
//! * **The paper's claim** — the CMA steps on one leader buffer split
//!   into at most `k` happens-before chains: no more than `k` members
//!   move data on it at once.

use std::collections::{HashMap, VecDeque};

use kacc_collectives::hierarchical::{
    compile_hier_gather, compile_hier_gather_pipelined, compile_hier_scatter, NodeLayout,
};
use kacc_collectives::schedule::{Payload, RecvInto, Schedule, Slot, Step, TokenReg};
use kacc_comm::{CommError, RemoteToken, Tag};

/// A buffer on the abstract machine: owner rank and slot.
type Buf = (usize, Slot);
/// Bytes, each the global index of the byte it holds (`None`: unwritten).
type Bytes = Vec<Option<usize>>;
type Clock = Vec<u32>;
/// `(from, to, tag, bulk plane)`.
type Channel = (usize, usize, Tag, bool);

/// A message in flight: a token pack or a notification on the control
/// plane, a region on the bulk plane.
struct Msg {
    len: usize,
    labels: Vec<(u32, Buf)>,
    bytes: Bytes,
    clock: Clock,
}

#[derive(Default)]
struct Team {
    /// The shape, for failure messages.
    ctx: String,
    plans: Vec<Schedule>,
    pc: Vec<usize>,
    clocks: Vec<Clock>,
    regs: Vec<Vec<Option<Buf>>>,
    bufs: HashMap<Buf, Bytes>,
    queues: HashMap<Channel, VecDeque<Msg>>,
    /// Every CMA step in execution order: its target and its clock.
    cma: Vec<(Buf, Clock)>,
}

/// Wire length of a token pack: an 8-byte header and a token per entry.
fn pack_len(entries: &[(u32, Option<TokenReg>)]) -> usize {
    entries.len() * (8 + RemoteToken::WIRE_LEN)
}

/// The wire length a receive step expects.
fn wire_len(step: &Step) -> usize {
    match step {
        Step::CtrlRecv {
            into: RecvInto::Pack(want),
            ..
        } => pack_len(want),
        Step::ShmRecv { len, .. } => *len,
        _ => 0,
    }
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
    fn token(&self, r: usize, reg: Option<TokenReg>) -> Buf {
        let reg = reg.expect("two-level packs carry tokens");
        self.regs[r][reg.0 as usize].expect("token register filled before use")
    }

    fn copy(&mut self, src: Buf, src_off: usize, dst: Buf, dst_off: usize, len: usize) {
        let bytes = self.bufs[&src][src_off..src_off + len].to_vec();
        self.write(dst, dst_off, &bytes);
    }

    /// Write `bytes` at `dst[off..]`. A receive buffer's bytes are
    /// written once each, and never with a byte nobody wrote (a stale
    /// forward).
    fn write(&mut self, dst: Buf, off: usize, bytes: &[Option<usize>]) {
        let region = &mut self.bufs.get_mut(&dst).expect("buffer exists")[off..off + bytes.len()];
        if dst.1 == Slot::Recv {
            let fresh = region.iter().all(Option::is_none) && bytes.iter().all(Option::is_some);
            assert!(fresh, "{}: {dst:?} rewritten or stale at {off}", self.ctx);
        }
        region.copy_from_slice(bytes);
    }

    /// Queue a message stamped with the sender's clock.
    fn send(&mut self, ch: Channel, len: usize, labels: Vec<(u32, Buf)>, bytes: Bytes) {
        let clock = self.clocks[ch.0].clone();
        let msg = Msg {
            len,
            labels,
            bytes,
            clock,
        };
        self.queues.entry(ch).or_default().push_back(msg);
    }

    fn ready(&self, r: usize) -> bool {
        let step = self.plans[r].steps.get(self.pc[r]);
        step.is_some_and(|s| source(r, s).is_none_or(|ch| self.queues.contains_key(&ch)))
    }

    /// Run rank `r`'s next step, which must be [`Team::ready`].
    fn step(&mut self, r: usize) {
        let step = self.plans[r].steps[self.pc[r]].clone();
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
            Step::CtrlSend {
                to,
                tag,
                payload: Payload::Pack(entries),
            } => {
                let labels = entries
                    .iter()
                    .map(|&(l, g)| (l, self.token(r, g)))
                    .collect();
                self.send((r, to, tag, false), pack_len(&entries), labels, Vec::new());
            }
            Step::Notify { to, tag } => self.send((r, to, tag, false), 0, Vec::new(), Vec::new()),
            Step::ShmSend {
                to,
                tag,
                src,
                off,
                len,
            } => {
                let bytes = self.bufs[&(r, src)][off..off + len].to_vec();
                self.send((r, to, tag, true), len, Vec::new(), bytes);
            }
            Step::CtrlRecv {
                into: RecvInto::Pack(want),
                ..
            } => {
                let msg = msg.expect("a receive has a message");
                let got: Vec<u32> = msg.labels.iter().map(|&(l, _)| l).collect();
                let wanted: Vec<u32> = want.iter().map(|&(l, _)| l).collect();
                assert_eq!(got, wanted, "{}: rank {r} token pack labels", self.ctx);
                for (&(_, reg), &(_, buf)) in want.iter().zip(&msg.labels) {
                    self.regs[r][reg.expect("token entry").0 as usize] = Some(buf);
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
                let target = self.token(r, Some(token));
                self.cma.push((target, self.clocks[r].clone()));
                self.copy((r, src), src_off, target, remote_off, len);
            }
            Step::CmaRead {
                token,
                remote_off,
                dst,
                dst_off,
                len,
            } => {
                let target = self.token(r, Some(token));
                self.cma.push((target, self.clocks[r].clone()));
                self.copy(target, remote_off, (r, dst), dst_off, len);
            }
            Step::CopyLocal {
                src,
                src_off,
                dst,
                dst_off,
                len,
            } => self.copy((r, src), src_off, (r, dst), dst_off, len),
            other => panic!("rank {r}: no two-level plan emits {other:?}"),
        }
    }

    /// Most chains a first-fit cover of each target buffer's CMA steps
    /// needs. Execution order is a linear extension of happens-before,
    /// so first-fit yields a valid chain cover, which bounds from above
    /// how many of the steps can run at once.
    fn max_cma_chains(&self) -> usize {
        let mut chains: HashMap<Buf, Vec<&Clock>> = HashMap::new();
        for (target, clock) in &self.cma {
            let ends = chains.entry(*target).or_default();
            let before = |end: &&Clock| end.iter().zip(clock).all(|(a, b)| a <= b);
            match ends.iter().position(before) {
                Some(i) => ends[i] = clock,
                None => ends.push(clock),
            }
        }
        chains.values().map(Vec::len).max().unwrap_or(0)
    }
}

type Compile = fn(&NodeLayout, usize, usize, usize, usize, bool) -> Schedule;

const DESIGNS: [(&str, Compile); 3] = [
    ("gather", compile_hier_gather),
    ("pipelined gather", compile_hier_gather_pipelined),
    ("scatter", compile_hier_scatter),
];

/// Compile and run all `nodes × rpn` ranks' plans for one shape, and
/// check matching, coverage and the throttle bound.
fn check((design, compile): (&str, Compile), nodes: usize, rpn: usize, root: usize, k: usize) {
    const COUNT: usize = 3;
    let p = nodes * rpn;
    let ctx = format!("{design} {nodes}x{rpn} root={root} k={k}");
    let layout = NodeLayout::new((0..p).map(|r| r / rpn).collect()).expect("block placement");
    let labels = |lo: usize, len: usize| (lo..lo + len).map(Some).collect::<Bytes>();
    let gather = design != "scatter";
    let mut team = Team {
        ctx: ctx.clone(),
        pc: vec![0; p],
        clocks: vec![vec![0; p]; p],
        ..Team::default()
    };
    for r in 0..p {
        let plan = compile(&layout, r, COUNT, root, k, true);
        let (send, recv) = match (gather, r == root) {
            (true, true) => (labels(r * COUNT, COUNT), vec![None; p * COUNT]),
            (true, false) => (labels(r * COUNT, COUNT), Vec::new()),
            (false, true) => (labels(0, p * COUNT), vec![None; COUNT]),
            (false, false) => (Vec::new(), vec![None; COUNT]),
        };
        team.bufs.insert((r, Slot::Send), send);
        team.bufs.insert((r, Slot::Recv), recv);
        for (i, &len) in plan.temps.iter().enumerate() {
            team.bufs.insert((r, Slot::Temp(i as u32)), vec![None; len]);
        }
        team.regs.push(vec![None; plan.token_regs]);
        team.plans.push(plan);
    }

    let leaders: Vec<usize> = (0..nodes).map(|n| layout.leader(n, root)).collect();
    let mut order = vec![root];
    order.extend(leaders.iter().copied().filter(|&l| l != root));
    order.extend((0..p).filter(|r| !leaders.contains(r)));
    while let Some(&r) = order.iter().find(|&&r| team.ready(r)) {
        team.step(r);
    }
    for (r, plan) in team.plans.iter().enumerate() {
        let at = plan.steps.get(team.pc[r]);
        assert!(at.is_none(), "{ctx}: rank {r} blocked at {at:?}");
    }
    assert!(team.queues.is_empty(), "{ctx}: unmatched sends");

    for r in 0..p {
        let want = match (gather, r == root) {
            (true, true) => labels(0, p * COUNT),
            (true, false) => continue,
            (false, _) => labels(r * COUNT, COUNT),
        };
        assert_eq!(
            team.bufs[&(r, Slot::Recv)],
            want,
            "{ctx}: rank {r} received"
        );
    }
    let chains = team.max_cma_chains();
    assert!(
        chains <= k,
        "{ctx}: {chains} CMA steps can run at once on one buffer"
    );
}

#[test]
fn two_level_plans_match_cover_and_throttle_on_every_shape() {
    for nodes in 1..=4 {
        for rpn in [1, 2, 3, 5, 16] {
            let p = nodes * rpn;
            let mut roots = vec![0, p - 1, (nodes / 2) * rpn + rpn / 2];
            roots.dedup();
            let mut ks = vec![1, 2, 4, rpn];
            ks.sort_unstable();
            ks.dedup();
            for &root in &roots {
                for &k in &ks {
                    for design in DESIGNS {
                        check(design, nodes, rpn, root, k);
                    }
                }
            }
        }
    }
}

#[test]
fn only_block_placement_has_a_layout() {
    let layout = NodeLayout::new(vec![0, 0, 1, 1, 1]).expect("block placement");
    assert_eq!(layout.nodes, vec![vec![0, 1], vec![2, 3, 4]]);
    assert_eq!((layout.leader(1, 0), layout.leader(1, 3)), (2, 3));
    for scattered in [vec![0, 1, 0, 1], vec![0, 0, 2, 2]] {
        assert!(matches!(
            NodeLayout::new(scattered),
            Err(CommError::Protocol(_))
        ));
    }
}
