//! Transport-agnostic communication schedules (compile phase).
//!
//! A [`Schedule`] is the per-rank, fully-ordered list of primitive
//! operations one rank performs during a collective — the result of
//! *compiling* an algorithm for a concrete `(p, rank, counts, root)`
//! shape. Compilation is pure (no `Comm` involved); the companion
//! executor ([`crate::exec`]) binds the schedule's symbolic buffer
//! [`Slot`]s to real `BufId`s and replays the steps on any transport.
//!
//! Splitting collectives into compile + execute buys three things:
//!
//! 1. **Plan reuse** — an application calling the same collective shape
//!    repeatedly (the common MPI pattern) pays the tree/round bookkeeping
//!    once; [`PlanCache`] memoizes compiled schedules behind an LRU.
//! 2. **Costing** — `kacc-model` can walk the IR and price a schedule
//!    with the paper's contention model without executing it
//!    (`Tuner::cost_schedule`), so tuning decisions and execution share
//!    one source of truth.
//! 3. **Inspection** — tests and tools can assert on the exact op
//!    sequence a rank will issue (op counts, byte volumes, tag usage)
//!    independent of any transport.
//!
//! Compiled schedules were built *traffic-identical* to the hand-written
//! direct implementations they replaced: same tags, same message
//! ordering, same wire bytes on the control plane, same CMA transfers.
//! Those bodies are gone; `tests/collective_pins.rs` at the repository
//! root holds their virtual end times, which the compiled plans still
//! reach.
//!
//! The rooted family is one builder: a Gather is a Scatter with the CMA
//! direction reversed, and a direct Bcast is a Scatter whose every block
//! is the whole buffer. [`compile_scatter`], [`compile_gather`] and the
//! direct arms of [`compile_bcast`] only describe their slots, direction,
//! pattern (parallel, sequential, throttled), layout and own-block copy
//! to it. Compilers assume a checked call; the entries check theirs over
//! the [`PlanKey`] before compiling, outside this module, which never
//! sees a `Comm`.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

use kacc_comm::{smcoll, RemoteToken, Tag};

use crate::allgather::AllgatherAlgo;
use crate::alltoall::AlltoallAlgo;
use crate::bcast::BcastAlgo;
use crate::gather::GatherAlgo;
use crate::pt2pt::{Algo as Pt2ptAlgo, Protocol};
use crate::reduce::{Dtype, ReduceAlgo, ReduceOp};
use crate::scatter::{build_layout, ScatterAlgo};
use crate::{class, unvrank, vrank};

/// Symbolic buffer the executor resolves to a `BufId` at bind time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// The caller's send-side buffer (`sendbuf`, or the single data
    /// buffer for rootless/broadcast shapes).
    Send,
    /// The caller's receive-side buffer.
    Recv,
    /// The `i`-th scratch buffer; the executor allocates it with the
    /// length recorded in [`Schedule::temps`] and frees it afterwards.
    Temp(u32),
}

/// Index of a token register: a slot the executor fills with a
/// `RemoteToken` (from `expose` or from a decoded control message) and
/// that later CMA steps reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenReg(pub u32);

/// What a compiled control-plane send puts on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Literal bytes known at compile time (e.g. a recursive-doubling
    /// have-set, or an empty synchronization message).
    Bytes(Vec<u8>),
    /// The 16-byte wire form of the token currently in a register.
    Token(TokenReg),
    /// `smcoll` entry-pack format: per entry a `(rank, payload)` pair
    /// where the payload is the register's token bytes (`Some`) or empty
    /// (`None`). Matches `smcoll::encode_entries`.
    Pack(Vec<(u32, Option<TokenReg>)>),
    /// `len` bytes of `slot` at `off`: an eager message's data.
    Region {
        /// Buffer holding the data.
        slot: Slot,
        /// Offset of the data.
        off: usize,
        /// Bytes to send.
        len: usize,
    },
    /// A rendezvous request-to-send announcing `len` bytes. With a token
    /// register it is the CMA form, the register's token ‖ `off` ‖ `len`
    /// (32 bytes, `off` and `len` little-endian u64s); without, the
    /// network form, `len` alone (8 bytes).
    Rts {
        /// Register holding the token of the exposed buffer (CMA form).
        token: Option<TokenReg>,
        /// Offset of the announced data in the exposed buffer.
        off: usize,
        /// Bytes announced.
        len: usize,
    },
}

impl Payload {
    /// Bytes this payload puts on the wire.
    pub fn wire_len(&self) -> usize {
        match self {
            Payload::Bytes(b) => b.len(),
            Payload::Token(_) => RemoteToken::WIRE_LEN,
            Payload::Pack(entries) => pack_wire_len(entries),
            Payload::Region { len, .. } => *len,
            Payload::Rts { token, .. } => rts_wire_len(*token),
        }
    }
}

/// Wire length of an `smcoll` entry pack: per entry an 8-byte header and
/// its token, if it carries one.
fn pack_wire_len(entries: &[(u32, Option<TokenReg>)]) -> usize {
    entries
        .iter()
        .map(|(_, reg)| 8 + reg.map_or(0, |_| RemoteToken::WIRE_LEN))
        .sum()
}

/// Wire length of a request-to-send: 8 bytes of length, after the token
/// and its offset in the CMA form.
fn rts_wire_len(token: Option<TokenReg>) -> usize {
    token.map_or(0, |_| RemoteToken::WIRE_LEN + 8) + 8
}

/// What a compiled control-plane receive does with the message body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvInto {
    /// Drop the body (still blocks for the message).
    Discard,
    /// Require the body to equal these bytes exactly — used where the
    /// algorithm validates a compile-time-predictable message (e.g.
    /// recursive-doubling have-sets).
    Verify(Vec<u8>),
    /// Parse the body as one 16-byte `RemoteToken` into a register.
    Token(TokenReg),
    /// Parse the body as an `smcoll` entry pack; each entry's rank label
    /// must match, tokens land in `Some` registers, empty payloads are
    /// required where `None`.
    Pack(Vec<(u32, Option<TokenReg>)>),
    /// Store the body, which must be `len` bytes, at `off` in `slot`: an
    /// eager message's data.
    Region {
        /// Destination buffer.
        slot: Slot,
        /// Destination offset.
        off: usize,
        /// Bytes expected.
        len: usize,
    },
    /// Parse a [`Payload::Rts`] of the same form: an announced length
    /// other than `len` is [`kacc_comm::CommError::Truncated`]; the CMA
    /// form's token lands in the register, and its offset must be `off`.
    Rts {
        /// Register receiving the sender's token (CMA form).
        token: Option<TokenReg>,
        /// Offset the sender must announce (CMA form).
        off: usize,
        /// Bytes the sender must announce.
        len: usize,
    },
}

impl RecvInto {
    /// Bytes this receive expects on the wire (0 for [`RecvInto::Discard`],
    /// which takes any body).
    pub fn wire_len(&self) -> usize {
        match self {
            RecvInto::Discard => 0,
            RecvInto::Verify(b) => b.len(),
            RecvInto::Token(_) => RemoteToken::WIRE_LEN,
            RecvInto::Pack(entries) => pack_wire_len(entries),
            RecvInto::Region { len, .. } => *len,
            RecvInto::Rts { token, .. } => rts_wire_len(*token),
        }
    }
}

/// One primitive operation in a compiled schedule. Each maps 1:1 onto a
/// `Comm` method; the executor replays them in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// `expose(slot)` → store the token in `reg`.
    Expose {
        /// Buffer to expose.
        slot: Slot,
        /// Register receiving the resulting token.
        reg: TokenReg,
    },
    /// Single-copy read from the remote buffer behind `token`.
    CmaRead {
        /// Register holding the remote token.
        token: TokenReg,
        /// Offset in the remote buffer.
        remote_off: usize,
        /// Local destination slot.
        dst: Slot,
        /// Offset in the local destination.
        dst_off: usize,
        /// Bytes to move.
        len: usize,
    },
    /// Single-copy write into the remote buffer behind `token`.
    CmaWrite {
        /// Register holding the remote token.
        token: TokenReg,
        /// Offset in the remote buffer.
        remote_off: usize,
        /// Local source slot.
        src: Slot,
        /// Offset in the local source.
        src_off: usize,
        /// Bytes to move.
        len: usize,
    },
    /// Local `memcpy` between two slots (charged copy).
    CopyLocal {
        /// Source slot.
        src: Slot,
        /// Source offset.
        src_off: usize,
        /// Destination slot.
        dst: Slot,
        /// Destination offset.
        dst_off: usize,
        /// Bytes to copy.
        len: usize,
    },
    /// Buffered control-plane send.
    CtrlSend {
        /// Destination rank.
        to: usize,
        /// Message tag.
        tag: Tag,
        /// Body to render at execution time.
        payload: Payload,
    },
    /// Blocking control-plane receive.
    CtrlRecv {
        /// Source rank.
        from: usize,
        /// Message tag.
        tag: Tag,
        /// What to do with the body.
        into: RecvInto,
    },
    /// 0-byte notification send.
    Notify {
        /// Destination rank.
        to: usize,
        /// Message tag.
        tag: Tag,
    },
    /// Blocking wait for a 0-byte notification.
    WaitNotify {
        /// Source rank.
        from: usize,
        /// Message tag.
        tag: Tag,
    },
    /// Two-copy shared-memory bulk send.
    ShmSend {
        /// Destination rank.
        to: usize,
        /// Message tag.
        tag: Tag,
        /// Local source slot.
        src: Slot,
        /// Source offset.
        off: usize,
        /// Bytes to send.
        len: usize,
    },
    /// Two-copy shared-memory bulk receive.
    ShmRecv {
        /// Source rank.
        from: usize,
        /// Message tag.
        tag: Tag,
        /// Local destination slot.
        dst: Slot,
        /// Destination offset.
        off: usize,
        /// Bytes to receive.
        len: usize,
    },
    /// Element-wise reduction `acc[..] = acc[..] op src[..]` over `len`
    /// bytes, interpreted per `dtype`.
    Reduce {
        /// Reduction operator.
        op: crate::ReduceOp,
        /// Element type.
        dtype: crate::Dtype,
        /// Accumulator slot (read-modify-write).
        acc: Slot,
        /// Accumulator offset.
        acc_off: usize,
        /// Source slot.
        src: Slot,
        /// Source offset.
        src_off: usize,
        /// Bytes to reduce.
        len: usize,
    },
}

/// A compiled, per-rank collective plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Number of ranks the plan was compiled for.
    pub p: usize,
    /// The rank this plan belongs to.
    pub rank: usize,
    /// Number of token registers the executor must provide.
    pub token_regs: usize,
    /// Lengths of the scratch buffers (`Slot::Temp(i)` ↔ `temps[i]`).
    pub temps: Vec<usize>,
    /// The ordered operation list.
    pub steps: Vec<Step>,
    /// Collective tag class (`crate::class`) this plan belongs to —
    /// attached to executor trace spans for per-collective attribution.
    pub class: Option<u32>,
}

impl Schedule {
    /// Count steps of each CMA kind — convenience for tests/tools.
    pub fn count_cma(&self) -> (usize, usize) {
        let mut reads = 0;
        let mut writes = 0;
        for s in &self.steps {
            match s {
                Step::CmaRead { .. } => reads += 1,
                Step::CmaWrite { .. } => writes += 1,
                _ => {}
            }
        }
        (reads, writes)
    }
}

/// What a compiled sm-primitive carries: nothing, or one token register.
#[derive(Clone, Copy)]
enum SmContent {
    Empty,
    Token(TokenReg),
}

/// Builder accumulating steps and allocating registers/temps while a
/// compile function walks its algorithm's structure.
pub(crate) struct Builder {
    p: usize,
    rank: usize,
    class: Option<u32>,
    regs: u32,
    temps: Vec<usize>,
    steps: Vec<Step>,
}

impl Builder {
    pub(crate) fn new(p: usize, rank: usize, class: u32) -> Builder {
        Builder {
            p,
            rank,
            class: Some(class),
            regs: 0,
            temps: Vec::new(),
            steps: Vec::new(),
        }
    }

    pub(crate) fn reg(&mut self) -> TokenReg {
        let r = TokenReg(self.regs);
        self.regs += 1;
        r
    }

    pub(crate) fn temp(&mut self, len: usize) -> Slot {
        let i = self.temps.len() as u32;
        self.temps.push(len);
        Slot::Temp(i)
    }

    pub(crate) fn push(&mut self, s: Step) {
        self.steps.push(s);
    }

    pub(crate) fn finish(self) -> Schedule {
        Schedule {
            p: self.p,
            rank: self.rank,
            token_regs: self.regs as usize,
            temps: self.temps,
            steps: self.steps,
            class: self.class,
        }
    }

    // ---- compiled smcoll primitives --------------------------------
    //
    // The small-message bootstrap trees (binomial bcast and gather,
    // Bruck allgather, dissemination barrier), with `kacc_comm::smcoll`'s
    // tags and wire format: the barrier rounds are message for message
    // those of `smcoll::sm_barrier`.

    /// Virtual-rank children in a binomial tree, in the bit-ascending
    /// order the compiled trees send/receive them.
    pub(crate) fn binomial_children(v: usize, p: usize) -> Vec<usize> {
        let low = if v == 0 {
            usize::MAX
        } else {
            v & v.wrapping_neg()
        };
        let mut out = Vec::new();
        let mut bit = 1usize;
        while bit < p {
            if bit < low {
                let child = v | bit;
                if child != v && child < p {
                    out.push(child);
                }
            }
            bit <<= 1;
        }
        out
    }

    /// The virtual ranks in `v`'s binomial subtree, in the order their
    /// entries appear in an `sm_gather` pack ( `v` first, then each
    /// child's subtree in bit-ascending order).
    fn binomial_subtree(v: usize, p: usize) -> Vec<usize> {
        let mut out = vec![v];
        for c in Self::binomial_children(v, p) {
            out.extend(Self::binomial_subtree(c, p));
        }
        out
    }

    /// Binomial broadcast (`smcoll::class::BCAST`) carrying `content`
    /// from `root` to all.
    fn emit_sm_bcast(&mut self, root: usize, content: SmContent) {
        let p = self.p;
        if p == 1 {
            return;
        }
        let tag = Tag::internal(smcoll::class::BCAST, 0);
        let v = vrank(self.rank, root, p);
        if v != 0 {
            let parent = v & (v - 1);
            let into = match content {
                SmContent::Empty => RecvInto::Verify(Vec::new()),
                SmContent::Token(r) => RecvInto::Token(r),
            };
            self.push(Step::CtrlRecv {
                from: unvrank(parent, root, p),
                tag,
                into,
            });
        }
        for child in Self::binomial_children(v, p) {
            let payload = match content {
                SmContent::Empty => Payload::Bytes(Vec::new()),
                SmContent::Token(r) => Payload::Token(r),
            };
            self.push(Step::CtrlSend {
                to: unvrank(child, root, p),
                tag,
                payload,
            });
        }
    }

    /// Binomial gather (`smcoll::class::GATHER`). `has_token(r)` says
    /// whether real rank `r` contributes a 16-byte token (vs an empty
    /// payload) — every rank must agree on this predicate. `my_reg` is this rank's
    /// own token register iff `has_token(rank)`.
    ///
    /// At the root, returns `Some(map)` with one `Option<TokenReg>` per
    /// real rank; elsewhere returns `None` (pass-through registers are
    /// allocated internally).
    fn emit_sm_gather(
        &mut self,
        root: usize,
        has_token: impl Fn(usize) -> bool,
        my_reg: Option<TokenReg>,
    ) -> Option<Vec<Option<TokenReg>>> {
        let p = self.p;
        debug_assert_eq!(my_reg.is_some(), has_token(self.rank));
        if p == 1 {
            return Some(vec![my_reg]);
        }
        let tag = Tag::internal(smcoll::class::GATHER, 0);
        let v = vrank(self.rank, root, p);

        // Register for every real rank in our subtree (ours included).
        let mut regs: HashMap<usize, Option<TokenReg>> = HashMap::new();
        regs.insert(self.rank, my_reg);

        for child in Self::binomial_children(v, p) {
            let mut entries = Vec::new();
            for cv in Self::binomial_subtree(child, p) {
                let real = unvrank(cv, root, p);
                let reg = if has_token(real) {
                    Some(self.reg())
                } else {
                    None
                };
                regs.insert(real, reg);
                entries.push((real as u32, reg));
            }
            self.push(Step::CtrlRecv {
                from: unvrank(child, root, p),
                tag,
                into: RecvInto::Pack(entries),
            });
        }

        if v == 0 {
            let mut out = vec![None; p];
            for (real, reg) in regs {
                out[real] = reg;
            }
            Some(out)
        } else {
            // Forward our whole subtree to the parent in pack order.
            let entries: Vec<(u32, Option<TokenReg>)> = Self::binomial_subtree(v, p)
                .into_iter()
                .map(|sv| {
                    let real = unvrank(sv, root, p);
                    (real as u32, regs[&real])
                })
                .collect();
            let parent = v & (v - 1);
            self.push(Step::CtrlSend {
                to: unvrank(parent, root, p),
                tag,
                payload: Payload::Pack(entries),
            });
            None
        }
    }

    /// Bruck allgather (`smcoll::class::ALLGATHER`) where every rank
    /// contributes one token (`my_reg`): ⌈log₂ p⌉ rounds, each sending
    /// every entry gathered so far. Returns the register holding each
    /// real rank's token, indexed by rank.
    fn emit_sm_allgather(&mut self, my_reg: TokenReg) -> Vec<TokenReg> {
        let p = self.p;
        let me = self.rank;
        let mut regs: Vec<Option<TokenReg>> = vec![None; p];
        regs[me] = Some(my_reg);
        if p == 1 {
            return vec![my_reg];
        }
        // Allocate a register for every peer's token up front; Bruck
        // slot `i` holds the payload of rank (me + i) mod p.
        for i in 1..p {
            regs[(me + i) % p] = Some(self.reg());
        }
        let slot_rank = |i: usize| (me + i) % p;

        let mut filled = 1usize;
        let mut dist = 1usize;
        let mut round = 0u32;
        while dist < p {
            let tag = Tag::internal(smcoll::class::ALLGATHER, round);
            let send_to = (me + p - dist) % p;
            let recv_from = (me + dist) % p;
            let send_count = dist.min(p - filled);
            let send_entries: Vec<(u32, Option<TokenReg>)> = (0..send_count)
                .map(|i| {
                    (
                        slot_rank(i) as u32,
                        Some(regs[slot_rank(i)].expect("ring invariant: slot already filled")),
                    )
                })
                .collect();
            self.push(Step::CtrlSend {
                to: send_to,
                tag,
                payload: Payload::Pack(send_entries),
            });
            // The sender's pack is symmetric: it fills our slots
            // dist..dist+send_count, i.e. ranks (recv_from + i) mod p.
            let recv_entries: Vec<(u32, Option<TokenReg>)> = (0..send_count)
                .map(|i| {
                    let r = (recv_from + i) % p;
                    (
                        r as u32,
                        Some(regs[r].expect("ring invariant: slot already filled")),
                    )
                })
                .collect();
            self.push(Step::CtrlRecv {
                from: recv_from,
                tag,
                into: RecvInto::Pack(recv_entries),
            });
            filled += send_count;
            dist <<= 1;
            round += 1;
        }
        regs.into_iter()
            .map(|r| r.expect("dissemination fills every register"))
            .collect()
    }

    /// Compiled `smcoll::sm_barrier` (dissemination).
    fn emit_sm_barrier(&mut self) {
        let p = self.p;
        let me = self.rank;
        let mut dist = 1usize;
        let mut round = 0u32;
        while dist < p {
            let tag = Tag::internal(smcoll::class::BARRIER, round);
            self.push(Step::Notify {
                to: (me + dist) % p,
                tag,
            });
            self.push(Step::WaitNotify {
                from: (me + p - dist) % p,
                tag,
            });
            dist <<= 1;
            round += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Rooted plans: Scatter, Gather and direct Bcast
// ---------------------------------------------------------------------

/// How the leaves of a rooted plan take turns at the root's buffer.
#[derive(Clone, Copy)]
enum Pattern {
    /// Every leaf moves its own block at once.
    Parallel,
    /// The root moves every leaf's block in turn.
    Sequential,
    /// At most `k` leaves move their blocks at once, each unblocking the
    /// leaf `k` places after it in virtual-rank order.
    Throttled(usize),
}

/// One member of the rooted family. A Gather is a Scatter with the CMA
/// direction reversed (§IV-B), and a direct Bcast is a Scatter in which
/// every rank's block is the whole buffer (§V-B1).
struct Rooted<'a> {
    /// Tag class of the plan.
    class: u32,
    /// The root's buffer, which holds every rank's block.
    root_slot: Slot,
    /// A leaf's buffer, which holds its own block.
    leaf_slot: Slot,
    /// Data flows from the root to the leaves: a leaf's own transfer is
    /// a `CmaRead` (and the root's a `CmaWrite`), else the reverse.
    leaves_read: bool,
    pattern: Pattern,
    /// Rank `r`'s block: `(offset in the root's buffer, len)`.
    layout: &'a [(usize, usize)],
    /// The root copies its own block from [`Slot::Send`] to
    /// [`Slot::Recv`], the layout offset on the root's side.
    own_copy: bool,
}

impl Rooted<'_> {
    fn copy_own_block(&self, b: &mut Builder, root: usize) {
        let (off, len) = self.layout[root];
        if self.own_copy && len > 0 {
            let (src_off, dst_off) = if self.leaves_read { (off, 0) } else { (0, off) };
            b.push(Step::CopyLocal {
                src: Slot::Send,
                src_off,
                dst: Slot::Recv,
                dst_off,
                len,
            });
        }
    }

    /// A leaf moving its own block through the root's token.
    fn leaf_cma(&self, token: TokenReg, (off, len): (usize, usize)) -> Step {
        cma(self.leaves_read, token, off, self.leaf_slot, 0, len)
    }

    /// The root moving a leaf's block through that leaf's token.
    fn root_cma(&self, token: TokenReg, (off, len): (usize, usize)) -> Step {
        cma(!self.leaves_read, token, 0, self.root_slot, off, len)
    }
}

/// A CMA step between `slot` at `off` and the remote buffer behind
/// `token` at `remote_off`: a read into the slot when `read`, else a
/// write from it.
fn cma(read: bool, token: TokenReg, remote_off: usize, slot: Slot, off: usize, len: usize) -> Step {
    if read {
        Step::CmaRead {
            token,
            remote_off,
            dst: slot,
            dst_off: off,
            len,
        }
    } else {
        Step::CmaWrite {
            token,
            remote_off,
            src: slot,
            src_off: off,
            len,
        }
    }
}

/// Compile one rank's plan of a rooted family member.
fn compile_rooted(plan: &Rooted<'_>, p: usize, rank: usize, root: usize) -> Schedule {
    let mut b = Builder::new(p, rank, plan.class);
    let block = plan.layout[rank];
    let throttle = match plan.pattern {
        Pattern::Parallel => None,
        Pattern::Throttled(k) => Some(k),
        Pattern::Sequential => {
            // Leaves with a block expose their buffers and the root
            // gathers the tokens, then moves the blocks one at a time.
            let has_token = |r: usize| r != root && plan.layout[r].1 > 0;
            if rank == root {
                let map = b
                    .emit_sm_gather(root, has_token, None)
                    .expect("root receives the gather map");
                plan.copy_own_block(&mut b, root);
                for v in 1..p {
                    let r = unvrank(v, root, p);
                    if plan.layout[r].1 > 0 {
                        let token = map[r].expect("peer with data exposed a token");
                        b.push(plan.root_cma(token, plan.layout[r]));
                    }
                }
            } else {
                let my_reg = (block.1 > 0).then(|| {
                    let reg = b.reg();
                    b.push(Step::Expose {
                        slot: plan.leaf_slot,
                        reg,
                    });
                    reg
                });
                b.emit_sm_gather(root, has_token, my_reg);
            }
            b.emit_sm_bcast(root, SmContent::Empty);
            return b.finish();
        }
    };
    // The root exposes its buffer and broadcasts the token; each leaf
    // moves its own block.
    let tag_done = Tag::internal(plan.class, 1);
    let tag_chain = Tag::internal(plan.class, 2);
    let reg = b.reg();
    if rank == root {
        b.push(Step::Expose {
            slot: plan.root_slot,
            reg,
        });
        b.emit_sm_bcast(root, SmContent::Token(reg));
        plan.copy_own_block(&mut b, root);
        if let Some(k) = throttle {
            // The last k leaves in virtual order report completion.
            for v in (1..p).filter(|v| v + k > p - 1) {
                b.push(Step::WaitNotify {
                    from: unvrank(v, root, p),
                    tag: tag_done,
                });
            }
        }
    } else {
        b.emit_sm_bcast(root, SmContent::Token(reg));
        let v = vrank(rank, root, p);
        if let Some(k) = throttle.filter(|&k| v > k) {
            b.push(Step::WaitNotify {
                from: unvrank(v - k, root, p),
                tag: tag_chain,
            });
        }
        if block.1 > 0 {
            b.push(plan.leaf_cma(reg, block));
        }
        if let Some(k) = throttle {
            b.push(if v + k < p {
                Step::Notify {
                    to: unvrank(v + k, root, p),
                    tag: tag_chain,
                }
            } else {
                Step::Notify {
                    to: root,
                    tag: tag_done,
                }
            });
        }
    }
    if throttle.is_none() {
        b.emit_sm_gather(root, |_| false, None);
    }
    b.finish()
}

/// Compile one rank's scatter plan. `layout[r] = (offset, len)` into the
/// root's send buffer; bindings: [`Slot::Send`] = root `sendbuf`,
/// [`Slot::Recv`] = `recvbuf`. Callers must have validated the inputs
/// (`p > 1`, not all counts zero, `k >= 1` for throttled).
pub fn compile_scatter(
    algo: ScatterAlgo,
    p: usize,
    rank: usize,
    layout: &[(usize, usize)],
    root: usize,
    has_recvbuf: bool,
) -> Schedule {
    let pattern = match algo {
        ScatterAlgo::ParallelRead => Pattern::Parallel,
        ScatterAlgo::SequentialWrite => Pattern::Sequential,
        ScatterAlgo::ThrottledRead { k } => Pattern::Throttled(k),
    };
    let plan = Rooted {
        class: class::SCATTER,
        root_slot: Slot::Send,
        leaf_slot: Slot::Recv,
        leaves_read: true,
        pattern,
        layout,
        own_copy: has_recvbuf,
    };
    compile_rooted(&plan, p, rank, root)
}

/// Compile one rank's gather plan. `layout[r] = (offset, len)` into the
/// root's receive buffer; bindings: [`Slot::Send`] = `sendbuf`,
/// [`Slot::Recv`] = root `recvbuf`.
pub fn compile_gather(
    algo: GatherAlgo,
    p: usize,
    rank: usize,
    layout: &[(usize, usize)],
    root: usize,
    has_sendbuf: bool,
) -> Schedule {
    let pattern = match algo {
        GatherAlgo::ParallelWrite => Pattern::Parallel,
        GatherAlgo::SequentialRead => Pattern::Sequential,
        GatherAlgo::ThrottledWrite { k } => Pattern::Throttled(k),
    };
    let plan = Rooted {
        class: class::GATHER,
        root_slot: Slot::Recv,
        leaf_slot: Slot::Send,
        leaves_read: false,
        pattern,
        layout,
        own_copy: has_sendbuf,
    };
    compile_rooted(&plan, p, rank, root)
}

// ---------------------------------------------------------------------
// Bcast
// ---------------------------------------------------------------------

/// Compile one rank's broadcast plan. Binding: [`Slot::Send`] = the data
/// buffer on every rank. Callers must have validated `p > 1`,
/// `count > 0`, and `radix >= 2` for k-nomial.
pub fn compile_bcast(
    algo: BcastAlgo,
    p: usize,
    rank: usize,
    count: usize,
    root: usize,
) -> Schedule {
    let direct = match algo {
        BcastAlgo::DirectRead => Some(Pattern::Parallel),
        BcastAlgo::DirectWrite => Some(Pattern::Sequential),
        _ => None,
    };
    if let Some(pattern) = direct {
        let layout = vec![(0, count); p];
        let plan = Rooted {
            class: class::BCAST,
            root_slot: Slot::Send,
            leaf_slot: Slot::Send,
            leaves_read: true,
            pattern,
            layout: &layout,
            own_copy: false,
        };
        return compile_rooted(&plan, p, rank, root);
    }
    let mut b = Builder::new(p, rank, class::BCAST);
    let tag_data = Tag::internal(class::BCAST, 0);
    let tag_read_done = Tag::internal(class::BCAST, 1);
    let me = rank;

    match algo {
        BcastAlgo::DirectRead | BcastAlgo::DirectWrite => unreachable!("compiled as rooted plans"),
        BcastAlgo::KNomial { radix } => {
            let k = radix;
            let v = vrank(me, root, p);
            if v != 0 {
                // Join the tree: receive the parent's token, pull, ack.
                let mut kpow = 1usize;
                while kpow * k <= v {
                    kpow *= k;
                }
                let parent = unvrank(v % kpow, root, p);
                let preg = b.reg();
                b.push(Step::CtrlRecv {
                    from: parent,
                    tag: tag_data,
                    into: RecvInto::Token(preg),
                });
                b.push(Step::CmaRead {
                    token: preg,
                    remote_off: 0,
                    dst: Slot::Send,
                    dst_off: 0,
                    len: count,
                });
                b.push(Step::Notify {
                    to: parent,
                    tag: tag_read_done,
                });
            }
            // Serve our own children, bounded k-1 readers per level.
            let reg = b.reg();
            b.push(Step::Expose {
                slot: Slot::Send,
                reg,
            });
            let mut kpow = 1usize;
            while kpow <= v {
                kpow *= k;
            }
            while kpow < p {
                let children: Vec<usize> = (1..k)
                    .map(|m| v + m * kpow)
                    .filter(|&c| c < p)
                    .map(|c| unvrank(c, root, p))
                    .collect();
                for &c in &children {
                    b.push(Step::CtrlSend {
                        to: c,
                        tag: tag_data,
                        payload: Payload::Token(reg),
                    });
                }
                for &c in &children {
                    b.push(Step::WaitNotify {
                        from: c,
                        tag: tag_read_done,
                    });
                }
                kpow *= k;
            }
        }
        BcastAlgo::ScatterAllgather => {
            let step_tag = Tag::internal(class::BCAST, 2);
            let chunk = count.div_ceil(p);
            let chunk_range = |i: usize| {
                let off = i * chunk;
                (off, count.saturating_sub(off).min(chunk))
            };
            let v = vrank(me, root, p);
            let reg = b.reg();
            b.push(Step::Expose {
                slot: Slot::Send,
                reg,
            });
            let toks = b.emit_sm_allgather(reg);

            // Phase A: root scatters chunk i to virtual rank i.
            if v == 0 {
                for i in 1..p {
                    let (off, len) = chunk_range(i);
                    if len == 0 {
                        continue;
                    }
                    let dst = unvrank(i, root, p);
                    b.push(Step::CmaWrite {
                        token: toks[dst],
                        remote_off: off,
                        src: Slot::Send,
                        src_off: off,
                        len,
                    });
                }
            }
            b.emit_sm_bcast(root, SmContent::Empty);

            // Phase B: ring allgather of the chunks, reading from the
            // left neighbour, gated by step notifications.
            let left = unvrank((v + p - 1) % p, root, p);
            let right = unvrank((v + 1) % p, root, p);
            if v == 0 {
                for _ in 2..p {
                    b.push(Step::Notify {
                        to: right,
                        tag: step_tag,
                    });
                }
            } else {
                for t in 1..p {
                    if t > 1 {
                        b.push(Step::WaitNotify {
                            from: left,
                            tag: step_tag,
                        });
                    }
                    let src_v = (v + p - t) % p;
                    let (off, len) = chunk_range(src_v);
                    if len > 0 {
                        b.push(Step::CmaRead {
                            token: toks[left],
                            remote_off: off,
                            dst: Slot::Send,
                            dst_off: off,
                            len,
                        });
                    }
                    if t < p - 1 && right != unvrank(0, root, p) {
                        b.push(Step::Notify {
                            to: right,
                            tag: step_tag,
                        });
                    }
                }
            }
            b.emit_sm_barrier();
        }
    }
    b.finish()
}

// ---------------------------------------------------------------------
// Allgather
// ---------------------------------------------------------------------

/// Compile one rank's allgather plan. Bindings: [`Slot::Send`] = this
/// rank's contribution (optional; when absent the contribution already
/// sits at `recvbuf[rank*count..]`), [`Slot::Recv`] = the full receive
/// buffer. Callers must have validated `p > 1`, `count > 0`, and for
/// `RingNeighbor` must pass the stride already reduced mod `p` and
/// coprime with `p`.
pub fn compile_allgather(
    algo: AllgatherAlgo,
    p: usize,
    rank: usize,
    count: usize,
    has_sendbuf: bool,
) -> Schedule {
    let mut b = Builder::new(p, rank, class::ALLGATHER);
    let tag_ring = Tag::internal(class::ALLGATHER, 0);
    let me = rank;

    let place_own = |b: &mut Builder| {
        if has_sendbuf {
            b.push(Step::CopyLocal {
                src: Slot::Send,
                src_off: 0,
                dst: Slot::Recv,
                dst_off: me * count,
                len: count,
            });
        }
    };

    match algo {
        AllgatherAlgo::RingNeighbor { j } => {
            let j = j % p;
            place_own(&mut b);
            let reg = b.reg();
            b.push(Step::Expose {
                slot: Slot::Recv,
                reg,
            });
            let toks = b.emit_sm_allgather(reg);
            let left = (me + p - j) % p;
            let right = (me + j) % p;
            b.push(Step::Notify {
                to: right,
                tag: tag_ring,
            });
            for i in 1..p {
                let block = (me + p - (i * j) % p) % p;
                b.push(Step::WaitNotify {
                    from: left,
                    tag: tag_ring,
                });
                b.push(Step::CmaRead {
                    token: toks[left],
                    remote_off: block * count,
                    dst: Slot::Recv,
                    dst_off: block * count,
                    len: count,
                });
                if i < p - 1 {
                    b.push(Step::Notify {
                        to: right,
                        tag: tag_ring,
                    });
                }
            }
            b.emit_sm_barrier();
        }
        AllgatherAlgo::RingSourceRead | AllgatherAlgo::RingSourceWrite => {
            let write = matches!(algo, AllgatherAlgo::RingSourceWrite);
            place_own(&mut b);
            let reg = b.reg();
            // Readers pull from the peer's contribution buffer when one
            // exists (offset 0), else from its slot in recvbuf.
            let read_from_slot = if !write && has_sendbuf {
                b.push(Step::Expose {
                    slot: Slot::Send,
                    reg,
                });
                false
            } else {
                b.push(Step::Expose {
                    slot: Slot::Recv,
                    reg,
                });
                true
            };
            let toks = b.emit_sm_allgather(reg);
            for i in 1..p {
                if write {
                    let dst = (me + i) % p;
                    b.push(Step::CmaWrite {
                        token: toks[dst],
                        remote_off: me * count,
                        src: Slot::Recv,
                        src_off: me * count,
                        len: count,
                    });
                } else {
                    let src = (me + p - i) % p;
                    let remote_off = if read_from_slot { src * count } else { 0 };
                    b.push(Step::CmaRead {
                        token: toks[src],
                        remote_off,
                        dst: Slot::Recv,
                        dst_off: src * count,
                        len: count,
                    });
                }
            }
            b.emit_sm_barrier();
        }
        AllgatherAlgo::RecursiveDoubling => {
            place_own(&mut b);
            let reg = b.reg();
            b.push(Step::Expose {
                slot: Slot::Recv,
                reg,
            });
            let toks = b.emit_sm_allgather(reg);

            // Simulate every rank's have-set to compile-time-predict the
            // exchanged bitmaps; the compiled schedule sends our
            // round-start snapshot and *verifies* the partner's, which
            // is byte-identical to an exchange of live have-sets.
            let mut have: Vec<Vec<bool>> =
                (0..p).map(|r| (0..p).map(|bk| bk == r).collect()).collect();
            let mut dist = 1usize;
            let mut round = 0u32;
            while dist < p {
                let snapshot = have.clone();
                let tag = Tag::internal(class::ALLGATHER, 16 + round);
                let partner = me ^ dist;
                if partner < p {
                    let mine: Vec<u8> = snapshot[me].iter().map(|&h| h as u8).collect();
                    let theirs: Vec<u8> = snapshot[partner].iter().map(|&h| h as u8).collect();
                    b.push(Step::CtrlSend {
                        to: partner,
                        tag,
                        payload: Payload::Bytes(mine),
                    });
                    b.push(Step::CtrlRecv {
                        from: partner,
                        tag,
                        into: RecvInto::Verify(theirs),
                    });
                    for bk in 0..p {
                        if snapshot[partner][bk] && !have[me][bk] {
                            b.push(Step::CmaRead {
                                token: toks[partner],
                                remote_off: bk * count,
                                dst: Slot::Recv,
                                dst_off: bk * count,
                                len: count,
                            });
                        }
                    }
                }
                // Advance the global simulation for every rank.
                for (r, mine) in have.iter_mut().enumerate() {
                    let pr = r ^ dist;
                    if pr < p {
                        for bk in 0..p {
                            if snapshot[pr][bk] {
                                mine[bk] = true;
                            }
                        }
                    }
                }
                dist <<= 1;
                round += 1;
            }
            // Non-power-of-two stragglers: pull any still-missing block
            // straight from its owner.
            for bk in 0..p {
                if !have[me][bk] {
                    b.push(Step::CmaRead {
                        token: toks[bk],
                        remote_off: bk * count,
                        dst: Slot::Recv,
                        dst_off: bk * count,
                        len: count,
                    });
                }
            }
            b.emit_sm_barrier();
        }
        AllgatherAlgo::Bruck => {
            let temp = b.temp(p * count);
            if has_sendbuf {
                b.push(Step::CopyLocal {
                    src: Slot::Send,
                    src_off: 0,
                    dst: temp,
                    dst_off: 0,
                    len: count,
                });
            } else {
                b.push(Step::CopyLocal {
                    src: Slot::Recv,
                    src_off: me * count,
                    dst: temp,
                    dst_off: 0,
                    len: count,
                });
            }
            let reg = b.reg();
            b.push(Step::Expose { slot: temp, reg });
            let toks = b.emit_sm_allgather(reg);

            let mut filled = 1usize;
            let mut dist = 1usize;
            let mut round = 0u32;
            while dist < p {
                let src = (me + dist) % p;
                let dst = (me + p - dist) % p;
                let tag = Tag::internal(class::ALLGATHER, 32 + round);
                let take = dist.min(p - filled);
                b.push(Step::Notify { to: dst, tag });
                b.push(Step::WaitNotify { from: src, tag });
                b.push(Step::CmaRead {
                    token: toks[src],
                    remote_off: 0,
                    dst: temp,
                    dst_off: filled * count,
                    len: take * count,
                });
                filled += take;
                dist <<= 1;
                round += 1;
            }
            // Rotate temp (blocks in (me+s) mod p order) into place.
            for s in 0..p {
                b.push(Step::CopyLocal {
                    src: temp,
                    src_off: s * count,
                    dst: Slot::Recv,
                    dst_off: ((me + s) % p) * count,
                    len: count,
                });
            }
            b.emit_sm_barrier();
        }
    }
    b.finish()
}

// ---------------------------------------------------------------------
// Alltoall
// ---------------------------------------------------------------------

/// Compile one rank's alltoall plan. Bindings: [`Slot::Send`] = the
/// outgoing blocks (`p·count` bytes; the wrapper stages `MPI_IN_PLACE`
/// into a hidden temporary bound here), [`Slot::Recv`] = the receive
/// buffer. Callers must have validated `p > 1` and `count > 0`.
pub fn compile_alltoall(algo: AlltoallAlgo, p: usize, rank: usize, count: usize) -> Schedule {
    let mut b = Builder::new(p, rank, class::ALLTOALL);
    let me = rank;

    match algo {
        AlltoallAlgo::Pairwise => {
            b.push(Step::CopyLocal {
                src: Slot::Send,
                src_off: me * count,
                dst: Slot::Recv,
                dst_off: me * count,
                len: count,
            });
            let reg = b.reg();
            b.push(Step::Expose {
                slot: Slot::Send,
                reg,
            });
            let toks = b.emit_sm_allgather(reg);
            for i in 1..p {
                let src = pairwise_source(me, p, i);
                b.push(Step::CmaRead {
                    token: toks[src],
                    remote_off: me * count,
                    dst: Slot::Recv,
                    dst_off: src * count,
                    len: count,
                });
            }
            // Source buffers must stay valid until everyone has read.
            b.emit_sm_barrier();
        }
        AlltoallAlgo::PairwiseWrite => {
            b.push(Step::CopyLocal {
                src: Slot::Send,
                src_off: me * count,
                dst: Slot::Recv,
                dst_off: me * count,
                len: count,
            });
            let reg = b.reg();
            b.push(Step::Expose {
                slot: Slot::Recv,
                reg,
            });
            let toks = b.emit_sm_allgather(reg);
            for i in 1..p {
                let dst = if p.is_power_of_two() {
                    me ^ i
                } else {
                    (me + i) % p
                };
                b.push(Step::CmaWrite {
                    token: toks[dst],
                    remote_off: me * count,
                    src: Slot::Send,
                    src_off: dst * count,
                    len: count,
                });
            }
            b.emit_sm_barrier();
        }
        AlltoallAlgo::Bruck => {
            // Phase 1 — local rotation: temp[j] = send block (me+j) mod p.
            let temp = b.temp(p * count);
            for j in 0..p {
                let blk = (me + j) % p;
                b.push(Step::CopyLocal {
                    src: Slot::Send,
                    src_off: blk * count,
                    dst: temp,
                    dst_off: j * count,
                    len: count,
                });
            }
            let reg = b.reg();
            b.push(Step::Expose { slot: temp, reg });
            let toks = b.emit_sm_allgather(reg);
            let scratch = b.temp(p * count);

            // Phase 2 — log₂ p rounds: slots with bit k set travel +2^k
            // ranks; barriers isolate read-set from write-set per round.
            let mut dist = 1usize;
            while dist < p {
                let src = (me + p - dist) % p;
                b.emit_sm_barrier();
                for j in (0..p).filter(|j| j & dist != 0) {
                    b.push(Step::CmaRead {
                        token: toks[src],
                        remote_off: j * count,
                        dst: scratch,
                        dst_off: j * count,
                        len: count,
                    });
                }
                b.emit_sm_barrier();
                for j in (0..p).filter(|j| j & dist != 0) {
                    b.push(Step::CopyLocal {
                        src: scratch,
                        src_off: j * count,
                        dst: temp,
                        dst_off: j * count,
                        len: count,
                    });
                }
                dist <<= 1;
            }

            // Phase 3 — inverse rotation into the receive slots.
            for j in 0..p {
                let slot = (me + p - j) % p;
                b.push(Step::CopyLocal {
                    src: temp,
                    src_off: j * count,
                    dst: Slot::Recv,
                    dst_off: slot * count,
                    len: count,
                });
            }
            b.emit_sm_barrier();
        }
    }
    b.finish()
}

// ---------------------------------------------------------------------
// Reduce
// ---------------------------------------------------------------------

/// Compile one rank's reduce plan. Bindings: [`Slot::Send`] = this
/// rank's contribution, [`Slot::Recv`] = the root's receive buffer
/// (only referenced by the root's plan). Callers must have validated
/// `p > 1`, `count > 0`, lane alignment, and `radix >= 2` for the tree.
#[allow(clippy::too_many_arguments)]
pub fn compile_reduce(
    algo: ReduceAlgo,
    p: usize,
    rank: usize,
    count: usize,
    dtype: Dtype,
    op: ReduceOp,
    root: usize,
) -> Schedule {
    let mut b = Builder::new(p, rank, class::REDUCE);
    let tag_ready = Tag::internal(class::REDUCE, 0);
    let tag_done = Tag::internal(class::REDUCE, 1);
    let me = rank;

    // Shared shape of one contribution pull: receive the child's token,
    // single-copy its partial into scratch, charge the arithmetic pass
    // like a local copy, fold, acknowledge.
    let pull_and_combine = |b: &mut Builder, from: usize, scratch: Slot, acc: Slot| {
        let treg = b.reg();
        b.push(Step::CtrlRecv {
            from,
            tag: tag_ready,
            into: RecvInto::Token(treg),
        });
        b.push(Step::CmaRead {
            token: treg,
            remote_off: 0,
            dst: scratch,
            dst_off: 0,
            len: count,
        });
        b.push(Step::CopyLocal {
            src: scratch,
            src_off: 0,
            dst: scratch,
            dst_off: 0,
            len: count,
        });
        b.push(Step::Reduce {
            op,
            dtype,
            acc,
            acc_off: 0,
            src: scratch,
            src_off: 0,
            len: count,
        });
        b.push(Step::Notify {
            to: from,
            tag: tag_done,
        });
    };
    // The leaf/non-root side of the same handshake.
    let offer = |b: &mut Builder, to: usize, buf: Slot| {
        let treg = b.reg();
        b.push(Step::Expose {
            slot: buf,
            reg: treg,
        });
        b.push(Step::CtrlSend {
            to,
            tag: tag_ready,
            payload: Payload::Token(treg),
        });
        b.push(Step::WaitNotify {
            from: to,
            tag: tag_done,
        });
    };

    match algo {
        ReduceAlgo::SequentialRead => {
            if me == root {
                b.push(Step::CopyLocal {
                    src: Slot::Send,
                    src_off: 0,
                    dst: Slot::Recv,
                    dst_off: 0,
                    len: count,
                });
                let scratch = b.temp(count);
                // Contributions fold in virtual-rank order (commutative-
                // associative per MPI's requirements on Op).
                for v in 1..p {
                    pull_and_combine(&mut b, unvrank(v, root, p), scratch, Slot::Recv);
                }
            } else {
                offer(&mut b, root, Slot::Send);
            }
        }
        ReduceAlgo::KNomialTree { radix: k } => {
            let v = vrank(me, root, p);
            // Accumulate into a private partial (the root uses recvbuf).
            let acc = if v == 0 { Slot::Recv } else { b.temp(count) };
            b.push(Step::CopyLocal {
                src: Slot::Send,
                src_off: 0,
                dst: acc,
                dst_off: 0,
                len: count,
            });
            let scratch = b.temp(count);

            // The bcast k-nomial tree run in reverse: children v + m·s
            // for every k-power stride s in [first_pow_gt(v), p), m ∈ 1..k.
            let mut join_stride = 1usize;
            while join_stride * k <= v {
                join_stride *= k;
            }
            let mut s = 1usize;
            while s <= v {
                s *= k;
            }
            while s < p {
                for m in 1..k {
                    let child = v + m * s;
                    if child < p {
                        pull_and_combine(&mut b, unvrank(child, root, p), scratch, acc);
                    }
                }
                s *= k;
            }

            if v != 0 {
                let parent = unvrank(v % join_stride, root, p);
                offer(&mut b, parent, acc);
            }
        }
    }
    b.finish()
}

/// The peer a pairwise rotation reads from in step `i` (1..p): XOR
/// partners on power-of-two teams, a rotation otherwise — either way
/// every step's sources are distinct (§IV-C1).
fn pairwise_source(me: usize, p: usize, i: usize) -> usize {
    if p.is_power_of_two() {
        me ^ i
    } else {
        (me + p - i) % p
    }
}

/// Fold `len` bytes at `remote_off` of every peer's exposed buffer
/// (`toks`, indexed by rank) into [`Slot::Recv`] at `acc_off`, one peer
/// per pairwise step through one scratch: `CmaRead`, the fold pass
/// charged like a local copy, `Reduce`. `first_charge` replaces the
/// first peer's charge (a copy of the same length costs the same).
#[allow(clippy::too_many_arguments)]
fn emit_pairwise_fold(
    b: &mut Builder,
    toks: &[TokenReg],
    remote_off: usize,
    acc_off: usize,
    len: usize,
    dtype: Dtype,
    op: ReduceOp,
    mut first_charge: Option<Step>,
) {
    let scratch = b.temp(len);
    for i in 1..b.p {
        b.push(Step::CmaRead {
            token: toks[pairwise_source(b.rank, b.p, i)],
            remote_off,
            dst: scratch,
            dst_off: 0,
            len,
        });
        b.push(first_charge.take().unwrap_or(Step::CopyLocal {
            src: scratch,
            src_off: 0,
            dst: scratch,
            dst_off: 0,
            len,
        }));
        b.push(Step::Reduce {
            op,
            dtype,
            acc: Slot::Recv,
            acc_off,
            src: scratch,
            src_off: 0,
            len,
        });
    }
}

/// Compile one rank's reduce-scatter-block plan: every rank's
/// [`Slot::Send`] holds `p` blocks of `count` bytes (block `j` for rank
/// `j`); this rank folds everyone's block `rank` into its `count`-byte
/// [`Slot::Recv`], reading peers pairwise — the contention-free
/// structure of the pairwise Alltoall (§IV-C1) with a fold after each
/// read. Callers must have validated `p > 1`, `count > 0` and lane
/// alignment.
pub fn compile_reduce_scatter_block(
    p: usize,
    rank: usize,
    count: usize,
    dtype: Dtype,
    op: ReduceOp,
) -> Schedule {
    let mut b = Builder::new(p, rank, class::REDUCE);
    b.push(Step::CopyLocal {
        src: Slot::Send,
        src_off: rank * count,
        dst: Slot::Recv,
        dst_off: 0,
        len: count,
    });
    let reg = b.reg();
    b.push(Step::Expose {
        slot: Slot::Send,
        reg,
    });
    let toks = b.emit_sm_allgather(reg);
    emit_pairwise_fold(&mut b, &toks, rank * count, 0, count, dtype, op, None);
    // Source buffers must stay valid until everyone has read.
    b.emit_sm_barrier();
    b.finish()
}

/// Compile one rank's Rabenseifner allreduce plan. The `count`-byte
/// message splits into `p` lane-aligned chunks (the last ones short or
/// empty); rank `v` folds chunk `v` from every peer's [`Slot::Send`]
/// into its [`Slot::Recv`], then the reduced chunks ride a
/// ring-neighbour allgather out of the receive buffers. Moves ~2η per
/// rank regardless of `p`. Callers must have validated `p > 1` and lane
/// alignment; `count` may be zero (the plan then only synchronizes).
pub fn compile_allreduce_rsa(
    p: usize,
    rank: usize,
    count: usize,
    dtype: Dtype,
    op: ReduceOp,
) -> Schedule {
    let mut b = Builder::new(p, rank, class::REDUCE);
    let w = dtype.width();
    let lanes = count / w;
    let chunk_lanes = lanes.div_ceil(p);
    let range = |v: usize| {
        let lo = (v * chunk_lanes).min(lanes) * w;
        let hi = ((v + 1) * chunk_lanes).min(lanes) * w;
        (lo, hi - lo)
    };

    // Phase A — reduce-scatter my chunk, reading each peer once. The
    // first fold's charge is the copy that seeds the accumulator with my
    // own bytes, so every lane folds as mine ⊕ peer ⊕ … .
    let reg = b.reg();
    b.push(Step::Expose {
        slot: Slot::Send,
        reg,
    });
    let toks = b.emit_sm_allgather(reg);
    let (my_off, my_len) = range(rank);
    if my_len > 0 {
        let seed = Step::CopyLocal {
            src: Slot::Send,
            src_off: my_off,
            dst: Slot::Recv,
            dst_off: my_off,
            len: my_len,
        };
        emit_pairwise_fold(&mut b, &toks, my_off, my_off, my_len, dtype, op, Some(seed));
    }
    // Everyone's reduced chunk must be committed before the reads of
    // phase B begin.
    b.emit_sm_barrier();

    // Phase B — ring-neighbour allgather of the reduced chunks: step `i`
    // reads chunk `rank − i` from the left neighbour once it has it.
    let reg = b.reg();
    b.push(Step::Expose {
        slot: Slot::Recv,
        reg,
    });
    let toks = b.emit_sm_allgather(reg);
    let (left, right) = ((rank + p - 1) % p, (rank + 1) % p);
    let tag = Tag::internal(class::ALLGATHER, 48);
    b.push(Step::Notify { to: right, tag });
    for i in 1..p {
        b.push(Step::WaitNotify { from: left, tag });
        let (off, len) = range((rank + p - i) % p);
        if len > 0 {
            b.push(Step::CmaRead {
                token: toks[left],
                remote_off: off,
                dst: Slot::Recv,
                dst_off: off,
                len,
            });
        }
        if i < p - 1 {
            b.push(Step::Notify { to: right, tag });
        }
    }
    b.emit_sm_barrier();
    b.finish()
}

// ---------------------------------------------------------------------
// Membership: agreement rounds and survivor remapping
// ---------------------------------------------------------------------

/// The agreement tag for one `(epoch, round)` pair: masks from different
/// shrink epochs or agreement rounds can never be confused.
pub(crate) fn agree_tag(epoch: u32, round: u32) -> Tag {
    Tag::internal(class::MEMBERSHIP, ((epoch & 0xF) << 8) | (round & 0xFF))
}

/// Compile one all-survivor agreement round: every member sends its
/// `width`-byte wire-encoded suspected-dead [`kacc_comm::MemberMask`] to
/// every other member, then receives every other member's mask. The
/// plan is compiled in the *parent* communicator's numbering (`p`/`me`
/// are parent values), so it executes directly on the parent endpoints
/// with no subgroup plumbing. `width` is
/// [`kacc_comm::MemberMask::wire_len`]`(p)` — a byte vector, not a
/// single word, so membership is unbounded.
///
/// All sends are issued before any receive. Mailbox deposits are
/// non-blocking and persist after a waiter gives up, so a member
/// arriving late still finds every earlier deposit; a member that died
/// simply never deposits, and the tolerant watchdog times the receive
/// out — the zero-filled slot then fails the mask's magic check, which
/// is how the fold identifies the non-responder (by content, with no
/// side-channel suspect bookkeeping).
///
/// `Slot::Send` holds this rank's mask at offset 0; the mask of the
/// member at position `i` of the sorted `members` list lands in
/// `Slot::Recv` at offset `width * i` (the caller pre-fills its own
/// position, which the plan never touches).
///
/// The round comes in two plans for per-slot receive deadlines: the
/// first (`live`) sends this rank's mask to every other member and then
/// receives from the members *not* in `suspects`, executed under the
/// wide adaptive window; the second receives only from suspected
/// members, to be executed under a capped window. Mailbox deposits
/// queue, so a suspect's refutation that already arrived is still taken
/// instantly under the cap — the cap only bounds how long a *genuinely
/// dead* slot can burn, which is what keeps the per-failure agreement
/// price linear instead of compounding one full window per dead slot
/// per round. With no suspects the second plan is empty and the first
/// is the whole round.
pub fn compile_agree(
    p: usize,
    me: usize,
    members: &[usize],
    epoch: u32,
    round: u32,
    width: usize,
    suspects: &kacc_comm::MemberMask,
) -> (Schedule, Schedule) {
    let tag = agree_tag(epoch, round);
    let mut live = Builder::new(p, me, class::MEMBERSHIP);
    let mut susp = Builder::new(p, me, class::MEMBERSHIP);
    for &m in members {
        if m != me {
            live.push(Step::ShmSend {
                to: m,
                tag,
                src: Slot::Send,
                off: 0,
                len: width,
            });
        }
    }
    for (i, &m) in members.iter().enumerate() {
        if m != me {
            let part = if suspects.get(m) {
                &mut susp
            } else {
                &mut live
            };
            part.push(Step::ShmRecv {
                from: m,
                tag,
                dst: Slot::Recv,
                off: width * i,
                len: width,
            });
        }
    }
    (live.finish(), susp.finish())
}

/// Translate a Pack entry list's subgroup rank labels to parent ranks.
fn remap_pack(
    entries: &[(u32, Option<TokenReg>)],
    members: &[usize],
) -> Vec<(u32, Option<TokenReg>)> {
    entries
        .iter()
        .map(|&(r, reg)| (members[r as usize] as u32, reg))
        .collect()
}

/// Re-address a plan compiled for the survivor subgroup onto the parent
/// communicator: peer ranks translate through `members` (subgroup rank
/// `i` → parent rank `members[i]`), internal tags move into the shrink
/// epoch's namespace so in-flight traffic from before the shrink can
/// never be consumed by the re-execution, and the plan's identity
/// becomes the parent `(p, rank)` so the executor's shape check passes
/// on the parent endpoint.
///
/// Every compiled collective keeps its internal sub-tags below `0x1000`,
/// which leaves one hex nibble of the 16-bit sub-tag for the epoch; both
/// bounds are asserted, as is `sched.p == members.len()`.
pub fn remap_for_members(
    sched: &Schedule,
    members: &[usize],
    epoch: u32,
    parent_p: usize,
) -> Schedule {
    assert!(
        (1..=0xF).contains(&epoch),
        "shrink epoch {epoch} outside 1..=15"
    );
    assert_eq!(
        sched.p,
        members.len(),
        "plan shape does not match the survivor list"
    );
    let to_parent = |local: usize| members[local];
    let retag = |t: Tag| match t.class() {
        None => t,
        Some(cls) => {
            let sub = (t.0 - Tag::USER_MAX) & 0xFFFF;
            assert!(
                sub < 0x1000,
                "sub-tag {sub:#x} leaves no room for the epoch nibble"
            );
            Tag::internal(cls, (epoch << 12) | sub)
        }
    };
    let steps = sched
        .steps
        .iter()
        .map(|s| match s {
            Step::CtrlSend { to, tag, payload } => Step::CtrlSend {
                to: to_parent(*to),
                tag: retag(*tag),
                payload: match payload {
                    Payload::Pack(entries) => Payload::Pack(remap_pack(entries, members)),
                    other => other.clone(),
                },
            },
            Step::CtrlRecv { from, tag, into } => Step::CtrlRecv {
                from: to_parent(*from),
                tag: retag(*tag),
                into: match into {
                    RecvInto::Pack(entries) => RecvInto::Pack(remap_pack(entries, members)),
                    other => other.clone(),
                },
            },
            Step::Notify { to, tag } => Step::Notify {
                to: to_parent(*to),
                tag: retag(*tag),
            },
            Step::WaitNotify { from, tag } => Step::WaitNotify {
                from: to_parent(*from),
                tag: retag(*tag),
            },
            Step::ShmSend {
                to,
                tag,
                src,
                off,
                len,
            } => Step::ShmSend {
                to: to_parent(*to),
                tag: retag(*tag),
                src: *src,
                off: *off,
                len: *len,
            },
            Step::ShmRecv {
                from,
                tag,
                dst,
                off,
                len,
            } => Step::ShmRecv {
                from: to_parent(*from),
                tag: retag(*tag),
                dst: *dst,
                off: *off,
                len: *len,
            },
            other => other.clone(),
        })
        .collect();
    Schedule {
        p: parent_p,
        rank: members[sched.rank],
        token_regs: sched.token_regs,
        temps: sched.temps.clone(),
        steps,
        class: sched.class,
    }
}

// ---------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------

/// Cache key: everything that shapes a compiled schedule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PlanKey {
    /// Scatter plan identity.
    Scatter {
        /// Algorithm variant.
        algo: ScatterAlgo,
        /// Rank count.
        p: usize,
        /// Compiling rank.
        rank: usize,
        /// Per-rank byte counts.
        counts: Vec<usize>,
        /// Explicit displacements, if any.
        displs: Option<Vec<usize>>,
        /// Root rank.
        root: usize,
        /// Whether a receive buffer is bound.
        has_recvbuf: bool,
    },
    /// Gather plan identity.
    Gather {
        /// Algorithm variant.
        algo: GatherAlgo,
        /// Rank count.
        p: usize,
        /// Compiling rank.
        rank: usize,
        /// Per-rank byte counts.
        counts: Vec<usize>,
        /// Explicit displacements, if any.
        displs: Option<Vec<usize>>,
        /// Root rank.
        root: usize,
        /// Whether a send buffer is bound.
        has_sendbuf: bool,
    },
    /// Broadcast plan identity.
    Bcast {
        /// Algorithm variant.
        algo: BcastAlgo,
        /// Rank count.
        p: usize,
        /// Compiling rank.
        rank: usize,
        /// Message bytes.
        count: usize,
        /// Root rank.
        root: usize,
    },
    /// Allgather plan identity.
    Allgather {
        /// Algorithm variant (ring stride already reduced mod `p`).
        algo: AllgatherAlgo,
        /// Rank count.
        p: usize,
        /// Compiling rank.
        rank: usize,
        /// Per-rank block bytes.
        count: usize,
        /// Whether a separate contribution buffer is bound.
        has_sendbuf: bool,
    },
    /// Alltoall plan identity.
    Alltoall {
        /// Algorithm variant.
        algo: AlltoallAlgo,
        /// Rank count.
        p: usize,
        /// Compiling rank.
        rank: usize,
        /// Per-peer block bytes.
        count: usize,
    },
    /// Reduce plan identity.
    Reduce {
        /// Algorithm variant.
        algo: ReduceAlgo,
        /// Rank count.
        p: usize,
        /// Compiling rank.
        rank: usize,
        /// Contribution bytes.
        count: usize,
        /// Element type.
        dtype: Dtype,
        /// Combining operator.
        op: ReduceOp,
        /// Root rank.
        root: usize,
    },
    /// Point-to-point library stack identity ([`crate::pt2pt`]).
    Pt2pt {
        /// Classic algorithm (with its root).
        algo: Pt2ptAlgo,
        /// Protocol every message runs under.
        proto: Protocol,
        /// Rank count.
        p: usize,
        /// Compiling rank.
        rank: usize,
        /// Bytes per block.
        count: usize,
        /// Whether the rank's own block sits in the other buffer.
        in_place: bool,
        /// Node of every rank; only under [`Protocol::RendezvousCma`],
        /// the one protocol whose steps depend on the placement.
        nodes: Option<Vec<usize>>,
    },
    /// Survivor-remapped plan identity: `inner` describes the plan in
    /// the subgroup's shape, remapped onto the parent communicator for
    /// the given shrink epoch and member list.
    Member {
        /// Shrink epoch the plan was remapped for (1..=15).
        epoch: u32,
        /// Sorted surviving parent ranks.
        members: Vec<usize>,
        /// Size of the parent communicator the plan is remapped onto.
        parent_p: usize,
        /// Plan identity in the subgroup's `(p, rank)` shape.
        inner: Box<PlanKey>,
    },
}

impl PlanKey {
    /// Compile the plan this key names for `rank` — the one map from a
    /// plan's shape to its compiler. The key's own `rank` field is not
    /// read, so [`PlanCache`] can compile from a rank-zeroed key; for a
    /// [`PlanKey::Member`] key `rank` is the position in `members`.
    pub(crate) fn compile(&self, rank: usize) -> Schedule {
        match *self {
            PlanKey::Scatter {
                algo,
                p,
                ref counts,
                ref displs,
                root,
                has_recvbuf,
                ..
            } => {
                let layout = build_layout(counts, displs.as_deref());
                compile_scatter(algo, p, rank, &layout, root, has_recvbuf)
            }
            PlanKey::Gather {
                algo,
                p,
                ref counts,
                ref displs,
                root,
                has_sendbuf,
                ..
            } => {
                let layout = build_layout(counts, displs.as_deref());
                compile_gather(algo, p, rank, &layout, root, has_sendbuf)
            }
            PlanKey::Bcast {
                algo,
                p,
                count,
                root,
                ..
            } => compile_bcast(algo, p, rank, count, root),
            PlanKey::Allgather {
                algo,
                p,
                count,
                has_sendbuf,
                ..
            } => compile_allgather(algo, p, rank, count, has_sendbuf),
            PlanKey::Alltoall { algo, p, count, .. } => compile_alltoall(algo, p, rank, count),
            PlanKey::Reduce {
                algo,
                p,
                count,
                dtype,
                op,
                root,
                ..
            } => compile_reduce(algo, p, rank, count, dtype, op, root),
            PlanKey::Pt2pt {
                algo,
                proto,
                p,
                count,
                in_place,
                ref nodes,
                ..
            } => {
                let node_of = |r: usize| nodes.as_ref().map_or(0, |n| n[r]);
                algo.compile(p, rank, &node_of, count, proto, in_place)
            }
            PlanKey::Member {
                epoch,
                ref members,
                parent_p,
                ref inner,
            } => remap_for_members(&inner.compile(rank), members, epoch, parent_p),
        }
    }

    /// Split the key into the team-wide shape and the compiling rank:
    /// zeroes the rank in place and returns it with the rank count it
    /// indexes into (the subgroup's, for a survivor-remapped plan).
    fn take_rank(&mut self) -> (usize, usize) {
        match self {
            PlanKey::Scatter { p, rank, .. }
            | PlanKey::Gather { p, rank, .. }
            | PlanKey::Bcast { p, rank, .. }
            | PlanKey::Allgather { p, rank, .. }
            | PlanKey::Alltoall { p, rank, .. }
            | PlanKey::Reduce { p, rank, .. }
            | PlanKey::Pt2pt { p, rank, .. } => (std::mem::take(rank), *p),
            PlanKey::Member { inner, .. } => inner.take_rank(),
        }
    }
}

/// Hit/miss/eviction counters for the plan cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Team shapes displaced by the LRU policy (with every rank's plan).
    pub evictions: u64,
}

/// One team shape's plans, a slot per rank, and its last-use tick.
struct Shape {
    plans: Vec<Option<Arc<Schedule>>>,
    used: u64,
}

impl Shape {
    fn count(&self) -> usize {
        self.plans.iter().flatten().count()
    }
}

struct CacheInner {
    /// Plans by team shape: the [`PlanKey`] with its rank zeroed.
    map: HashMap<Arc<PlanKey>, Shape>,
    /// The same keys by last-use tick (ticks are unique), so the LRU
    /// victim is the first entry rather than an O(capacity) scan.
    by_tick: BTreeMap<u64, Arc<PlanKey>>,
    tick: u64,
    /// Plans held across all shapes.
    plans: usize,
    stats: PlanCacheStats,
}

/// LRU cache of compiled schedules, keyed by [`PlanKey`].
///
/// The collective entry points consult the process-wide instance
/// ([`PlanCache::global`]) so repeated same-shape calls skip the compile
/// phase entirely. Every rank of a team compiles its own plan for the
/// same call, so plans are stored per team shape and the capacity bounds
/// shapes — the least-recently-used shape is evicted on overflow, with
/// all of its (at most `p`) plans — rather than letting one wide team's
/// ranks push each other's plans out.
pub struct PlanCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

impl PlanCache {
    /// Default capacity of [`PlanCache::global`], in team shapes.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Create a cache bounded to `capacity` team shapes.
    pub fn new(capacity: usize) -> PlanCache {
        assert!(capacity > 0, "plan cache capacity must be positive");
        PlanCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                by_tick: BTreeMap::new(),
                tick: 0,
                plans: 0,
                stats: PlanCacheStats::default(),
            }),
            capacity,
        }
    }

    /// The process-wide cache used by the collective entry points.
    pub fn global() -> &'static PlanCache {
        static GLOBAL: OnceLock<PlanCache> = OnceLock::new();
        GLOBAL.get_or_init(|| PlanCache::new(Self::DEFAULT_CAPACITY))
    }

    /// Look up `key`, compiling (and inserting) it with
    /// [`PlanKey::compile`] on a miss.
    pub(crate) fn plan(&self, key: PlanKey) -> Arc<Schedule> {
        self.lookup(key, PlanKey::compile)
    }

    /// Look up `key`, compiling (and inserting) with `compile` on miss.
    pub fn get_or_compile(
        &self,
        key: PlanKey,
        compile: impl FnOnce() -> Schedule,
    ) -> Arc<Schedule> {
        self.lookup(key, |_, _| compile())
    }

    /// The cache proper: `compile` sees the rank-zeroed key and the rank.
    fn lookup(
        &self,
        mut key: PlanKey,
        compile: impl FnOnce(&PlanKey, usize) -> Schedule,
    ) -> Arc<Schedule> {
        let (rank, p) = key.take_rank();
        assert!(rank < p, "plan key for rank {rank} of {p}");
        let mut guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let inner = &mut *guard;
        if let Some(shape) = inner.map.get_mut(&key) {
            // A team's ranks look their shape up back to back: only a
            // shape that is not already the newest moves in the LRU order.
            if shape.used != inner.tick {
                inner.tick += 1;
                let key = inner
                    .by_tick
                    .remove(&shape.used)
                    .expect("every shape is indexed");
                inner.by_tick.insert(inner.tick, key);
                shape.used = inner.tick;
            }
            if let Some(plan) = &shape.plans[rank] {
                inner.stats.hits += 1;
                return Arc::clone(plan);
            }
            inner.stats.misses += 1;
            let plan = Arc::new(compile(&key, rank));
            shape.plans[rank] = Some(Arc::clone(&plan));
            inner.plans += 1;
            return plan;
        }
        inner.stats.misses += 1;
        let plan = Arc::new(compile(&key, rank));
        if inner.map.len() >= self.capacity {
            if let Some((_, oldest)) = inner.by_tick.pop_first() {
                let evicted = inner.map.remove(&*oldest).expect("indexed shape exists");
                inner.plans -= evicted.count();
                inner.stats.evictions += 1;
            }
        }
        inner.tick += 1;
        let mut plans = vec![None; p];
        plans[rank] = Some(Arc::clone(&plan));
        let key = Arc::new(key);
        inner.by_tick.insert(inner.tick, Arc::clone(&key));
        inner.map.insert(
            key,
            Shape {
                plans,
                used: inner.tick,
            },
        );
        inner.plans += 1;
        plan
    }

    /// Counters since creation (or the last [`clear`](Self::clear)).
    pub fn stats(&self) -> PlanCacheStats {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).stats
    }

    /// Number of cached plans, over all shapes and ranks.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).plans
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every survivor-remapped plan older than `epoch`. A shrink
    /// advancing the membership epoch makes plans remapped for earlier
    /// memberships unreachable — their keys embed a stale epoch — so
    /// holding them only wastes capacity and can evict live plans.
    /// Returns the number of plans dropped.
    pub fn invalidate_members_before(&self, epoch: u32) -> usize {
        let mut guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let inner = &mut *guard;
        let before = inner.plans;
        let live = |k: &PlanKey| !matches!(k, PlanKey::Member { epoch: e, .. } if *e < epoch);
        inner.by_tick.retain(|_, k| live(k));
        let plans = &mut inner.plans;
        inner.map.retain(|k, shape| {
            let keep = live(k);
            if !keep {
                *plans -= shape.count();
            }
            keep
        });
        before - inner.plans
    }

    /// Drop every cached plan and reset the counters (bench/test hook).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.map.clear();
        inner.by_tick.clear();
        inner.plans = 0;
        inner.stats = PlanCacheStats::default();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn even_layout(p: usize, count: usize) -> Vec<(usize, usize)> {
        (0..p).map(|r| (r * count, count)).collect()
    }

    #[test]
    fn scatter_parallel_read_shape() {
        let p = 8;
        let layout = even_layout(p, 64);
        let root_plan = compile_scatter(ScatterAlgo::ParallelRead, p, 0, &layout, 0, true);
        assert_eq!(root_plan.count_cma(), (0, 0));
        assert!(root_plan
            .steps
            .iter()
            .any(|s| matches!(s, Step::Expose { .. })));
        for r in 1..p {
            let plan = compile_scatter(ScatterAlgo::ParallelRead, p, r, &layout, 0, true);
            assert_eq!(plan.count_cma(), (1, 0), "rank {r} does exactly one read");
        }
    }

    #[test]
    fn scatter_sequential_write_root_writes_all() {
        let p = 6;
        let layout = even_layout(p, 32);
        let plan = compile_scatter(ScatterAlgo::SequentialWrite, p, 2, &layout, 2, true);
        assert_eq!(plan.count_cma(), (0, p - 1));
    }

    #[test]
    fn gather_mirrors_scatter_direction() {
        let p = 5;
        let layout = even_layout(p, 16);
        let peer = compile_gather(GatherAlgo::ParallelWrite, p, 3, &layout, 0, true);
        assert_eq!(peer.count_cma(), (0, 1));
        let root = compile_gather(GatherAlgo::SequentialRead, p, 0, &layout, 0, true);
        assert_eq!(root.count_cma(), (p - 1, 0));
    }

    #[test]
    fn bcast_knomial_children_bounded_by_radix() {
        let p = 16;
        let plan = compile_bcast(BcastAlgo::KNomial { radix: 4 }, p, 0, 128, 0);
        // Root serves at most (radix-1) children per level: count sends.
        let sends = plan
            .steps
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    Step::CtrlSend {
                        payload: Payload::Token(_),
                        ..
                    }
                )
            })
            .count();
        assert!(sends > 0 && sends < p);
    }

    #[test]
    fn allgather_bruck_uses_temp_and_rotates() {
        let p = 6;
        let count = 8;
        let plan = compile_allgather(AllgatherAlgo::Bruck, p, 1, count, true);
        assert_eq!(plan.temps, vec![p * count]);
        let copies = plan
            .steps
            .iter()
            .filter(|s| matches!(s, Step::CopyLocal { .. }))
            .count();
        // 1 seed copy + p rotation copies.
        assert_eq!(copies, 1 + p);
    }

    #[test]
    fn allgather_recursive_doubling_covers_all_blocks() {
        for p in [2usize, 3, 4, 6, 7, 8] {
            for me in 0..p {
                let plan = compile_allgather(AllgatherAlgo::RecursiveDoubling, p, me, 4, true);
                let mut covered = vec![false; p];
                covered[me] = true;
                for s in &plan.steps {
                    if let Step::CmaRead { dst_off, len, .. } = s {
                        assert_eq!(len % 4, 0);
                        let first = dst_off / 4;
                        for c in covered.iter_mut().skip(first).take(len / 4) {
                            *c = true;
                        }
                    }
                }
                assert!(covered.iter().all(|&c| c), "p={p} me={me} misses a block");
            }
        }
    }

    fn bcast_key(p: usize, rank: usize, count: usize) -> PlanKey {
        PlanKey::Bcast {
            algo: BcastAlgo::DirectRead,
            p,
            rank,
            count,
            root: 0,
        }
    }

    #[test]
    fn plan_cache_lru_hits_and_evicts() {
        let cache = PlanCache::new(2);
        let key = |count: usize| bcast_key(4, 0, count);
        let compile = |count: usize| move || compile_bcast(BcastAlgo::DirectRead, 4, 0, count, 0);

        let a = cache.get_or_compile(key(8), compile(8));
        let a2 = cache.get_or_compile(key(8), compile(8));
        assert!(Arc::ptr_eq(&a, &a2), "hit returns the cached plan");
        cache.get_or_compile(key(16), compile(16));
        // Touch key(8) so key(16) is the LRU victim.
        cache.get_or_compile(key(8), compile(8));
        cache.get_or_compile(key(32), compile(32));
        let s = cache.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 3);
        assert_eq!(s.evictions, 1);
        assert_eq!(cache.len(), 2);
        // The survivors are key(8) and key(32).
        cache.get_or_compile(key(8), || unreachable!("cached"));
        cache.get_or_compile(key(32), || unreachable!("cached"));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), PlanCacheStats::default());
    }

    #[test]
    fn plan_cache_capacity_counts_team_shapes_not_ranks() {
        // Two shapes fit; a team far wider than that cycles through its
        // ranks call after call, as every collective entry point does.
        let cache = PlanCache::new(2);
        let p = 16;
        let team = |count: usize, compiled: &mut usize| {
            for rank in 0..p {
                let plan = cache.get_or_compile(bcast_key(p, rank, count), || {
                    *compiled += 1;
                    compile_bcast(BcastAlgo::DirectRead, p, rank, count, 0)
                });
                assert_eq!(
                    (plan.p, plan.rank),
                    (p, rank),
                    "each rank gets its own plan"
                );
            }
        };
        let mut compiled = 0;
        for _ in 0..3 {
            team(8, &mut compiled);
            team(64, &mut compiled);
        }
        assert_eq!(compiled, 2 * p, "each rank's plan compiles once per shape");
        let s = cache.stats();
        assert_eq!(
            (s.hits, s.misses, s.evictions),
            (4 * p as u64, 2 * p as u64, 0)
        );
        assert_eq!(cache.len(), 2 * p);
        // A third shape displaces the older one whole, every rank's plan.
        team(8, &mut compiled);
        team(512, &mut compiled);
        assert_eq!((cache.stats().evictions, cache.len()), (1, 2 * p));
        team(8, &mut compiled);
        assert_eq!(compiled, 3 * p, "the recently used shape survived");
        team(64, &mut compiled);
        assert_eq!(compiled, 4 * p, "the displaced one compiles afresh");
    }

    #[test]
    #[should_panic(expected = "plan key for rank 4 of 4")]
    fn plan_cache_rejects_a_rank_outside_the_team() {
        PlanCache::new(2).get_or_compile(bcast_key(4, 4, 8), || unreachable!("rejected"));
    }

    #[test]
    fn sm_gather_pack_order_matches_subtree() {
        // The pack an intermediate rank forwards must list itself first,
        // then each child subtree in bit order — smcoll's exact layout.
        assert_eq!(
            Builder::binomial_subtree(0, 8),
            vec![0, 1, 2, 3, 4, 5, 6, 7]
        );
        assert_eq!(Builder::binomial_subtree(2, 8), vec![2, 3]);
        assert_eq!(Builder::binomial_subtree(4, 8), vec![4, 5, 6, 7]);
    }

    #[test]
    fn agree_plan_sends_before_receiving_every_member() {
        let members = [0usize, 2, 5, 7];
        let width = kacc_comm::MemberMask::wire_len(8);
        let (plan, susp) =
            compile_agree(8, 2, &members, 1, 0, width, &kacc_comm::MemberMask::new(8));
        assert!(susp.steps.is_empty(), "nobody suspected: one plan");
        assert_eq!((plan.p, plan.rank), (8, 2));
        assert_eq!(plan.class, Some(class::MEMBERSHIP));
        // 3 sends to the other members, then 3 receives from them, with
        // each member's mask landing at its list position.
        assert_eq!(plan.steps.len(), 6);
        let tag = agree_tag(1, 0);
        for (i, s) in plan.steps.iter().take(3).enumerate() {
            let want = [0usize, 5, 7][i];
            assert_eq!(
                *s,
                Step::ShmSend {
                    to: want,
                    tag,
                    src: Slot::Send,
                    off: 0,
                    len: width
                }
            );
        }
        let recvs: Vec<_> = plan.steps[3..]
            .iter()
            .map(|s| match s {
                Step::ShmRecv { from, off, .. } => (*from, *off),
                other => panic!("expected ShmRecv, got {other:?}"),
            })
            .collect();
        assert_eq!(recvs, vec![(0, 0), (5, 2 * width), (7, 3 * width)]);
    }

    #[test]
    fn agree_plan_width_scales_past_64_ranks() {
        // p = 128: two rank-bit words plus the header word → 24-byte
        // slots. The plan must address every member's slot at its full
        // wire width (the p > 63 cap is gone).
        let members: Vec<usize> = (0..128).collect();
        let width = kacc_comm::MemberMask::wire_len(128);
        assert_eq!(width, 24);
        let (plan, _) = compile_agree(
            128,
            100,
            &members,
            2,
            1,
            width,
            &kacc_comm::MemberMask::new(128),
        );
        assert_eq!(plan.steps.len(), 2 * 127);
        for s in &plan.steps {
            match s {
                Step::ShmSend { len, .. } | Step::ShmRecv { len, .. } => {
                    assert_eq!(*len, width)
                }
                other => panic!("unexpected step {other:?}"),
            }
        }
    }

    #[test]
    fn agree_tags_separate_epochs_and_rounds() {
        let mut seen = std::collections::HashSet::new();
        for epoch in 0..=0xF {
            for round in 0..2 {
                let t = agree_tag(epoch, round);
                assert!(seen.insert(t.0), "tag collision at ({epoch}, {round})");
                assert_eq!(t.class(), Some(class::MEMBERSHIP));
            }
        }
    }

    #[test]
    fn remap_translates_peers_tags_and_identity() {
        // Compile a bcast for the 3-survivor subgroup {0, 2, 3} of p=5
        // as seen by survivor index 1 (parent rank 2), then remap.
        let members = [0usize, 2, 3];
        let sub = compile_bcast(BcastAlgo::KNomial { radix: 2 }, 3, 1, 64, 0);
        let remapped = remap_for_members(&sub, &members, 1, 5);
        assert_eq!((remapped.p, remapped.rank), (5, 2));
        assert_eq!(remapped.steps.len(), sub.steps.len());
        for (orig, new) in sub.steps.iter().zip(&remapped.steps) {
            let peer_pair = |s: &Step| match s {
                Step::CtrlSend { to, tag, .. }
                | Step::Notify { to, tag }
                | Step::ShmSend { to, tag, .. } => Some((*to, *tag)),
                Step::CtrlRecv { from, tag, .. }
                | Step::WaitNotify { from, tag }
                | Step::ShmRecv { from, tag, .. } => Some((*from, *tag)),
                _ => None,
            };
            match (peer_pair(orig), peer_pair(new)) {
                (Some((po, to)), Some((pn, tn))) => {
                    assert_eq!(pn, members[po], "peer remapped through the member list");
                    assert_eq!(tn.class(), to.class(), "tag class preserved");
                    let sub_of = |t: Tag| (t.0 - Tag::USER_MAX) & 0xFFFF;
                    assert_eq!(
                        sub_of(tn),
                        (1 << 12) | sub_of(to),
                        "sub-tag moved into the epoch-1 namespace"
                    );
                }
                (None, None) => assert_eq!(orig, new, "peerless steps are untouched"),
                other => panic!("step shape changed under remap: {other:?}"),
            }
        }
    }

    #[test]
    fn member_plans_invalidate_below_the_epoch() {
        let cache = PlanCache::new(16);
        let compile = || compile_bcast(BcastAlgo::DirectRead, 3, 0, 8, 0);
        let member = |epoch: u32, rank: usize| PlanKey::Member {
            epoch,
            members: vec![0, 2, 5],
            parent_p: 6,
            inner: Box::new(bcast_key(3, rank, 8)),
        };
        // Epochs 1 and 2 hold two survivors' plans each, epoch 3 one.
        for (epoch, rank) in [(1, 0), (1, 2), (2, 0), (2, 1), (3, 1)] {
            cache.get_or_compile(member(epoch, rank), compile);
        }
        cache.get_or_compile(bcast_key(3, 0, 8), compile);
        assert_eq!(cache.len(), 6);
        assert_eq!(cache.invalidate_members_before(3), 4);
        // The epoch-3 member plan and the plain plan survive.
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.invalidate_members_before(3), 0);
        cache.get_or_compile(member(3, 1), || unreachable!("cached"));
        cache.get_or_compile(bcast_key(3, 0, 8), || unreachable!("cached"));
        // The dropped shapes left the eviction order too: filling the cache
        // evicts nothing until it is full again.
        for count in 1..=14 {
            cache.get_or_compile(bcast_key(3, 0, 100 + count), compile);
        }
        assert_eq!((cache.len(), cache.stats().evictions), (16, 0));
        cache.get_or_compile(bcast_key(3, 0, 99), compile);
        assert_eq!((cache.len(), cache.stats().evictions), (16, 1));
    }
}
