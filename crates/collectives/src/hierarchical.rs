//! Two-level (hierarchical) collectives for multi-node jobs (§VII-G).
//!
//! The paper's Fig 17 result: once the intra-node Gather is cheap
//! (contention-aware kernel-assisted designs), a *two-level* Gather —
//! node leaders gather locally, then the root gathers across nodes —
//! beats the single-level large-message algorithms that libraries had
//! been forced into by slow intra-node gathers, and the advantage grows
//! with node count.
//!
//! Each design is a plan like every other collective:
//! [`compile_hier_gather`], [`compile_hier_gather_pipelined`] and
//! [`compile_hier_scatter`] turn a [`NodeLayout`] and the call's shape into
//! one rank's [`Schedule`], and the `*_polled` entries run it through the
//! executor in [`crate::polled`] under the default
//! [`crate::RecoveryPolicy`]. Within a node, members move their block
//! with single-copy CMA steps on the leader's buffer, at most `k` at a
//! time, chained by point-to-point hand-offs; across nodes, leaders and
//! the root move whole node regions over the two-copy bulk path, which
//! the cluster transport maps onto the fabric.

use crate::class;
use crate::exec::Bindings;
use crate::polled::execute_polled;
use crate::schedule::{Builder, Payload, RecvInto, Schedule, Slot, Step, TokenReg};
use kacc_comm::{AsyncComm, BufId, CommError, Result, Tag};

const TAG_TOKEN: Tag = Tag::internal(class::HIER, 0);
const TAG_CHAIN: Tag = Tag::internal(class::HIER, 1);
const TAG_DONE: Tag = Tag::internal(class::HIER, 2);
const TAG_BULK: Tag = Tag::internal(class::HIER, 3);

/// Tag of the pipelined gather's `w`-th wave on the bulk path.
fn tag_wave(w: usize) -> Tag {
    Tag::internal(class::HIER, 16 + w as u32)
}

/// Block placement of ranks onto nodes: node ids dense from 0, each node
/// a contiguous range of ranks.
#[derive(Debug, Clone)]
pub struct NodeLayout {
    /// Member ranks per node id (sorted), indexed by node.
    pub nodes: Vec<Vec<usize>>,
    /// Node of each rank.
    pub node_of: Vec<usize>,
}

impl NodeLayout {
    /// The layout of `comm`'s ranks (see [`NodeLayout::new`]).
    pub fn of<C: AsyncComm>(comm: &C) -> Result<NodeLayout> {
        NodeLayout::new((0..comm.size()).map(|r| comm.node_of(r)).collect())
    }

    /// The layout `node_of` describes. Every transport places ranks in
    /// blocks, so a node missing from the id range or a node whose ranks
    /// are not contiguous is a typed [`CommError::Protocol`] error.
    pub fn new(node_of: Vec<usize>) -> Result<NodeLayout> {
        let n_nodes = node_of.iter().max().map_or(0, |&n| n + 1);
        let mut nodes = vec![Vec::new(); n_nodes];
        for (r, &n) in node_of.iter().enumerate() {
            nodes[n].push(r);
        }
        let block = nodes
            .iter()
            .all(|m| !m.is_empty() && m.windows(2).all(|w| w[1] == w[0] + 1));
        if !block {
            return Err(CommError::Protocol(format!(
                "two-level collectives need block rank placement, got nodes {node_of:?}"
            )));
        }
        Ok(NodeLayout { nodes, node_of })
    }

    /// Leader of node `n`: the root itself on the root's node, else the
    /// lowest member rank.
    pub fn leader(&self, n: usize, root: usize) -> usize {
        if self.node_of[root] == n {
            root
        } else {
            self.nodes[n][0]
        }
    }
}

/// One rank's view of its node's intra-node phase.
struct Node<'a> {
    me: usize,
    members: &'a [usize],
    leader: usize,
    /// The non-leader members in rank order: the throttle chain.
    chain: Vec<usize>,
    /// The rank whose block starts the leader's buffer: 0 when that is
    /// the root's own buffer, the node's lowest rank when it stages the
    /// node's blocks.
    base: usize,
}

impl Node<'_> {
    fn new(layout: &NodeLayout, me: usize, root: usize) -> Node<'_> {
        let n = layout.node_of[me];
        let leader = layout.leader(n, root);
        let members = &layout.nodes[n];
        Node {
            me,
            members,
            leader,
            chain: members.iter().copied().filter(|&m| m != leader).collect(),
            base: if leader == root { 0 } else { members[0] },
        }
    }

    /// Offset of member `m`'s block in the leader's buffer.
    fn offset(&self, m: usize, count: usize) -> usize {
        (m - self.base) * count
    }

    /// Whether chain position `pos` reports completion to the leader: the
    /// last wave does, or every member when the leader ships waves as they
    /// complete.
    fn reports(&self, pos: usize, k: usize, every: bool) -> bool {
        every || pos + k >= self.chain.len()
    }

    /// Leader: expose `buf` and send every member its token as a
    /// one-entry pack labelled with the member's rank.
    fn emit_token_fanout(&self, b: &mut Builder, buf: Slot) {
        let reg = b.reg();
        b.push(Step::Expose { slot: buf, reg });
        for &m in &self.chain {
            b.push(Step::CtrlSend {
                to: m,
                tag: TAG_TOKEN,
                payload: Payload::Pack(vec![(m as u32, Some(reg))]),
            });
        }
    }

    /// Leader: wait for the members that report completion.
    fn emit_done_waits(&self, b: &mut Builder, members: &[usize], k: usize, every: bool) {
        for (pos, &m) in self.chain.iter().enumerate() {
            if members.contains(&m) && self.reports(pos, k, every) {
                b.push(Step::WaitNotify {
                    from: m,
                    tag: TAG_DONE,
                });
            }
        }
    }

    /// Member: take the leader's token, wait for the member `k` places
    /// earlier in the chain, run the CMA step `cma` builds on the token,
    /// hand off to the member `k` places later, and report if due.
    fn emit_member(
        &self,
        b: &mut Builder,
        k: usize,
        every: bool,
        cma: impl FnOnce(TokenReg) -> Step,
    ) {
        let pos = self
            .chain
            .iter()
            .position(|&m| m == self.me)
            .expect("a non-leader is on its node's chain");
        let reg = b.reg();
        b.push(Step::CtrlRecv {
            from: self.leader,
            tag: TAG_TOKEN,
            into: RecvInto::Pack(vec![(self.me as u32, Some(reg))]),
        });
        if pos >= k {
            b.push(Step::WaitNotify {
                from: self.chain[pos - k],
                tag: TAG_CHAIN,
            });
        }
        b.push(cma(reg));
        if pos + k < self.chain.len() {
            b.push(Step::Notify {
                to: self.chain[pos + k],
                tag: TAG_CHAIN,
            });
        }
        if self.reports(pos, k, every) {
            b.push(Step::Notify {
                to: self.leader,
                tag: TAG_DONE,
            });
        }
    }
}

/// The bulk messages a node's region travels in: one, or one per wave of
/// `k` members when pipelined. `(tag, lo, hi)` over member indices.
fn chunks(len: usize, k: usize, pipelined: bool) -> Vec<(Tag, usize, usize)> {
    if pipelined {
        (0..len.div_ceil(k))
            .map(|w| (tag_wave(w), w * k, ((w + 1) * k).min(len)))
            .collect()
    } else {
        vec![(TAG_BULK, 0, len)]
    }
}

/// Compile one rank's two-level MPI_Gather plan: throttled intra-node
/// CMA writes into the node leader's buffer (throttle factor `k`), then
/// leaders ship their node's blocks to the root over the bulk path.
/// Bindings: [`Slot::Send`] = `sendbuf`, [`Slot::Recv`] = the root's
/// `recvbuf`; `has_sendbuf` is false for an in-place root. Callers must
/// have validated `count > 0` and `k >= 1`.
pub fn compile_hier_gather(
    layout: &NodeLayout,
    rank: usize,
    count: usize,
    root: usize,
    k: usize,
    has_sendbuf: bool,
) -> Schedule {
    compile_gather_plan(layout, rank, count, root, k, has_sendbuf, false)
}

/// [`compile_hier_gather`] pipelined (§VII-G's "more advanced designs
/// such as pipelined two-level gather"): every member reports to its
/// leader, and a remote leader ships each completed wave of `k` members'
/// blocks to the root at once, so inter- and intra-node transfers
/// overlap instead of serializing.
pub fn compile_hier_gather_pipelined(
    layout: &NodeLayout,
    rank: usize,
    count: usize,
    root: usize,
    k: usize,
    has_sendbuf: bool,
) -> Schedule {
    compile_gather_plan(layout, rank, count, root, k, has_sendbuf, true)
}

fn compile_gather_plan(
    layout: &NodeLayout,
    rank: usize,
    count: usize,
    root: usize,
    k: usize,
    has_sendbuf: bool,
    pipelined: bool,
) -> Schedule {
    let mut b = Builder::new(layout.node_of.len(), rank, class::HIER);
    let node = Node::new(layout, rank, root);
    if rank != node.leader {
        let remote_off = node.offset(rank, count);
        node.emit_member(&mut b, k, pipelined, |token| Step::CmaWrite {
            token,
            remote_off,
            src: Slot::Send,
            src_off: 0,
            len: count,
        });
        return b.finish();
    }

    let buf = if rank == root {
        Slot::Recv
    } else {
        b.temp(node.members.len() * count)
    };
    node.emit_token_fanout(&mut b, buf);
    if rank != root || has_sendbuf {
        b.push(Step::CopyLocal {
            src: Slot::Send,
            src_off: 0,
            dst: buf,
            dst_off: node.offset(rank, count),
            len: count,
        });
    }
    if rank == root {
        node.emit_done_waits(&mut b, node.members, k, pipelined);
        // Every other node's region lands in place: placement is by block.
        for (n, members) in layout.nodes.iter().enumerate() {
            if n == layout.node_of[root] {
                continue;
            }
            for (tag, lo, hi) in chunks(members.len(), k, pipelined) {
                b.push(Step::ShmRecv {
                    from: layout.leader(n, root),
                    tag,
                    dst: Slot::Recv,
                    off: members[lo] * count,
                    len: (hi - lo) * count,
                });
            }
        }
    } else {
        // The leader's own block rides with the chunk containing it.
        for (tag, lo, hi) in chunks(node.members.len(), k, pipelined) {
            node.emit_done_waits(&mut b, &node.members[lo..hi], k, pipelined);
            b.push(Step::ShmSend {
                to: root,
                tag,
                src: buf,
                off: lo * count,
                len: (hi - lo) * count,
            });
        }
    }
    b.finish()
}

/// Compile one rank's two-level MPI_Scatter plan: the root ships each
/// remote node's region to its leader over the bulk path, then every
/// leader serves its node with throttled CMA reads (throttle factor
/// `k`). Bindings: [`Slot::Send`] = the root's `sendbuf`, [`Slot::Recv`]
/// = `recvbuf`; `has_recvbuf` is false for an in-place root. Callers
/// must have validated `count > 0` and `k >= 1`.
pub fn compile_hier_scatter(
    layout: &NodeLayout,
    rank: usize,
    count: usize,
    root: usize,
    k: usize,
    has_recvbuf: bool,
) -> Schedule {
    let mut b = Builder::new(layout.node_of.len(), rank, class::HIER);
    let node = Node::new(layout, rank, root);
    if rank != node.leader {
        let remote_off = node.offset(rank, count);
        node.emit_member(&mut b, k, false, |token| Step::CmaRead {
            token,
            remote_off,
            dst: Slot::Recv,
            dst_off: 0,
            len: count,
        });
        return b.finish();
    }

    let len = node.members.len() * count;
    let buf = if rank == root {
        for (n, members) in layout.nodes.iter().enumerate() {
            if n != layout.node_of[root] {
                b.push(Step::ShmSend {
                    to: layout.leader(n, root),
                    tag: TAG_BULK,
                    src: Slot::Send,
                    off: members[0] * count,
                    len: members.len() * count,
                });
            }
        }
        Slot::Send
    } else {
        let staging = b.temp(len);
        b.push(Step::ShmRecv {
            from: root,
            tag: TAG_BULK,
            dst: staging,
            off: 0,
            len,
        });
        staging
    };
    node.emit_token_fanout(&mut b, buf);
    node.emit_done_waits(&mut b, node.members, k, false);
    if rank != root || has_recvbuf {
        b.push(Step::CopyLocal {
            src: buf,
            src_off: node.offset(rank, count),
            dst: Slot::Recv,
            dst_off: 0,
            len: count,
        });
    }
    b.finish()
}

/// Two-level MPI_Gather ([`compile_hier_gather`]): every rank contributes
/// `count` bytes from `sendbuf`; the root assembles them by rank in its
/// `p·count`-byte `recvbuf`. `sendbuf` may be `None` at the root
/// (`MPI_IN_PLACE`).
pub async fn hier_gather_polled<C: AsyncComm>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    count: usize,
    root: usize,
    k: usize,
) -> Result<()> {
    run(comm, sendbuf, recvbuf, count, root, k, Design::Gather).await
}

/// Pipelined two-level MPI_Gather ([`compile_hier_gather_pipelined`]);
/// arguments as [`hier_gather_polled`].
pub async fn hier_gather_pipelined_polled<C: AsyncComm>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    count: usize,
    root: usize,
    k: usize,
) -> Result<()> {
    run(comm, sendbuf, recvbuf, count, root, k, Design::Pipelined).await
}

/// Two-level MPI_Scatter ([`compile_hier_scatter`]): the root's
/// `p·count`-byte `sendbuf` is split by rank into every rank's
/// `count`-byte `recvbuf`. `recvbuf` may be `None` at the root
/// (`MPI_IN_PLACE`).
pub async fn hier_scatter_polled<C: AsyncComm>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    count: usize,
    root: usize,
    k: usize,
) -> Result<()> {
    run(comm, sendbuf, recvbuf, count, root, k, Design::Scatter).await
}

#[derive(Clone, Copy)]
enum Design {
    Gather,
    Pipelined,
    Scatter,
}

/// Validate, compile this rank's plan and execute it under the default
/// recovery policy. The root needs the `p·count`-byte buffer (a
/// scatter's `sendbuf`, a gather's `recvbuf`) and may omit its own
/// block's; every other rank needs its block's.
async fn run<C: AsyncComm>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    count: usize,
    root: usize,
    k: usize,
    design: Design,
) -> Result<()> {
    if root >= comm.size() {
        return Err(CommError::BadRank(root));
    }
    if k == 0 {
        return Err(CommError::Protocol("throttle factor must be ≥ 1".into()));
    }
    let layout = NodeLayout::of(comm)?;
    if count == 0 {
        return Ok(());
    }
    let me = comm.rank();
    let (op, full, block) = match design {
        Design::Scatter => ("scatter", ("sendbuf", sendbuf), ("recvbuf", recvbuf)),
        _ => ("gather", ("recvbuf", recvbuf), ("sendbuf", sendbuf)),
    };
    let (who, (name, buf)) = if me == root {
        ("root", full)
    } else {
        ("non-root", block)
    };
    if buf.is_none() {
        return Err(CommError::Protocol(format!("{who} {op} needs {name}")));
    }
    let compile = match design {
        Design::Gather => compile_hier_gather,
        Design::Pipelined => compile_hier_gather_pipelined,
        Design::Scatter => compile_hier_scatter,
    };
    let plan = compile(&layout, me, count, root, k, block.1.is_some());
    let bind = Bindings {
        send: sendbuf,
        recv: recvbuf,
    };
    execute_polled(comm, &plan, &bind).await.map(|_| ())
}
