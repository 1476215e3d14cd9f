//! Two-level (hierarchical) collectives for multi-node jobs (§VII-G).
//!
//! The paper's Fig 17 result: once the intra-node Gather is cheap
//! (contention-aware kernel-assisted designs), a *two-level* Gather —
//! node leaders gather locally, then the root gathers across nodes —
//! beats the single-level large-message algorithms that libraries had
//! been forced into by slow intra-node gathers, and the advantage grows
//! with node count.
//!
//! Each design is written once, as an `async` `*_polled` body over any
//! [`AsyncComm`] whose [`AsyncComm::node_of`] partitions ranks into nodes.
//! The polled simulator's cluster endpoint runs the bodies natively
//! (`kacc-netsim`, Fig 17); the blocking names ([`hier_gather`],
//! [`hier_scatter`], [`hier_gather_pipelined`]) drive the same bodies on a
//! blocking [`Comm`] through [`Blocking`] and [`block_on`].
//! Kernel-assisted single-copy ops are used *within* a node; bulk
//! leader-to-root transfers use the two-copy data path, which the
//! cluster transport maps onto the fabric.

use crate::class;
use crate::exec::is_transient;
use kacc_comm::{block_on, AsyncComm, Blocking, BufId, Comm, CommError, RemoteToken, Result, Tag};

const TAG_TOKEN: Tag = Tag::internal(class::HIER, 0);
const TAG_CHAIN: Tag = Tag::internal(class::HIER, 1);
const TAG_DONE: Tag = Tag::internal(class::HIER, 2);
const TAG_BULK: Tag = Tag::internal(class::HIER, 3);

/// Retry budget for the hierarchical data paths, mirroring the schedule
/// executor's defaults ([`crate::RecoveryPolicy`]): EAGAIN-class
/// transients retry with exponential backoff; everything else (ESRCH,
/// protocol violations) propagates typed.
const RETRY_MAX: u32 = 3;
const RETRY_BACKOFF_NS: u64 = 200;

async fn with_retry<C, T>(comm: &mut C, mut f: impl AsyncFnMut(&mut C) -> Result<T>) -> Result<T>
where
    C: AsyncComm,
{
    let mut attempts = 0u32;
    loop {
        match f(comm).await {
            Err(e) if is_transient(&e) && attempts < RETRY_MAX => {
                attempts += 1;
                comm.sleep_ns(RETRY_BACKOFF_NS << (attempts - 1).min(5))
                    .await;
            }
            r => return r,
        }
    }
}

/// Single-copy transfer with short-transfer resume: a truncated CMA
/// move resumes past the bytes that landed (forward progress resets the
/// retry budget), zero-progress truncations and transients retry
/// bounded.
async fn cma_resume<C: AsyncComm>(
    comm: &mut C,
    read: bool,
    token: RemoteToken,
    remote_off: usize,
    buf: BufId,
    local_off: usize,
    len: usize,
) -> Result<()> {
    let mut at = 0usize;
    let mut attempts = 0u32;
    while at < len {
        let r = if read {
            comm.cma_read(token, remote_off + at, buf, local_off + at, len - at)
                .await
        } else {
            comm.cma_write(token, remote_off + at, buf, local_off + at, len - at)
                .await
        };
        match r {
            Ok(()) => return Ok(()),
            Err(CommError::Truncated { got, .. }) if got > 0 => {
                at += got.min(len - at);
                attempts = 0;
            }
            Err(e)
                if (matches!(e, CommError::Truncated { .. }) || is_transient(&e))
                    && attempts < RETRY_MAX =>
            {
                attempts += 1;
                comm.sleep_ns(RETRY_BACKOFF_NS << (attempts - 1).min(5))
                    .await;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Node layout extracted from a communicator.
#[derive(Debug, Clone)]
pub struct NodeLayout {
    /// Member ranks per node id (sorted), indexed by node.
    pub nodes: Vec<Vec<usize>>,
    /// Node of each rank.
    pub node_of: Vec<usize>,
}

impl NodeLayout {
    /// Compute the layout of `comm` (node ids must be dense from 0).
    pub fn of<C: AsyncComm>(comm: &C) -> NodeLayout {
        let p = comm.size();
        let node_of: Vec<usize> = (0..p).map(|r| comm.node_of(r)).collect();
        let n_nodes = node_of.iter().max().copied().unwrap_or(0) + 1;
        let mut nodes = vec![Vec::new(); n_nodes];
        for (r, &n) in node_of.iter().enumerate() {
            nodes[n].push(r);
        }
        NodeLayout { nodes, node_of }
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

/// Two-level MPI_Gather: throttled intra-node writes to the node leader
/// (throttle factor `k`), then leaders ship their node's blocks to the
/// root over the bulk data path.
pub async fn hier_gather_polled<C: AsyncComm>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    count: usize,
    root: usize,
    k: usize,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    if root >= p {
        return Err(CommError::BadRank(root));
    }
    if k == 0 {
        return Err(CommError::Protocol("throttle factor must be ≥ 1".into()));
    }
    let layout = NodeLayout::of(comm);
    let my_node = layout.node_of[me];
    let leader = layout.leader(my_node, root);
    let members = &layout.nodes[my_node];
    let on_root_node = my_node == layout.node_of[root];

    if count == 0 {
        return Ok(());
    }

    if me == leader {
        let rb = if me == root {
            recvbuf.ok_or(CommError::Protocol("root gather needs recvbuf".into()))?
        } else {
            // Staging ordered by local member index.
            comm.alloc(members.len() * count)
        };
        // Where member `m` (local index li) lands in this buffer.
        let slot = |li: usize, m: usize| if me == root { m * count } else { li * count };

        // Intra-node phase: send the leader's token to every member and
        // wait for the last wave's completion notifications.
        let token = with_retry(comm, async |c| c.expose(rb).await).await?;
        let others: Vec<(usize, usize)> = members
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m != me)
            .map(|(li, &m)| (li, m))
            .collect();
        for &(li, m) in &others {
            let mut msg = token.to_bytes().to_vec();
            msg.extend_from_slice(&(slot(li, m) as u64).to_le_bytes());
            with_retry(comm, async |c| c.ctrl_send(m, TAG_TOKEN, &msg).await).await?;
        }
        // Leader's own contribution.
        let my_li = members
            .iter()
            .position(|&m| m == me)
            .expect("calling rank is in the member list");
        match (me == root, sendbuf) {
            (true, Some(sb)) => comm.copy_local(sb, 0, rb, me * count, count).await?,
            (true, None) => {} // MPI_IN_PLACE at root
            (false, sb) => {
                let sb = sb.ok_or(CommError::Protocol("non-root gather needs sendbuf".into()))?;
                comm.copy_local(sb, 0, rb, slot(my_li, me), count).await?;
            }
        }
        for (w, &(_, m)) in others.iter().enumerate() {
            // Last wave = chain positions within k of the end.
            if w + k >= others.len() {
                with_retry(comm, async |c| c.wait_notify(m, TAG_DONE).await).await?;
            }
        }

        // Inter-node phase.
        if me == root {
            // Receive every other node's blocks. With block-distributed
            // ranks a node's region of the receive buffer is contiguous,
            // so the bulk transfer lands directly in place; otherwise it
            // goes through a staging copy.
            for (n, node_members) in layout.nodes.iter().enumerate() {
                if n == my_node {
                    continue;
                }
                let l = layout.leader(n, root);
                let contiguous = node_members.windows(2).all(|w| w[1] == w[0] + 1);
                if contiguous {
                    with_retry(comm, async |c| {
                        c.shm_recv_data(
                            l,
                            TAG_BULK,
                            rb,
                            node_members[0] * count,
                            node_members.len() * count,
                        )
                        .await
                    })
                    .await?;
                } else {
                    let tmp = comm.alloc(node_members.len() * count);
                    with_retry(comm, async |c| {
                        c.shm_recv_data(l, TAG_BULK, tmp, 0, node_members.len() * count)
                            .await
                    })
                    .await?;
                    for (li, &m) in node_members.iter().enumerate() {
                        comm.copy_local(tmp, li * count, rb, m * count, count)
                            .await?;
                    }
                    comm.free(tmp)?;
                }
            }
        } else {
            with_retry(comm, async |c| {
                c.shm_send_data(root, TAG_BULK, rb, 0, members.len() * count)
                    .await
            })
            .await?;
            comm.free(rb)?;
        }
    } else {
        // Member: receive leader token + slot, throttled-write, chain.
        let sb = sendbuf.ok_or(CommError::Protocol("non-root gather needs sendbuf".into()))?;
        let msg = with_retry(comm, async |c| c.ctrl_recv(leader, TAG_TOKEN).await).await?;
        if msg.len() != RemoteToken::WIRE_LEN + 8 {
            return Err(CommError::Protocol("bad hier token message".into()));
        }
        let token = RemoteToken::from_bytes(&msg)
            .ok_or_else(|| CommError::Protocol("message is not a remote token".into()))?;
        let off =
            u64::from_le_bytes(msg[16..24].try_into().expect("length checked above")) as usize;
        let _ = on_root_node;

        // Chain position among this node's non-leader members.
        let others: Vec<usize> = members.iter().copied().filter(|&m| m != leader).collect();
        let pos = others
            .iter()
            .position(|&m| m == me)
            .expect("calling rank is in the member list");
        if pos >= k {
            with_retry(comm, async |c| {
                c.wait_notify(others[pos - k], TAG_CHAIN).await
            })
            .await?;
        }
        cma_resume(comm, false, token, off, sb, 0, count).await?;
        if pos + k < others.len() {
            with_retry(comm, async |c| c.notify(others[pos + k], TAG_CHAIN).await).await?;
        }
        if pos + k >= others.len() {
            with_retry(comm, async |c| c.notify(leader, TAG_DONE).await).await?;
        }
    }
    Ok(())
}

/// Two-level MPI_Scatter: the root ships each node's chunk to its leader
/// over the bulk path; leaders serve their node with throttled reads.
pub async fn hier_scatter_polled<C: AsyncComm>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    count: usize,
    root: usize,
    k: usize,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    if root >= p {
        return Err(CommError::BadRank(root));
    }
    if k == 0 {
        return Err(CommError::Protocol("throttle factor must be ≥ 1".into()));
    }
    let layout = NodeLayout::of(comm);
    let my_node = layout.node_of[me];
    let leader = layout.leader(my_node, root);
    let members = &layout.nodes[my_node];
    if count == 0 {
        return Ok(());
    }

    if me == root {
        let sb = sendbuf.ok_or(CommError::Protocol("root scatter needs sendbuf".into()))?;
        // Ship each remote node its chunk, ordered by local index (no
        // staging needed when the node's ranks are contiguous).
        for (n, node_members) in layout.nodes.iter().enumerate() {
            if n == my_node {
                continue;
            }
            let l = layout.leader(n, root);
            let contiguous = node_members.windows(2).all(|w| w[1] == w[0] + 1);
            if contiguous {
                with_retry(comm, async |c| {
                    c.shm_send_data(
                        l,
                        TAG_BULK,
                        sb,
                        node_members[0] * count,
                        node_members.len() * count,
                    )
                    .await
                })
                .await?;
            } else {
                let tmp = comm.alloc(node_members.len() * count);
                for (li, &m) in node_members.iter().enumerate() {
                    comm.copy_local(sb, m * count, tmp, li * count, count)
                        .await?;
                }
                with_retry(comm, async |c| {
                    c.shm_send_data(l, TAG_BULK, tmp, 0, node_members.len() * count)
                        .await
                })
                .await?;
                comm.free(tmp)?;
            }
        }
        // Serve the root's own node with throttled reads from sendbuf.
        serve_node(comm, sb, members, me, count, k, |m| m * count).await?;
        if let Some(rb) = recvbuf {
            comm.copy_local(sb, me * count, rb, 0, count).await?;
        }
    } else if me == leader {
        // Receive this node's chunk, then serve members.
        let staging = comm.alloc(members.len() * count);
        with_retry(comm, async |c| {
            c.shm_recv_data(root, TAG_BULK, staging, 0, members.len() * count)
                .await
        })
        .await?;
        let my_li = members
            .iter()
            .position(|&m| m == me)
            .expect("calling rank is in the member list");
        let rb = recvbuf.ok_or(CommError::Protocol("non-root scatter needs recvbuf".into()))?;
        let li_of = |m: usize| {
            members
                .iter()
                .position(|&x| x == m)
                .expect("member list covers all node ranks")
                * count
        };
        serve_node(comm, staging, members, me, count, k, li_of).await?;
        comm.copy_local(staging, my_li * count, rb, 0, count)
            .await?;
        comm.free(staging)?;
    } else {
        // Member: token + offset arrive from the leader; throttled read.
        let rb = recvbuf.ok_or(CommError::Protocol("non-root scatter needs recvbuf".into()))?;
        let msg = with_retry(comm, async |c| c.ctrl_recv(leader, TAG_TOKEN).await).await?;
        if msg.len() != RemoteToken::WIRE_LEN + 8 {
            return Err(CommError::Protocol("bad hier token message".into()));
        }
        let token = RemoteToken::from_bytes(&msg)
            .ok_or_else(|| CommError::Protocol("message is not a remote token".into()))?;
        let off =
            u64::from_le_bytes(msg[16..24].try_into().expect("length checked above")) as usize;
        let others: Vec<usize> = members.iter().copied().filter(|&m| m != leader).collect();
        let pos = others
            .iter()
            .position(|&m| m == me)
            .expect("calling rank is in the member list");
        if pos >= k {
            with_retry(comm, async |c| {
                c.wait_notify(others[pos - k], TAG_CHAIN).await
            })
            .await?;
        }
        cma_resume(comm, true, token, off, rb, 0, count).await?;
        if pos + k < others.len() {
            with_retry(comm, async |c| c.notify(others[pos + k], TAG_CHAIN).await).await?;
        }
        if pos + k >= others.len() {
            with_retry(comm, async |c| c.notify(leader, TAG_DONE).await).await?;
        }
    }
    Ok(())
}

/// Pipelined two-level MPI_Gather (§VII-G's "more advanced designs such
/// as pipelined two-level gather"): identical intra-node throttled
/// phase, but every member acknowledges the leader, and the leader
/// ships each completed wave's blocks to the root immediately — inter-
/// and intra-node transfers overlap instead of serializing.
///
/// Requires block-contiguous rank placement (the `kacc-netsim` cluster
/// layout); falls back to [`hier_gather_polled`] otherwise.
pub async fn hier_gather_pipelined_polled<C: AsyncComm>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    count: usize,
    root: usize,
    k: usize,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    if root >= p {
        return Err(CommError::BadRank(root));
    }
    if k == 0 {
        return Err(CommError::Protocol("throttle factor must be ≥ 1".into()));
    }
    let layout = NodeLayout::of(comm);
    if !layout
        .nodes
        .iter()
        .all(|m| m.windows(2).all(|w| w[1] == w[0] + 1))
    {
        return hier_gather_polled(comm, sendbuf, recvbuf, count, root, k).await;
    }
    let my_node = layout.node_of[me];
    let leader = layout.leader(my_node, root);
    let members = &layout.nodes[my_node];
    if count == 0 {
        return Ok(());
    }

    // Wave structure over the non-leader members, in member order.
    let wave_of = |pos: usize| pos / k;

    if me == leader {
        let rb = if me == root {
            recvbuf.ok_or(CommError::Protocol("root gather needs recvbuf".into()))?
        } else {
            comm.alloc(members.len() * count)
        };
        let base = if me == root { members[0] * count } else { 0 };
        let token = with_retry(comm, async |c| c.expose(rb).await).await?;
        let others: Vec<(usize, usize)> = members
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m != me)
            .map(|(li, &m)| (li, m))
            .collect();
        for &(li, m) in &others {
            let mut msg = token.to_bytes().to_vec();
            msg.extend_from_slice(&((base + li * count) as u64).to_le_bytes());
            with_retry(comm, async |c| c.ctrl_send(m, TAG_TOKEN, &msg).await).await?;
        }
        let my_li = members
            .iter()
            .position(|&m| m == me)
            .expect("calling rank is in the member list");
        match (me == root, sendbuf) {
            (true, Some(sb)) => comm.copy_local(sb, 0, rb, me * count, count).await?,
            (true, None) => {}
            (false, sb) => {
                let sb = sb.ok_or(CommError::Protocol("non-root gather needs sendbuf".into()))?;
                comm.copy_local(sb, 0, rb, base + my_li * count, count)
                    .await?;
            }
        }
        if me == root {
            // The root overlaps by receiving each remote node's waves in
            // order; remote leaders push as waves complete.
            for &(_, m) in &others {
                with_retry(comm, async |c| c.wait_notify(m, TAG_DONE).await).await?;
            }
            for (n, node_members) in layout.nodes.iter().enumerate() {
                if n == my_node {
                    continue;
                }
                let l = layout.leader(n, root);
                let waves = node_members.len().div_ceil(k);
                for w in 0..waves {
                    let lo = w * k;
                    let hi = ((w + 1) * k).min(node_members.len());
                    with_retry(comm, async |c| {
                        c.shm_recv_data(
                            l,
                            Tag::internal(class::HIER, 16 + w as u32),
                            rb,
                            node_members[lo] * count,
                            (hi - lo) * count,
                        )
                        .await
                    })
                    .await?;
                }
            }
        } else {
            // Remote leader: ship each wave as its members complete.
            // (The leader's own block rides with the wave containing it.)
            let waves = members.len().div_ceil(k);
            let mut done = vec![false; members.len()];
            done[my_li] = true;
            for w in 0..waves {
                let lo = w * k;
                let hi = ((w + 1) * k).min(members.len());
                for li in lo..hi {
                    if !done[li] {
                        with_retry(comm, async |c| c.wait_notify(members[li], TAG_DONE).await)
                            .await?;
                        done[li] = true;
                    }
                }
                with_retry(comm, async |c| {
                    c.shm_send_data(
                        root,
                        Tag::internal(class::HIER, 16 + w as u32),
                        rb,
                        lo * count,
                        (hi - lo) * count,
                    )
                    .await
                })
                .await?;
            }
            comm.free(rb)?;
        }
    } else {
        let sb = sendbuf.ok_or(CommError::Protocol("non-root gather needs sendbuf".into()))?;
        let msg = with_retry(comm, async |c| c.ctrl_recv(leader, TAG_TOKEN).await).await?;
        if msg.len() != RemoteToken::WIRE_LEN + 8 {
            return Err(CommError::Protocol("bad hier token message".into()));
        }
        let token = RemoteToken::from_bytes(&msg)
            .ok_or_else(|| CommError::Protocol("message is not a remote token".into()))?;
        let off =
            u64::from_le_bytes(msg[16..24].try_into().expect("length checked above")) as usize;
        let others: Vec<usize> = members.iter().copied().filter(|&m| m != leader).collect();
        let pos = others
            .iter()
            .position(|&m| m == me)
            .expect("calling rank is in the member list");
        if pos >= k {
            with_retry(comm, async |c| {
                c.wait_notify(others[pos - k], TAG_CHAIN).await
            })
            .await?;
        }
        cma_resume(comm, false, token, off, sb, 0, count).await?;
        if pos + k < others.len() {
            with_retry(comm, async |c| c.notify(others[pos + k], TAG_CHAIN).await).await?;
        }
        // Pipelining needs every member's completion, not just the
        // final wave's.
        with_retry(comm, async |c| c.notify(leader, TAG_DONE).await).await?;
        let _ = wave_of;
    }
    Ok(())
}

/// Leader side of a throttled intra-node scatter: expose `buf`, hand each
/// member its token + offset, wait for the last wave.
async fn serve_node<C: AsyncComm>(
    comm: &mut C,
    buf: BufId,
    members: &[usize],
    leader: usize,
    count: usize,
    k: usize,
    offset_of: impl Fn(usize) -> usize,
) -> Result<()> {
    let token = with_retry(comm, async |c| c.expose(buf).await).await?;
    let others: Vec<usize> = members.iter().copied().filter(|&m| m != leader).collect();
    for &m in &others {
        let mut msg = token.to_bytes().to_vec();
        msg.extend_from_slice(&(offset_of(m) as u64).to_le_bytes());
        with_retry(comm, async |c| c.ctrl_send(m, TAG_TOKEN, &msg).await).await?;
    }
    for (w, &m) in others.iter().enumerate() {
        if w + k >= others.len() {
            with_retry(comm, async |c| c.wait_notify(m, TAG_DONE).await).await?;
        }
    }
    let _ = count;
    Ok(())
}

/// [`hier_gather_polled`] on a blocking transport.
pub fn hier_gather<C: Comm + ?Sized>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    count: usize,
    root: usize,
    k: usize,
) -> Result<()> {
    block_on(hier_gather_polled(
        &mut Blocking(comm),
        sendbuf,
        recvbuf,
        count,
        root,
        k,
    ))
}

/// [`hier_scatter_polled`] on a blocking transport.
pub fn hier_scatter<C: Comm + ?Sized>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    count: usize,
    root: usize,
    k: usize,
) -> Result<()> {
    block_on(hier_scatter_polled(
        &mut Blocking(comm),
        sendbuf,
        recvbuf,
        count,
        root,
        k,
    ))
}

/// [`hier_gather_pipelined_polled`] on a blocking transport.
pub fn hier_gather_pipelined<C: Comm + ?Sized>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    count: usize,
    root: usize,
    k: usize,
) -> Result<()> {
    block_on(hier_gather_pipelined_polled(
        &mut Blocking(comm),
        sendbuf,
        recvbuf,
        count,
        root,
        k,
    ))
}
