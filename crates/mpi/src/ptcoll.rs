//! Classic collective algorithms over point-to-point transfers — the
//! building blocks of the baseline library personas.
//!
//! These are the algorithms production libraries fall back to when no
//! native kernel-assisted collective exists: binomial trees for rooted
//! collectives, a ring for allgather, pairwise exchange for alltoall.
//! Every data hop pays the full pt2pt protocol cost (eager copies or
//! RTS/CTS rendezvous), which is precisely the overhead the paper's
//! native designs eliminate.
//!
//! Everything here is `async` over [`AsyncComm`].

use crate::pt2pt::{self, Protocol};
use kacc_comm::{AsyncComm, BufId, CommError, Result};

fn vrank(rank: usize, root: usize, p: usize) -> usize {
    (rank + p - root) % p
}

fn unvrank(v: usize, root: usize, p: usize) -> usize {
    (v + root) % p
}

/// Binomial-tree broadcast over pt2pt: ⌈log₂ p⌉ forwarding rounds, each
/// moving the full message.
pub async fn bcast<C: AsyncComm>(
    comm: &mut C,
    buf: BufId,
    count: usize,
    root: usize,
    proto: Protocol,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    if root >= p {
        return Err(CommError::BadRank(root));
    }
    if p == 1 || count == 0 {
        return Ok(());
    }
    let v = vrank(me, root, p);
    if v != 0 {
        let parent = v & (v - 1);
        pt2pt::recv(comm, unvrank(parent, root, p), 20, buf, 0, count, proto).await?;
    }
    let low = if v == 0 {
        usize::MAX
    } else {
        v & v.wrapping_neg()
    };
    // Forward to children, largest subtree first.
    let mut bits: Vec<usize> = Vec::new();
    let mut bit = 1usize;
    while bit < p {
        if bit < low {
            bits.push(bit);
        }
        bit <<= 1;
    }
    for &b in bits.iter().rev() {
        let child = v | b;
        if child != v && child < p {
            pt2pt::send(comm, unvrank(child, root, p), 20, buf, 0, count, proto).await?;
        }
    }
    Ok(())
}

/// Binomial-tree scatter over pt2pt: the root pushes halves of the block
/// range down the tree; intermediate ranks stage their subtree's blocks
/// in a temporary buffer.
pub async fn scatter<C: AsyncComm>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
    root: usize,
    proto: Protocol,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    if root >= p {
        return Err(CommError::BadRank(root));
    }
    if count == 0 {
        return Ok(());
    }
    let v = vrank(me, root, p);

    if v == 0 {
        let sb = sendbuf.ok_or(CommError::Protocol("root scatter needs sendbuf".into()))?;
        // Stage in virtual order so subtree ranges are contiguous.
        let staged = comm.alloc(p * count);
        for vv in 0..p {
            comm.copy_local(sb, unvrank(vv, root, p) * count, staged, vv * count, count)
                .await?;
        }
        let mut span = p.next_power_of_two();
        while span > 1 {
            span /= 2;
            let child = span;
            if child < p {
                let blocks = span.min(p - child);
                pt2pt::send(
                    comm,
                    unvrank(child, root, p),
                    21,
                    staged,
                    child * count,
                    blocks * count,
                    proto,
                )
                .await?;
            }
        }
        comm.copy_local(staged, 0, recvbuf, 0, count).await?;
        comm.free(staged)?;
    } else {
        // My subtree spans [v, v + span) where span = lowest set bit.
        let span = v & v.wrapping_neg();
        let blocks = span.min(p - v);
        let parent = v & (v - 1);
        if blocks == 1 {
            pt2pt::recv(comm, unvrank(parent, root, p), 21, recvbuf, 0, count, proto).await?;
        } else {
            let staged = comm.alloc(blocks * count);
            pt2pt::recv(
                comm,
                unvrank(parent, root, p),
                21,
                staged,
                0,
                blocks * count,
                proto,
            )
            .await?;
            // Forward sub-halves to children: child = v + 2^b for each
            // bit b below our span bit.
            let mut half = span;
            while half > 1 {
                half /= 2;
                let child = v + half;
                if child < p {
                    let cblocks = half.min(p - child);
                    pt2pt::send(
                        comm,
                        unvrank(child, root, p),
                        21,
                        staged,
                        half * count,
                        cblocks * count,
                        proto,
                    )
                    .await?;
                }
            }
            comm.copy_local(staged, 0, recvbuf, 0, count).await?;
            comm.free(staged)?;
        }
    }
    Ok(())
}

/// Binomial-tree gather over pt2pt (reverse of [`scatter`]).
pub async fn gather<C: AsyncComm>(
    comm: &mut C,
    sendbuf: BufId,
    recvbuf: Option<BufId>,
    count: usize,
    root: usize,
    proto: Protocol,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    if root >= p {
        return Err(CommError::BadRank(root));
    }
    if count == 0 {
        return Ok(());
    }
    let v = vrank(me, root, p);
    let span = if v == 0 {
        p.next_power_of_two()
    } else {
        v & v.wrapping_neg()
    };
    let blocks = span.min(p.saturating_sub(v)).max(1);

    // Collect the subtree into staging (own block at offset 0).
    let staged = if v == 0 || blocks > 1 {
        Some(comm.alloc(blocks * count))
    } else {
        None
    };
    let own_target = staged.unwrap_or(sendbuf);
    if staged.is_some() {
        comm.copy_local(sendbuf, 0, own_target, 0, count).await?;
    }
    // Receive children's subtrees, smallest first (mirrors scatter).
    let mut half = 1usize;
    while half < span {
        let child = v + half;
        if child < p {
            let cblocks = half.min(p - child);
            let st = staged.expect("internal nodes have staging");
            pt2pt::recv(
                comm,
                unvrank(child, root, p),
                22,
                st,
                half * count,
                cblocks * count,
                proto,
            )
            .await?;
        }
        half *= 2;
    }

    if v == 0 {
        let rb = recvbuf.ok_or(CommError::Protocol("root gather needs recvbuf".into()))?;
        let st = staged.expect("the tree root always stages");
        for vv in 0..p {
            comm.copy_local(st, vv * count, rb, unvrank(vv, root, p) * count, count)
                .await?;
        }
        comm.free(st)?;
    } else {
        let parent = v & (v - 1);
        pt2pt::send(
            comm,
            unvrank(parent, root, p),
            22,
            own_target,
            0,
            blocks * count,
            proto,
        )
        .await?;
        if let Some(st) = staged {
            comm.free(st)?;
        }
    }
    Ok(())
}

/// Flat (direct) gather over pt2pt: every non-root sends straight to the
/// root, which services the p−1 transfers in rank order. This is the
/// single-level strategy libraries default to for large messages; every
/// message pays the full protocol handshake at the root, which is what
/// makes it degrade with scale (§VII-G).
pub async fn gather_direct<C: AsyncComm>(
    comm: &mut C,
    sendbuf: BufId,
    recvbuf: Option<BufId>,
    count: usize,
    root: usize,
    proto: Protocol,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    if root >= p {
        return Err(CommError::BadRank(root));
    }
    if count == 0 {
        return Ok(());
    }
    if me == root {
        let rb = recvbuf.ok_or(CommError::Protocol("root gather needs recvbuf".into()))?;
        comm.copy_local(sendbuf, 0, rb, root * count, count).await?;
        for v in 1..p {
            let r = unvrank(v, root, p);
            pt2pt::recv(comm, r, 25, rb, r * count, count, proto).await?;
        }
    } else {
        pt2pt::send(comm, root, 25, sendbuf, 0, count, proto).await?;
    }
    Ok(())
}

/// Flat (direct) scatter over pt2pt: the root sends each rank its block
/// directly, in rank order.
pub async fn scatter_direct<C: AsyncComm>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
    root: usize,
    proto: Protocol,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    if root >= p {
        return Err(CommError::BadRank(root));
    }
    if count == 0 {
        return Ok(());
    }
    if me == root {
        let sb = sendbuf.ok_or(CommError::Protocol("root scatter needs sendbuf".into()))?;
        comm.copy_local(sb, root * count, recvbuf, 0, count).await?;
        for v in 1..p {
            let r = unvrank(v, root, p);
            pt2pt::send(comm, r, 26, sb, r * count, count, proto).await?;
        }
    } else {
        pt2pt::recv(comm, root, 26, recvbuf, 0, count, proto).await?;
    }
    Ok(())
}

/// Ring allgather over pt2pt: p−1 `sendrecv` steps forwarding the block
/// received in the previous step.
pub async fn allgather<C: AsyncComm>(
    comm: &mut C,
    sendbuf: BufId,
    recvbuf: BufId,
    count: usize,
    proto: Protocol,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    if count == 0 {
        return Ok(());
    }
    comm.copy_local(sendbuf, 0, recvbuf, me * count, count)
        .await?;
    if p == 1 {
        return Ok(());
    }
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    for i in 0..p - 1 {
        let send_block = (me + p - i) % p;
        let recv_block = (me + p - i - 1) % p;
        pt2pt::sendrecv(
            comm,
            right,
            recvbuf,
            send_block * count,
            count,
            left,
            recvbuf,
            recv_block * count,
            count,
            23,
            proto,
        )
        .await?;
    }
    Ok(())
}

/// Pairwise-exchange alltoall over pt2pt: p−1 `sendrecv` steps.
pub async fn alltoall<C: AsyncComm>(
    comm: &mut C,
    sendbuf: BufId,
    recvbuf: BufId,
    count: usize,
    proto: Protocol,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    if count == 0 {
        return Ok(());
    }
    comm.copy_local(sendbuf, me * count, recvbuf, me * count, count)
        .await?;
    for i in 1..p {
        let (to, from) = if p.is_power_of_two() {
            (me ^ i, me ^ i)
        } else {
            ((me + i) % p, (me + p - i) % p)
        };
        pt2pt::sendrecv(
            comm,
            to,
            sendbuf,
            to * count,
            count,
            from,
            recvbuf,
            from * count,
            count,
            24,
            proto,
        )
        .await?;
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use kacc_collectives::verify::{
        alltoall_expected, alltoall_sendbuf, contribution, diff, gather_expected, scatter_expected,
        scatter_sendbuf,
    };
    use kacc_machine::{run_polled_team, PolledComm};
    use kacc_model::ArchProfile;

    const PROTOS: [Protocol; 3] = [Protocol::Eager, Protocol::ShmCopy, Protocol::RendezvousCma];

    #[test]
    fn pt2pt_bcast_delivers() {
        for proto in PROTOS {
            for p in [2usize, 5, 8] {
                for root in [0usize, p - 1] {
                    let (_, results) =
                        run_polled_team(&ArchProfile::broadwell(), p, move |rank| async move {
                            let comm = &mut PolledComm::new(rank);
                            let buf = if rank == root {
                                comm.alloc_with(&contribution(root, 3000)).unwrap()
                            } else {
                                comm.alloc(3000)
                            };
                            bcast(comm, buf, 3000, root, proto).await.unwrap();
                            comm.read_all(buf).unwrap()
                        });
                    for got in &results {
                        assert!(diff(got, &contribution(root, 3000)).is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn pt2pt_scatter_delivers() {
        for proto in PROTOS {
            for p in [2usize, 6, 8] {
                for root in [0usize, 2 % p] {
                    let count = 1234;
                    let (_, results) =
                        run_polled_team(&ArchProfile::broadwell(), p, move |me| async move {
                            let comm = &mut PolledComm::new(me);
                            let rb = comm.alloc(count);
                            let sb = (me == root)
                                .then(|| comm.alloc_with(&scatter_sendbuf(p, count)).unwrap());
                            scatter(comm, sb, rb, count, root, proto).await.unwrap();
                            comm.read_all(rb).unwrap()
                        });
                    for (r, got) in results.iter().enumerate() {
                        if let Some(d) = diff(got, &scatter_expected(r, count)) {
                            panic!("{proto:?} p={p} root={root} rank {r}: {d}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pt2pt_gather_delivers() {
        for proto in PROTOS {
            for p in [2usize, 6, 8] {
                for root in [0usize, p / 2] {
                    let count = 999;
                    let (_, results) =
                        run_polled_team(&ArchProfile::broadwell(), p, move |me| async move {
                            let comm = &mut PolledComm::new(me);
                            let sb = comm.alloc_with(&contribution(me, count)).unwrap();
                            let rb = (me == root).then(|| comm.alloc(p * count));
                            gather(comm, sb, rb, count, root, proto).await.unwrap();
                            rb.map(|b| comm.read_all(b).unwrap()).unwrap_or_default()
                        });
                    if let Some(d) = diff(&results[root], &gather_expected(p, count)) {
                        panic!("{proto:?} p={p} root={root}: {d}");
                    }
                }
            }
        }
    }

    #[test]
    fn pt2pt_allgather_delivers() {
        for proto in PROTOS {
            for p in [2usize, 7, 8] {
                let count = 800;
                let (_, results) =
                    run_polled_team(&ArchProfile::broadwell(), p, move |me| async move {
                        let comm = &mut PolledComm::new(me);
                        let sb = comm.alloc_with(&contribution(me, count)).unwrap();
                        let rb = comm.alloc(p * count);
                        allgather(comm, sb, rb, count, proto).await.unwrap();
                        comm.read_all(rb).unwrap()
                    });
                for got in &results {
                    assert!(diff(got, &gather_expected(p, count)).is_none(), "{proto:?}");
                }
            }
        }
    }

    #[test]
    fn pt2pt_alltoall_delivers() {
        for proto in PROTOS {
            for p in [2usize, 5, 8] {
                let count = 600;
                let (_, results) =
                    run_polled_team(&ArchProfile::broadwell(), p, move |me| async move {
                        let comm = &mut PolledComm::new(me);
                        let sb = comm.alloc_with(&alltoall_sendbuf(me, p, count)).unwrap();
                        let rb = comm.alloc(p * count);
                        alltoall(comm, sb, rb, count, proto).await.unwrap();
                        comm.read_all(rb).unwrap()
                    });
                for (r, got) in results.iter().enumerate() {
                    if let Some(d) = diff(got, &alltoall_expected(r, p, count)) {
                        panic!("{proto:?} p={p} rank {r}: {d}");
                    }
                }
            }
        }
    }
}
