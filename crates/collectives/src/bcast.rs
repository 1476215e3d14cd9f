//! One-to-all non-personalized communication: MPI_Bcast (§V-B).
//!
//! The entry points compile to a [`crate::schedule::Schedule`] (cached
//! in the global [`PlanCache`]) and replay it through the executor:
//! [`bcast_polled`] is the one implementation, async over any
//! [`AsyncComm`], and [`bcast`]/[`bcast_with_report`] run it on a
//! blocking [`Comm`]. `bcast_legacy` keeps the direct implementation for
//! equivalence tests.

use crate::exec::{Bindings, ScheduleReport};
use crate::polled::execute_polled;
use crate::schedule::{compile_bcast, PlanCache, PlanKey};
use crate::{class, unvrank, vrank};
use kacc_comm::{
    block_on, smcoll, AsyncComm, Blocking, BufId, Comm, CommError, CommExt, RemoteToken, Result,
    Tag,
};

/// Broadcast algorithm selection (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BcastAlgo {
    /// §V-B1: every non-root reads the root's buffer at once (maximal
    /// contention, one step).
    DirectRead,
    /// §V-B1: the root writes every receive buffer in turn
    /// (contention-free, p−1 steps).
    DirectWrite,
    /// §V-B2: radix-`k` tree — every parent feeds up to k−1 concurrent
    /// readers per round, ⌈log_k p⌉ rounds. The broadcast analogue of
    /// throttled reads.
    KNomial {
        /// Tree radix (≥ 2). Reader concurrency per source is `radix−1`.
        radix: usize,
    },
    /// §V-B3 Van de Geijn: sequential-write scatter of η/p chunks, then a
    /// contention-free ring allgather of the chunks.
    ScatterAllgather,
}

const TAG_DATA: Tag = Tag::internal(class::BCAST, 0);
const TAG_READ_DONE: Tag = Tag::internal(class::BCAST, 1);

/// MPI_Bcast: the root's first `count` bytes of `buf` reach every rank's
/// `buf`. Every rank must pass the same `algo`, `count`, and `root`.
pub fn bcast<C: Comm + ?Sized>(
    comm: &mut C,
    algo: BcastAlgo,
    buf: BufId,
    count: usize,
    root: usize,
) -> Result<()> {
    bcast_with_report(comm, algo, buf, count, root).map(|_| ())
}

/// [`bcast`] returning the executor's per-step accounting. `None` when
/// the call was satisfied without a schedule (single rank or zero count).
pub fn bcast_with_report<C: Comm + ?Sized>(
    comm: &mut C,
    algo: BcastAlgo,
    buf: BufId,
    count: usize,
    root: usize,
) -> Result<Option<ScheduleReport>> {
    block_on(bcast_polled(&mut Blocking(comm), algo, buf, count, root))
}

/// [`bcast`] on any [`AsyncComm`] endpoint: validate, fetch (or compile)
/// the plan, execute it. `None` when the call was satisfied without a
/// schedule (single rank or zero count).
pub async fn bcast_polled<C: AsyncComm>(
    comm: &mut C,
    algo: BcastAlgo,
    buf: BufId,
    count: usize,
    root: usize,
) -> Result<Option<ScheduleReport>> {
    let p = comm.size();
    let me = comm.rank();
    if !validate(comm, buf, count, root)? {
        return Ok(None);
    }
    if let BcastAlgo::KNomial { radix } = algo {
        if radix < 2 {
            return Err(CommError::Protocol("k-nomial radix must be ≥ 2".into()));
        }
    }
    let plan = PlanCache::global().get_or_compile(
        PlanKey::Bcast {
            algo,
            p,
            rank: me,
            count,
            root,
        },
        || compile_bcast(algo, p, me, count, root),
    );
    execute_polled(
        comm,
        &plan,
        &Bindings {
            send: Some(buf),
            recv: None,
        },
    )
    .await
    .map(Some)
}

/// Shared validation; `Ok(false)` means the degenerate case was handled.
fn validate<C: AsyncComm>(comm: &C, buf: BufId, count: usize, root: usize) -> Result<bool> {
    let p = comm.size();
    if root >= p {
        return Err(CommError::BadRank(root));
    }
    let cap = comm.buf_len(buf)?;
    if cap < count {
        return Err(CommError::OutOfRange {
            buf: buf.0,
            off: 0,
            len: count,
            cap,
        });
    }
    Ok(!(p == 1 || count == 0))
}

/// Original direct implementation, kept verbatim so tests can assert the
/// compiled schedules are traffic- and result-identical to it.
#[doc(hidden)]
pub fn bcast_legacy<C: Comm + ?Sized>(
    comm: &mut C,
    algo: BcastAlgo,
    buf: BufId,
    count: usize,
    root: usize,
) -> Result<()> {
    if !validate(&Blocking(&mut *comm), buf, count, root)? {
        return Ok(());
    }
    match algo {
        BcastAlgo::DirectRead => direct_read(comm, buf, count, root),
        BcastAlgo::DirectWrite => direct_write(comm, buf, count, root),
        BcastAlgo::KNomial { radix } => {
            if radix < 2 {
                return Err(CommError::Protocol("k-nomial radix must be ≥ 2".into()));
            }
            knomial(comm, buf, count, root, radix)
        }
        BcastAlgo::ScatterAllgather => scatter_allgather(comm, buf, count, root),
    }
}

fn direct_read<C: Comm + ?Sized>(
    comm: &mut C,
    buf: BufId,
    count: usize,
    root: usize,
) -> Result<()> {
    let me = comm.rank();
    if me == root {
        let token = comm.expose(buf)?;
        smcoll::sm_bcast(comm, root, &token.to_bytes())?;
        smcoll::sm_gather(comm, root, &[])?;
    } else {
        let raw = smcoll::sm_bcast(comm, root, &[])?;
        let token =
            RemoteToken::from_bytes(&raw).ok_or(CommError::Protocol("bad bcast token".into()))?;
        comm.cma_read(token, 0, buf, 0, count)?;
        smcoll::sm_gather(comm, root, &[])?;
    }
    Ok(())
}

fn direct_write<C: Comm + ?Sized>(
    comm: &mut C,
    buf: BufId,
    count: usize,
    root: usize,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    if me == root {
        let tokens =
            smcoll::sm_gather(comm, root, &[])?.expect("sm_gather yields entries at the root");
        for v in 1..p {
            let r = unvrank(v, root, p);
            let token = RemoteToken::from_bytes(&tokens[r])
                .ok_or(CommError::Protocol("bad bcast recv token".into()))?;
            comm.cma_write(token, 0, buf, 0, count)?;
        }
        smcoll::sm_bcast(comm, root, &[])?;
    } else {
        let token = comm.expose(buf)?;
        smcoll::sm_gather(comm, root, &token.to_bytes())?;
        smcoll::sm_bcast(comm, root, &[])?;
    }
    Ok(())
}

/// Radix-`k` tree. Virtual rank v joins in round i = ⌊log_k v⌋, reading
/// from parent v mod k^i together with up to k−2 sibling readers of the
/// same parent; parents serialize their own rounds on their children's
/// read-done notifications, bounding per-source concurrency at k−1.
fn knomial<C: Comm + ?Sized>(
    comm: &mut C,
    buf: BufId,
    count: usize,
    root: usize,
    k: usize,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    let v = vrank(me, root, p);

    // Non-roots first receive their parent's token and pull the data.
    if v != 0 {
        // Join round: largest k-power at or below v.
        let mut kpow = 1usize;
        while kpow * k <= v {
            kpow *= k;
        }
        let parent = unvrank(v % kpow, root, p);
        let raw = comm.ctrl_recv(parent, TAG_DATA)?;
        let token = RemoteToken::from_bytes(&raw)
            .ok_or(CommError::Protocol("bad k-nomial token".into()))?;
        comm.cma_read(token, 0, buf, 0, count)?;
        comm.notify(parent, TAG_READ_DONE)?;
    }

    // Then serve descendants: in round i a holder v < k^i feeds children
    // v + m·k^i (m = 1..k−1). Start at the round after joining.
    let token = comm.expose(buf)?;
    let mut kpow = 1usize;
    while kpow <= v {
        kpow *= k;
    }
    // kpow is now the first round stride where v acts as a parent.
    while kpow < p {
        let mut children = Vec::new();
        for m in 1..k {
            let child = v + m * kpow;
            if child < p {
                children.push(unvrank(child, root, p));
            }
        }
        for &c in &children {
            comm.ctrl_send(c, TAG_DATA, &token.to_bytes())?;
        }
        for &c in &children {
            comm.wait_notify(c, TAG_READ_DONE)?;
        }
        kpow *= k;
    }
    Ok(())
}

/// Van de Geijn scatter-allgather over η/p chunks: chunk v lives at
/// offset v·chunk of everyone's buffer and is owned by virtual rank v.
fn scatter_allgather<C: Comm + ?Sized>(
    comm: &mut C,
    buf: BufId,
    count: usize,
    root: usize,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    let v = vrank(me, root, p);
    let chunk = count.div_ceil(p);
    let chunk_range = |i: usize| {
        let off = i * chunk;
        let len = count.saturating_sub(off).min(chunk);
        (off, len)
    };

    let token = comm.expose(buf)?;
    let tokens = smcoll::sm_allgather(comm, &token.to_bytes())?;
    let tok_of = |tokens: &Vec<Vec<u8>>, r: usize| {
        RemoteToken::from_bytes(&tokens[r]).ok_or(CommError::Protocol("bad sag token".into()))
    };

    // Phase A — sequential-write scatter: the root deposits chunk i into
    // virtual rank i's buffer, then announces completion.
    if v == 0 {
        for i in 1..p {
            let (off, len) = chunk_range(i);
            if len == 0 {
                continue;
            }
            let dst = unvrank(i, root, p);
            comm.cma_write(tok_of(&tokens, dst)?, off, buf, off, len)?;
        }
        smcoll::sm_bcast(comm, root, &[])?;
    } else {
        smcoll::sm_bcast(comm, root, &[])?;
    }

    // Phase B — neighbor-forwarding ring over the chunks (the classic
    // Van de Geijn second phase): step t pulls chunk (v − t) from the
    // left ring neighbor, which committed it in its step t−1. Every rank
    // reads from a distinct source per step (contention-free) and almost
    // every transfer is intra-socket under the by-core mapping. The
    // notify chain keeps neighbors step-aligned; the root holds the
    // whole message already, so it only feeds the chain.
    let left = unvrank((v + p - 1) % p, root, p);
    let right = unvrank((v + 1) % p, root, p);
    let step_tag = Tag::internal(class::BCAST, 2);
    if v == 0 {
        // All of the root's chunks are valid from the start; release its
        // right neighbor for every step at once.
        for _ in 2..p {
            comm.notify(right, step_tag)?;
        }
    } else {
        let left_tok = tok_of(&tokens, left)?;
        for t in 1..p {
            if t > 1 {
                comm.wait_notify(left, step_tag)?;
            }
            let src_v = (v + p - t) % p;
            let (off, len) = chunk_range(src_v);
            if len > 0 {
                comm.cma_read(left_tok, off, buf, off, len)?;
            }
            if t < p - 1 && right != unvrank(0, root, p) {
                comm.notify(right, step_tag)?;
            }
        }
    }
    smcoll::sm_barrier(comm)?;
    Ok(())
}
