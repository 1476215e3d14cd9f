//! One-to-all personalized communication: MPI_Scatter (§IV-A).
//!
//! The entry points are thin compile+execute wrappers: the algorithm
//! structure is compiled once into a [`crate::schedule::Schedule`]
//! (memoized in the global [`PlanCache`]) and replayed by the executor.
//! [`scatterv_polled`] is the one implementation, async over any
//! [`AsyncComm`]; [`scatter`]/[`scatterv`]/[`scatterv_with_report`] run
//! it on a blocking [`Comm`]. `scatterv_legacy` keeps the original
//! direct implementation for the traffic-equivalence tests.

use crate::exec::{Bindings, ScheduleReport};
use crate::polled::execute_polled;
use crate::schedule::{compile_scatter, PlanCache, PlanKey};
use crate::{class, unvrank, vrank};
use kacc_comm::{
    block_on, smcoll, AsyncComm, Blocking, BufId, Comm, CommError, CommExt, RemoteToken, Result,
    Tag,
};

/// Scatter algorithm selection (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScatterAlgo {
    /// §IV-A1: every non-root reads its slice from the root's send
    /// buffer concurrently. Minimal steps, maximal lock contention.
    ParallelRead,
    /// §IV-A2: the root writes every slice in turn. Contention-free but
    /// fully serialized at the root.
    SequentialWrite,
    /// §IV-A3: at most `k` concurrent readers, chained with
    /// point-to-point unblock messages (no barriers). `k = p−1`
    /// degenerates to parallel reads, `k = 1` to serialized reads.
    ThrottledRead {
        /// Throttle factor: maximum concurrent readers of the root.
        k: usize,
    },
}

const TAG_DONE: Tag = Tag::internal(class::SCATTER, 1);
const TAG_CHAIN: Tag = Tag::internal(class::SCATTER, 2);

/// MPI_Scatter: the root holds `p·count` bytes in `sendbuf`; every rank
/// receives its `count`-byte slice (by rank order) into `recvbuf`.
///
/// * `sendbuf` — required at the root, ignored elsewhere (pass `None`).
/// * `recvbuf` — required at non-roots. At the root it may be `None`
///   (`MPI_IN_PLACE`: the root's slice stays in `sendbuf`).
///
/// Every rank must pass the same `algo`, `count`, and `root`.
pub fn scatter<C: Comm + ?Sized>(
    comm: &mut C,
    algo: ScatterAlgo,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    count: usize,
    root: usize,
) -> Result<()> {
    let p = comm.size();
    let counts = vec![count; p];
    scatterv(comm, algo, sendbuf, recvbuf, &counts, None, root)
}

/// MPI_Scatterv: slice `r` has `counts[r]` bytes, located at
/// `displs[r]` in the root's send buffer (contiguous packing when
/// `displs` is `None`). Every rank passes identical `counts`/`displs`.
pub fn scatterv<C: Comm + ?Sized>(
    comm: &mut C,
    algo: ScatterAlgo,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    counts: &[usize],
    displs: Option<&[usize]>,
    root: usize,
) -> Result<()> {
    scatterv_with_report(comm, algo, sendbuf, recvbuf, counts, displs, root).map(|_| ())
}

/// [`scatterv`] returning the executor's per-step accounting. `None`
/// when the call was satisfied without a schedule (single rank or
/// all-zero counts).
pub fn scatterv_with_report<C: Comm + ?Sized>(
    comm: &mut C,
    algo: ScatterAlgo,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    counts: &[usize],
    displs: Option<&[usize]>,
    root: usize,
) -> Result<Option<ScheduleReport>> {
    block_on(scatterv_polled(
        &mut Blocking(comm),
        algo,
        sendbuf,
        recvbuf,
        counts,
        displs,
        root,
    ))
}

/// [`scatter`](fn@scatter) on any [`AsyncComm`] endpoint, returning the
/// executor's per-step accounting.
pub async fn scatter_polled<C: AsyncComm>(
    comm: &mut C,
    algo: ScatterAlgo,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    count: usize,
    root: usize,
) -> Result<Option<ScheduleReport>> {
    let counts = vec![count; comm.size()];
    scatterv_polled(comm, algo, sendbuf, recvbuf, &counts, None, root).await
}

/// [`scatterv`] on any [`AsyncComm`] endpoint: validate, fetch (or
/// compile) the plan, execute it. `None` when the call was satisfied
/// without a schedule (single rank or all-zero counts).
pub async fn scatterv_polled<C: AsyncComm>(
    comm: &mut C,
    algo: ScatterAlgo,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    counts: &[usize],
    displs: Option<&[usize]>,
    root: usize,
) -> Result<Option<ScheduleReport>> {
    let Some(layout) = prepare(comm, sendbuf, recvbuf, counts, displs, root).await? else {
        return Ok(None);
    };
    if let ScatterAlgo::ThrottledRead { k } = algo {
        if k == 0 {
            return Err(CommError::Protocol("throttle factor must be ≥ 1".into()));
        }
    }
    let p = comm.size();
    let me = comm.rank();
    let plan = PlanCache::global().get_or_compile(
        PlanKey::Scatter {
            algo,
            p,
            rank: me,
            counts: counts.to_vec(),
            displs: displs.map(<[usize]>::to_vec),
            root,
            has_recvbuf: recvbuf.is_some(),
        },
        || compile_scatter(algo, p, me, &layout, root, recvbuf.is_some()),
    );
    execute_polled(
        comm,
        &plan,
        &Bindings {
            send: sendbuf,
            recv: recvbuf,
        },
    )
    .await
    .map(Some)
}

/// Validation and degenerate-case handling shared by the compiled and
/// legacy paths: the per-rank `(offset, len)` layout to run the algorithm
/// with, or `None` when nothing is left to do (single rank or all-zero
/// counts).
async fn prepare<C: AsyncComm>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    counts: &[usize],
    displs: Option<&[usize]>,
    root: usize,
) -> Result<Option<Vec<(usize, usize)>>> {
    let p = comm.size();
    let me = comm.rank();
    if root >= p {
        return Err(CommError::BadRank(root));
    }
    if counts.len() != p || displs.is_some_and(|d| d.len() != p) {
        return Err(CommError::Protocol(
            "counts/displs length must equal size".into(),
        ));
    }
    let layout = build_layout(counts, displs);
    if me == root {
        let sb = sendbuf.ok_or(CommError::Protocol("root scatter needs sendbuf".into()))?;
        let need = layout
            .iter()
            .map(|&(off, len)| off + len)
            .max()
            .unwrap_or(0);
        let cap = comm.buf_len(sb)?;
        if cap < need {
            return Err(CommError::OutOfRange {
                buf: sb.0,
                off: 0,
                len: need,
                cap,
            });
        }
    } else if recvbuf.is_none() && counts[me] > 0 {
        return Err(CommError::Protocol("non-root scatter needs recvbuf".into()));
    }
    if p == 1 {
        let sb = sendbuf.expect("validated: sender binds sendbuf");
        let (off, len) = layout[root];
        if let (Some(rb), true) = (recvbuf, len > 0) {
            comm.copy_local(sb, off, rb, 0, len).await?;
        }
        return Ok(None);
    }
    if counts.iter().all(|&c| c == 0) {
        return Ok(None);
    }
    Ok(Some(layout))
}

/// Original direct implementation, kept verbatim so tests can assert the
/// compiled schedules are traffic- and result-identical to it.
#[doc(hidden)]
pub fn scatterv_legacy<C: Comm + ?Sized>(
    comm: &mut C,
    algo: ScatterAlgo,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    counts: &[usize],
    displs: Option<&[usize]>,
    root: usize,
) -> Result<()> {
    let blocking = &mut Blocking(&mut *comm);
    let prepared = prepare(blocking, sendbuf, recvbuf, counts, displs, root);
    let Some(layout) = block_on(prepared)? else {
        return Ok(());
    };
    match algo {
        ScatterAlgo::ParallelRead => parallel_read(comm, sendbuf, recvbuf, &layout, root),
        ScatterAlgo::SequentialWrite => sequential_write(comm, sendbuf, recvbuf, &layout, root),
        ScatterAlgo::ThrottledRead { k } => {
            if k == 0 {
                return Err(CommError::Protocol("throttle factor must be ≥ 1".into()));
            }
            throttled_read(comm, sendbuf, recvbuf, &layout, root, k)
        }
    }
}

/// Per-rank `(offset, len)` placement in the root's buffer.
pub(crate) fn build_layout(counts: &[usize], displs: Option<&[usize]>) -> Vec<(usize, usize)> {
    match displs {
        Some(d) => d
            .iter()
            .zip(counts)
            .map(|(&off, &len)| (off, len))
            .collect(),
        None => {
            let mut at = 0usize;
            counts
                .iter()
                .map(|&len| {
                    let here = at;
                    at += len;
                    (here, len)
                })
                .collect()
        }
    }
}

/// Copy the root's own slice out of its send buffer (skipped under
/// `MPI_IN_PLACE`, i.e. `recvbuf == None`).
fn root_self_copy<C: Comm + ?Sized>(
    comm: &mut C,
    sendbuf: BufId,
    recvbuf: Option<BufId>,
    layout: &[(usize, usize)],
    root: usize,
) -> Result<()> {
    let (off, len) = layout[root];
    if let (Some(rb), true) = (recvbuf, len > 0) {
        comm.copy_local(sendbuf, off, rb, 0, len)?;
    }
    Ok(())
}

fn parallel_read<C: Comm + ?Sized>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    layout: &[(usize, usize)],
    root: usize,
) -> Result<()> {
    let me = comm.rank();
    if me == root {
        let sb = sendbuf.expect("validated: sender binds sendbuf");
        let token = comm.expose(sb)?;
        smcoll::sm_bcast(comm, root, &token.to_bytes())?;
        // The root's own copy overlaps with the peers' reads.
        root_self_copy(comm, sb, recvbuf, layout, root)?;
        smcoll::sm_gather(comm, root, &[])?;
    } else {
        let raw = smcoll::sm_bcast(comm, root, &[])?;
        let token =
            RemoteToken::from_bytes(&raw).ok_or(CommError::Protocol("bad scatter token".into()))?;
        let (off, len) = layout[me];
        if len > 0 {
            comm.cma_read(
                token,
                off,
                recvbuf.expect("validated: root binds recvbuf"),
                0,
                len,
            )?;
        }
        smcoll::sm_gather(comm, root, &[])?;
    }
    Ok(())
}

fn sequential_write<C: Comm + ?Sized>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    layout: &[(usize, usize)],
    root: usize,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    if me == root {
        let sb = sendbuf.expect("validated: sender binds sendbuf");
        // Reversed control order: gather every receive-buffer token.
        let tokens =
            smcoll::sm_gather(comm, root, &[])?.expect("sm_gather yields entries at the root");
        // The root's own memcpy cannot overlap: the root is the engine
        // of every transfer (paper §IV-A2).
        root_self_copy(comm, sb, recvbuf, layout, root)?;
        for v in 1..p {
            let r = unvrank(v, root, p);
            let (off, len) = layout[r];
            if len == 0 {
                continue;
            }
            let token = RemoteToken::from_bytes(&tokens[r])
                .ok_or(CommError::Protocol("bad scatter recv token".into()))?;
            comm.cma_write(token, 0, sb, off, len)?;
        }
        smcoll::sm_bcast(comm, root, &[])?;
    } else {
        // Zero-count ranks still join the collective control phases but
        // have no buffer to expose (the root skips their slot).
        let token_bytes = if layout[comm.rank()].1 > 0 {
            comm.expose(recvbuf.expect("validated: root binds recvbuf"))?
                .to_bytes()
                .to_vec()
        } else {
            Vec::new()
        };
        smcoll::sm_gather(comm, root, &token_bytes)?;
        smcoll::sm_bcast(comm, root, &[])?;
    }
    Ok(())
}

fn throttled_read<C: Comm + ?Sized>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    layout: &[(usize, usize)],
    root: usize,
    k: usize,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    if me == root {
        let sb = sendbuf.expect("validated: sender binds sendbuf");
        let token = comm.expose(sb)?;
        smcoll::sm_bcast(comm, root, &token.to_bytes())?;
        root_self_copy(comm, sb, recvbuf, layout, root)?;
        // The last wave is the set of virtual ranks v with v+k > p−1; a
        // single acknowledgement would not cover the k concurrent
        // readers of the final step (§IV-A3).
        for v in (1..p).filter(|v| v + k > p - 1) {
            comm.wait_notify(unvrank(v, root, p), TAG_DONE)?;
        }
    } else {
        let raw = smcoll::sm_bcast(comm, root, &[])?;
        let token =
            RemoteToken::from_bytes(&raw).ok_or(CommError::Protocol("bad scatter token".into()))?;
        let v = vrank(me, root, p);
        // Chained throttling: wait for rank v−k, read, unblock rank v+k.
        if v > k {
            comm.wait_notify(unvrank(v - k, root, p), TAG_CHAIN)?;
        }
        let (off, len) = layout[me];
        if len > 0 {
            comm.cma_read(
                token,
                off,
                recvbuf.expect("validated: root binds recvbuf"),
                0,
                len,
            )?;
        }
        if v + k < p {
            comm.notify(unvrank(v + k, root, p), TAG_CHAIN)?;
        } else {
            comm.notify(root, TAG_DONE)?;
        }
    }
    Ok(())
}
