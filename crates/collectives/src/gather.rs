//! All-to-one personalized communication: MPI_Gather (§IV-B).
//!
//! The algorithms mirror the Scatter designs with the direction of the
//! kernel-assisted operations reversed: the contended resource is the
//! *root's* page-table lock, written to by many peers at once.
//!
//! Like Scatter, the entry points compile to a
//! [`crate::schedule::Schedule`] (cached in the global [`PlanCache`])
//! and replay it through the executor: [`gatherv_polled`] is the one
//! implementation, async over any [`AsyncComm`], and
//! [`gather`]/[`gatherv`]/[`gatherv_with_report`] run it on a blocking
//! [`Comm`]. `gatherv_legacy` keeps the direct implementation for
//! equivalence tests.

use crate::exec::{Bindings, ScheduleReport};
use crate::polled::execute_polled;
use crate::schedule::{compile_gather, PlanCache, PlanKey};
use crate::{class, unvrank, vrank};
use kacc_comm::{
    block_on, smcoll, AsyncComm, Blocking, BufId, Comm, CommError, CommExt, RemoteToken, Result,
    Tag,
};

/// Gather algorithm selection (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GatherAlgo {
    /// §IV-B1: every non-root writes its block into the root's receive
    /// buffer concurrently.
    ParallelWrite,
    /// §IV-B2: the root reads every block in turn.
    SequentialRead,
    /// §IV-B3: at most `k` concurrent writers, chained with
    /// point-to-point unblock messages.
    ThrottledWrite {
        /// Throttle factor: maximum concurrent writers to the root.
        k: usize,
    },
}

const TAG_DONE: Tag = Tag::internal(class::GATHER, 1);
const TAG_CHAIN: Tag = Tag::internal(class::GATHER, 2);

/// MPI_Gather: every rank contributes `count` bytes from `sendbuf`; the
/// root assembles them (by rank order) into its `p·count`-byte `recvbuf`.
///
/// * `recvbuf` — required at the root, ignored elsewhere (pass `None`).
/// * `sendbuf` — required at non-roots. At the root it may be `None`
///   (`MPI_IN_PLACE`: the root's block is already in place in `recvbuf`).
pub fn gather<C: Comm + ?Sized>(
    comm: &mut C,
    algo: GatherAlgo,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    count: usize,
    root: usize,
) -> Result<()> {
    let p = comm.size();
    let counts = vec![count; p];
    gatherv(comm, algo, sendbuf, recvbuf, &counts, None, root)
}

/// MPI_Gatherv: rank `r` contributes `counts[r]` bytes, landing at
/// `displs[r]` in the root's receive buffer (contiguous packing when
/// `displs` is `None`). Every rank passes identical `counts`/`displs`.
pub fn gatherv<C: Comm + ?Sized>(
    comm: &mut C,
    algo: GatherAlgo,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    counts: &[usize],
    displs: Option<&[usize]>,
    root: usize,
) -> Result<()> {
    gatherv_with_report(comm, algo, sendbuf, recvbuf, counts, displs, root).map(|_| ())
}

/// [`gatherv`] returning the executor's per-step accounting. `None`
/// when the call was satisfied without a schedule (single rank or
/// all-zero counts).
pub fn gatherv_with_report<C: Comm + ?Sized>(
    comm: &mut C,
    algo: GatherAlgo,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    counts: &[usize],
    displs: Option<&[usize]>,
    root: usize,
) -> Result<Option<ScheduleReport>> {
    block_on(gatherv_polled(
        &mut Blocking(comm),
        algo,
        sendbuf,
        recvbuf,
        counts,
        displs,
        root,
    ))
}

/// [`gatherv`] on any [`AsyncComm`] endpoint: validate, fetch (or
/// compile) the plan, execute it. `None` when the call was satisfied
/// without a schedule (single rank or all-zero counts).
pub async fn gatherv_polled<C: AsyncComm>(
    comm: &mut C,
    algo: GatherAlgo,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    counts: &[usize],
    displs: Option<&[usize]>,
    root: usize,
) -> Result<Option<ScheduleReport>> {
    let Some(layout) = prepare(comm, sendbuf, recvbuf, counts, displs, root).await? else {
        return Ok(None);
    };
    if let GatherAlgo::ThrottledWrite { k } = algo {
        if k == 0 {
            return Err(CommError::Protocol("throttle factor must be ≥ 1".into()));
        }
    }
    let p = comm.size();
    let me = comm.rank();
    let plan = PlanCache::global().get_or_compile(
        PlanKey::Gather {
            algo,
            p,
            rank: me,
            counts: counts.to_vec(),
            displs: displs.map(<[usize]>::to_vec),
            root,
            has_sendbuf: sendbuf.is_some(),
        },
        || compile_gather(algo, p, me, &layout, root, sendbuf.is_some()),
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
    let layout = crate::scatter::build_layout(counts, displs);
    if me == root {
        let rb = recvbuf.ok_or(CommError::Protocol("root gather needs recvbuf".into()))?;
        let need = layout
            .iter()
            .map(|&(off, len)| off + len)
            .max()
            .unwrap_or(0);
        let cap = comm.buf_len(rb)?;
        if cap < need {
            return Err(CommError::OutOfRange {
                buf: rb.0,
                off: 0,
                len: need,
                cap,
            });
        }
    } else if sendbuf.is_none() && counts[me] > 0 {
        return Err(CommError::Protocol("non-root gather needs sendbuf".into()));
    }
    if p == 1 {
        let rb = recvbuf.expect("validated: root binds recvbuf");
        let (off, len) = layout[root];
        if let (Some(sb), true) = (sendbuf, len > 0) {
            comm.copy_local(sb, 0, rb, off, len).await?;
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
pub fn gatherv_legacy<C: Comm + ?Sized>(
    comm: &mut C,
    algo: GatherAlgo,
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
        GatherAlgo::ParallelWrite => parallel_write(comm, sendbuf, recvbuf, &layout, root),
        GatherAlgo::SequentialRead => sequential_read(comm, sendbuf, recvbuf, &layout, root),
        GatherAlgo::ThrottledWrite { k } => {
            if k == 0 {
                return Err(CommError::Protocol("throttle factor must be ≥ 1".into()));
            }
            throttled_write(comm, sendbuf, recvbuf, &layout, root, k)
        }
    }
}

/// Copy the root's own block into its receive buffer (skipped under
/// `MPI_IN_PLACE`, i.e. `sendbuf == None` at the root).
fn root_self_copy<C: Comm + ?Sized>(
    comm: &mut C,
    recvbuf: BufId,
    sendbuf: Option<BufId>,
    layout: &[(usize, usize)],
    root: usize,
) -> Result<()> {
    let (off, len) = layout[root];
    if let (Some(sb), true) = (sendbuf, len > 0) {
        comm.copy_local(sb, 0, recvbuf, off, len)?;
    }
    Ok(())
}

fn parallel_write<C: Comm + ?Sized>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    layout: &[(usize, usize)],
    root: usize,
) -> Result<()> {
    let me = comm.rank();
    if me == root {
        let rb = recvbuf.expect("validated: root binds recvbuf");
        let token = comm.expose(rb)?;
        smcoll::sm_bcast(comm, root, &token.to_bytes())?;
        root_self_copy(comm, rb, sendbuf, layout, root)?;
        smcoll::sm_gather(comm, root, &[])?;
    } else {
        let raw = smcoll::sm_bcast(comm, root, &[])?;
        let token =
            RemoteToken::from_bytes(&raw).ok_or(CommError::Protocol("bad gather token".into()))?;
        let (off, len) = layout[me];
        if len > 0 {
            comm.cma_write(
                token,
                off,
                sendbuf.expect("validated: sender binds sendbuf"),
                0,
                len,
            )?;
        }
        smcoll::sm_gather(comm, root, &[])?;
    }
    Ok(())
}

fn sequential_read<C: Comm + ?Sized>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    layout: &[(usize, usize)],
    root: usize,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    if me == root {
        let rb = recvbuf.expect("validated: root binds recvbuf");
        let tokens =
            smcoll::sm_gather(comm, root, &[])?.expect("sm_gather yields entries at the root");
        root_self_copy(comm, rb, sendbuf, layout, root)?;
        for v in 1..p {
            let r = unvrank(v, root, p);
            let (off, len) = layout[r];
            if len == 0 {
                continue;
            }
            let token = RemoteToken::from_bytes(&tokens[r])
                .ok_or(CommError::Protocol("bad gather send token".into()))?;
            comm.cma_read(token, 0, rb, off, len)?;
        }
        smcoll::sm_bcast(comm, root, &[])?;
    } else {
        // Zero-count ranks still join the collective control phases but
        // have no buffer to expose (the root skips their slot).
        let token_bytes = if layout[comm.rank()].1 > 0 {
            comm.expose(sendbuf.expect("validated: sender binds sendbuf"))?
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

fn throttled_write<C: Comm + ?Sized>(
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
        let rb = recvbuf.expect("validated: root binds recvbuf");
        let token = comm.expose(rb)?;
        smcoll::sm_bcast(comm, root, &token.to_bytes())?;
        root_self_copy(comm, rb, sendbuf, layout, root)?;
        for v in (1..p).filter(|v| v + k > p - 1) {
            comm.wait_notify(unvrank(v, root, p), TAG_DONE)?;
        }
    } else {
        let raw = smcoll::sm_bcast(comm, root, &[])?;
        let token =
            RemoteToken::from_bytes(&raw).ok_or(CommError::Protocol("bad gather token".into()))?;
        let v = vrank(me, root, p);
        if v > k {
            comm.wait_notify(unvrank(v - k, root, p), TAG_CHAIN)?;
        }
        let (off, len) = layout[me];
        if len > 0 {
            comm.cma_write(
                token,
                off,
                sendbuf.expect("validated: sender binds sendbuf"),
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
