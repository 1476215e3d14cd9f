//! One-to-all personalized communication: MPI_Scatter (§IV-A).
//!
//! The entry points are thin compile+execute wrappers: the algorithm
//! structure is compiled once into a [`crate::schedule::Schedule`]
//! (memoized in the global [`PlanCache`]) and replayed by the executor.
//! [`scatterv_polled`] is the one implementation, async over any
//! [`AsyncComm`]; [`scatter`]/[`scatterv`]/[`scatterv_with_report`] run
//! it on a blocking [`Comm`].

use crate::exec::{Bindings, ScheduleReport};
use crate::polled::execute_polled;
use crate::schedule::{compile_scatter, PlanCache, PlanKey};
use kacc_comm::{block_on, AsyncComm, Blocking, BufId, Comm, CommError, Result};

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

/// Validation and degenerate-case handling: the per-rank
/// `(offset, len)` layout to run the algorithm with, or `None` when
/// nothing is left to do (single rank or all-zero counts).
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
