//! One-to-all personalized communication: MPI_Scatter (§IV-A).
//!
//! The entry points are thin compile+execute wrappers: the algorithm
//! structure is compiled once into a [`crate::schedule::Schedule`]
//! (memoized in the global [`PlanCache`]) and replayed by the executor.
//! [`scatterv_polled`] is the one implementation, async over any
//! [`AsyncComm`]; [`scatter`](fn@scatter) runs it on a blocking [`Comm`].

use crate::check_len;
use crate::exec::{Bindings, ScheduleReport};
use crate::polled::execute_polled;
use crate::schedule::{PlanCache, PlanKey};
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
    block_on(scatter_polled(
        &mut Blocking(comm),
        algo,
        sendbuf,
        recvbuf,
        count,
        root,
    ))
    .map(drop)
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

/// MPI_Scatterv on any [`AsyncComm`] endpoint: slice `r` has `counts[r]`
/// bytes, located at `displs[r]` in the root's send buffer (contiguous
/// packing when `displs` is `None`). Every rank passes identical
/// `counts`/`displs`. Validates, fetches (or compiles) the plan and
/// executes it; `None` when the call was satisfied without a schedule
/// (single rank or all-zero counts).
pub async fn scatterv_polled<C: AsyncComm>(
    comm: &mut C,
    algo: ScatterAlgo,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    counts: &[usize],
    displs: Option<&[usize]>,
    root: usize,
) -> Result<Option<ScheduleReport>> {
    if !prepare(comm, sendbuf, recvbuf, counts, displs, root).await? {
        return Ok(None);
    }
    if let ScatterAlgo::ThrottledRead { k } = algo {
        if k == 0 {
            return Err(CommError::Protocol("throttle factor must be ≥ 1".into()));
        }
    }
    let plan = PlanCache::global().plan(PlanKey::Scatter {
        algo,
        p: comm.size(),
        rank: comm.rank(),
        counts: counts.to_vec(),
        displs: displs.map(<[usize]>::to_vec),
        root,
        has_recvbuf: recvbuf.is_some(),
    });
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

/// Validation and degenerate-case handling. Returns `false` when
/// nothing is left to do (single rank or all-zero counts).
async fn prepare<C: AsyncComm>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    counts: &[usize],
    displs: Option<&[usize]>,
    root: usize,
) -> Result<bool> {
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
        let need = layout.iter().map(|&(off, len)| off + len).max();
        check_len(comm, sb, need.unwrap_or(0))?;
    } else if recvbuf.is_none() && counts[me] > 0 {
        return Err(CommError::Protocol("non-root scatter needs recvbuf".into()));
    }
    if p == 1 {
        let sb = sendbuf.expect("validated: sender binds sendbuf");
        let (off, len) = layout[root];
        if let (Some(rb), true) = (recvbuf, len > 0) {
            comm.copy_local(sb, off, rb, 0, len).await?;
        }
        return Ok(false);
    }
    Ok(counts.iter().any(|&c| c > 0))
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
