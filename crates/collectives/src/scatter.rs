//! One-to-all personalized communication: MPI_Scatter (§IV-A).
//!
//! The entry points are thin check+compile+execute wrappers: the call is
//! checked by the crate's one argument check over its [`PlanKey`], the
//! algorithm structure is compiled once into a
//! [`crate::schedule::Schedule`] by the rooted builder it shares with
//! Gather and direct Bcast (memoized in the global [`PlanCache`]), and
//! the executor replays it. [`scatterv_polled`] is the one
//! implementation, async over any [`AsyncComm`]; [`scatter`](fn@scatter)
//! runs it on a blocking [`Comm`].

use crate::check_call;
use crate::exec::{Bindings, ScheduleReport};
use crate::polled::execute_polled;
use crate::schedule::{PlanCache, PlanKey};
use kacc_comm::{block_on, AsyncComm, Blocking, BufId, Comm, Result};

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
/// `counts`/`displs`. Checks the call on every shape, fetches (or
/// compiles) the plan and executes it; `None` when the call was
/// satisfied without a schedule (single rank or all-zero counts).
pub async fn scatterv_polled<C: AsyncComm>(
    comm: &mut C,
    algo: ScatterAlgo,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    counts: &[usize],
    displs: Option<&[usize]>,
    root: usize,
) -> Result<Option<ScheduleReport>> {
    let p = comm.size();
    let key = PlanKey::Scatter {
        algo,
        p,
        rank: comm.rank(),
        counts: counts.to_vec(),
        displs: displs.map(<[usize]>::to_vec),
        root,
        has_recvbuf: recvbuf.is_some(),
    };
    let bind = Bindings {
        send: sendbuf,
        recv: recvbuf,
    };
    check_call(comm, &key, &bind)?;
    if p == 1 {
        // The root's own block is the whole call.
        let off = displs.map_or(0, |d| d[0]);
        if let (Some(sb), Some(rb), true) = (sendbuf, recvbuf, counts[0] > 0) {
            comm.copy_local(sb, off, rb, 0, counts[0]).await?;
        }
        return Ok(None);
    }
    if counts.iter().all(|&c| c == 0) {
        return Ok(None);
    }
    let plan = PlanCache::global().plan(key);
    execute_polled(comm, &plan, &bind).await.map(Some)
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
