//! All-to-one personalized communication: MPI_Gather (§IV-B).
//!
//! The algorithms mirror the Scatter designs with the direction of the
//! kernel-assisted operations reversed: the contended resource is the
//! *root's* page-table lock, written to by many peers at once.
//!
//! The plans are Scatter's, from the same rooted builder, with the root
//! and leaf buffers swapped and the leaves writing instead of reading.
//! Like Scatter, the entry points check the call over its [`PlanKey`],
//! compile to a [`crate::schedule::Schedule`] (cached in the global
//! [`PlanCache`]) and replay it through the executor: [`gatherv_polled`]
//! is the one implementation, async over any [`AsyncComm`], and
//! [`gather`](fn@gather) runs it on a blocking [`Comm`].

use crate::check_call;
use crate::exec::{Bindings, ScheduleReport};
use crate::polled::execute_polled;
use crate::schedule::{PlanCache, PlanKey};
use kacc_comm::{block_on, AsyncComm, Blocking, BufId, Comm, Result};

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
    let counts = vec![count; comm.size()];
    let comm = &mut Blocking(comm);
    block_on(gatherv_polled(
        comm, algo, sendbuf, recvbuf, &counts, None, root,
    ))
    .map(drop)
}

/// MPI_Gatherv on any [`AsyncComm`] endpoint: rank `r` contributes
/// `counts[r]` bytes, landing at `displs[r]` in the root's receive
/// buffer (contiguous packing when `displs` is `None`). Every rank
/// passes identical `counts`/`displs`. Checks the call on every shape,
/// fetches (or compiles) the plan and executes it; `None` when the call
/// was satisfied without a schedule (single rank or all-zero counts).
pub async fn gatherv_polled<C: AsyncComm>(
    comm: &mut C,
    algo: GatherAlgo,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    counts: &[usize],
    displs: Option<&[usize]>,
    root: usize,
) -> Result<Option<ScheduleReport>> {
    let p = comm.size();
    let key = PlanKey::Gather {
        algo,
        p,
        rank: comm.rank(),
        counts: counts.to_vec(),
        displs: displs.map(<[usize]>::to_vec),
        root,
        has_sendbuf: sendbuf.is_some(),
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
            comm.copy_local(sb, 0, rb, off, counts[0]).await?;
        }
        return Ok(None);
    }
    if counts.iter().all(|&c| c == 0) {
        return Ok(None);
    }
    let plan = PlanCache::global().plan(key);
    execute_polled(comm, &plan, &bind).await.map(Some)
}
