//! One-to-all non-personalized communication: MPI_Bcast (§V-B).
//!
//! The entry points compile to a [`crate::schedule::Schedule`] (cached
//! in the global [`PlanCache`]) and replay it through the executor:
//! [`bcast_polled`] is the one implementation, async over any
//! [`AsyncComm`], and [`bcast`] runs it on a blocking [`Comm`].

use crate::check_len;
use crate::exec::{Bindings, ScheduleReport};
use crate::polled::execute_polled;
use crate::schedule::{PlanCache, PlanKey};
use kacc_comm::{block_on, AsyncComm, Blocking, BufId, Comm, CommError, Result};

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

/// MPI_Bcast: the root's first `count` bytes of `buf` reach every rank's
/// `buf`. Every rank must pass the same `algo`, `count`, and `root`.
pub fn bcast<C: Comm + ?Sized>(
    comm: &mut C,
    algo: BcastAlgo,
    buf: BufId,
    count: usize,
    root: usize,
) -> Result<()> {
    block_on(bcast_polled(&mut Blocking(comm), algo, buf, count, root)).map(drop)
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
    if !validate(comm, buf, count, root)? {
        return Ok(None);
    }
    if let BcastAlgo::KNomial { radix } = algo {
        if radix < 2 {
            return Err(CommError::Protocol("k-nomial radix must be ≥ 2".into()));
        }
    }
    let plan = PlanCache::global().plan(PlanKey::Bcast {
        algo,
        p: comm.size(),
        rank: comm.rank(),
        count,
        root,
    });
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
    check_len(comm, buf, count)?;
    Ok(!(p == 1 || count == 0))
}
