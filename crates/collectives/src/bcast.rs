//! One-to-all non-personalized communication: MPI_Bcast (§V-B).
//!
//! The entry points check the call over its [`PlanKey`], compile to a
//! [`crate::schedule::Schedule`] (cached in the global [`PlanCache`])
//! and replay it through the executor: [`bcast_polled`] is the one
//! implementation, async over any [`AsyncComm`], and [`bcast`] runs it
//! on a blocking [`Comm`]. Direct read and direct write are Scatter
//! plans from the rooted builder in which every rank's block is the
//! whole buffer; k-nomial and scatter-allgather compile on their own.

use crate::check_call;
use crate::exec::{Bindings, ScheduleReport};
use crate::polled::execute_polled;
use crate::schedule::{PlanCache, PlanKey};
use kacc_comm::{block_on, AsyncComm, Blocking, BufId, Comm, Result};

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

/// [`bcast`] on any [`AsyncComm`] endpoint: check the call on every
/// shape, fetch (or compile) the plan, execute it. `None` when the call
/// was satisfied without a schedule (single rank or zero count).
pub async fn bcast_polled<C: AsyncComm>(
    comm: &mut C,
    algo: BcastAlgo,
    buf: BufId,
    count: usize,
    root: usize,
) -> Result<Option<ScheduleReport>> {
    let p = comm.size();
    let key = PlanKey::Bcast {
        algo,
        p,
        rank: comm.rank(),
        count,
        root,
    };
    let bind = Bindings {
        send: Some(buf),
        recv: None,
    };
    check_call(comm, &key, &bind)?;
    if p == 1 || count == 0 {
        return Ok(None);
    }
    let plan = PlanCache::global().plan(key);
    execute_polled(comm, &plan, &bind).await.map(Some)
}
