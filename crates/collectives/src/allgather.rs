//! All-to-all non-personalized communication: MPI_Allgather (§V-A).
//!
//! The entry points compile to a [`crate::schedule::Schedule`] (cached
//! in the global [`PlanCache`]) and replay it through the executor:
//! [`allgather_polled`] is the one implementation, async over any
//! [`AsyncComm`], and [`allgather`] runs it on a blocking [`Comm`].

use crate::check_call;
use crate::exec::{Bindings, ScheduleReport};
use crate::polled::execute_polled;
use crate::schedule::{PlanCache, PlanKey};
use kacc_comm::{block_on, AsyncComm, Blocking, BufId, Comm, CommError, Result};

/// Allgather algorithm selection (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllgatherAlgo {
    /// §V-A1 generalized ring: in step `i` each rank reads block
    /// `(rank − i·j)` from neighbor `rank − j`, chained by notifications.
    /// Correct only when `gcd(j, p) = 1`; `j = 1` is the classic ring.
    /// On multi-socket nodes small `j` keeps most reads intra-socket.
    RingNeighbor {
        /// Neighbor stride.
        j: usize,
    },
    /// §V-A2: read every block directly from its original source
    /// (step `i` reads from `rank − i`). Always-valid source buffers ⇒
    /// no per-step synchronization, and contention-free absent skew.
    RingSourceRead,
    /// §V-A2 write variant: step `i` writes own block to `rank + i`.
    RingSourceWrite,
    /// §V-A3: recursive doubling (⌈log₂ p⌉ exchange rounds for
    /// power-of-two p; non-power-of-two pays extra block transfers).
    RecursiveDoubling,
    /// §V-A4: Bruck's dissemination with the final rotation.
    Bruck,
}

/// MPI_Allgather: every rank contributes `count` bytes (from `sendbuf`,
/// or already sitting at its slot of `recvbuf` under `MPI_IN_PLACE` =
/// `None`); every rank ends with all `p` blocks in rank order in its
/// `p·count`-byte `recvbuf`.
pub fn allgather<C: Comm + ?Sized>(
    comm: &mut C,
    algo: AllgatherAlgo,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
) -> Result<()> {
    block_on(allgather_polled(
        &mut Blocking(comm),
        algo,
        sendbuf,
        recvbuf,
        count,
    ))
    .map(drop)
}

/// [`allgather`] on any [`AsyncComm`] endpoint: check the call on every
/// shape, fetch (or compile) the plan, execute it. `None` when the call
/// was satisfied without a schedule (single rank or zero count).
pub async fn allgather_polled<C: AsyncComm>(
    comm: &mut C,
    algo: AllgatherAlgo,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
) -> Result<Option<ScheduleReport>> {
    let (p, me) = (comm.size(), comm.rank());
    let key = PlanKey::Allgather {
        algo: ring_stride(algo, p, || format!("p={p}"))?,
        p,
        rank: me,
        count,
        has_sendbuf: sendbuf.is_some(),
    };
    let bind = Bindings {
        send: sendbuf,
        recv: Some(recvbuf),
    };
    check_call(comm, &key, &bind)?;
    if count == 0 || p == 1 {
        if let (Some(sb), true) = (sendbuf, count > 0) {
            comm.copy_local(sb, 0, recvbuf, me * count, count).await?;
        }
        return Ok(None);
    }
    let plan = PlanCache::global().plan(key);
    execute_polled(comm, &plan, &bind).await.map(Some)
}

/// `algo` with its ring-neighbour stride reduced mod `p`, so equivalent
/// strides share a plan key. A stride sharing a factor with `p` is
/// refused here, where the caller's stride is still known; `team` names
/// the `p` ranks in the message.
pub(crate) fn ring_stride(
    algo: AllgatherAlgo,
    p: usize,
    team: impl FnOnce() -> String,
) -> Result<AllgatherAlgo> {
    match algo {
        AllgatherAlgo::RingNeighbor { j } if gcd(j % p, p) != 1 => Err(CommError::Protocol(
            format!("ring-neighbor stride {j} shares a factor with {}", team()),
        )),
        AllgatherAlgo::RingNeighbor { j } => Ok(AllgatherAlgo::RingNeighbor { j: j % p }),
        other => Ok(other),
    }
}

pub(crate) fn gcd(a: usize, b: usize) -> usize {
    if a == 0 {
        b
    } else {
        gcd(b % a, a)
    }
}
