//! All-to-all non-personalized communication: MPI_Allgather (§V-A).
//!
//! The entry points compile to a [`crate::schedule::Schedule`] (cached
//! in the global [`PlanCache`]) and replay it through the executor:
//! [`allgather_polled`] is the one implementation, async over any
//! [`AsyncComm`], and [`allgather`]/[`allgather_with_report`] run it on
//! a blocking [`Comm`].

use crate::class;
use crate::exec::{Bindings, ScheduleReport};
use crate::polled::execute_polled;
use crate::schedule::{compile_allgather, PlanCache, PlanKey};
use kacc_comm::{
    block_on, smcoll, AsyncComm, Blocking, BufId, Comm, CommError, RemoteToken, Result, Tag,
};

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
    allgather_with_report(comm, algo, sendbuf, recvbuf, count).map(|_| ())
}

/// [`allgather`] returning the executor's per-step accounting. `None`
/// when the call was satisfied without a schedule (single rank or zero
/// count).
pub fn allgather_with_report<C: Comm + ?Sized>(
    comm: &mut C,
    algo: AllgatherAlgo,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
) -> Result<Option<ScheduleReport>> {
    block_on(allgather_polled(
        &mut Blocking(comm),
        algo,
        sendbuf,
        recvbuf,
        count,
    ))
}

/// [`allgather`] on any [`AsyncComm`] endpoint: validate, fetch (or
/// compile) the plan, execute it. `None` when the call was satisfied
/// without a schedule (single rank or zero count).
pub async fn allgather_polled<C: AsyncComm>(
    comm: &mut C,
    algo: AllgatherAlgo,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
) -> Result<Option<ScheduleReport>> {
    let p = comm.size();
    let me = comm.rank();
    if !validate(comm, sendbuf, recvbuf, count).await? {
        return Ok(None);
    }
    // Normalize the ring stride mod p so equivalent strides share a plan.
    let algo = match algo {
        AllgatherAlgo::RingNeighbor { j } => {
            if gcd(j % p, p) != 1 {
                return Err(CommError::Protocol(format!(
                    "ring-neighbor stride {j} shares a factor with p={p}"
                )));
            }
            AllgatherAlgo::RingNeighbor { j: j % p }
        }
        other => other,
    };
    let plan = PlanCache::global().get_or_compile(
        PlanKey::Allgather {
            algo,
            p,
            rank: me,
            count,
            has_sendbuf: sendbuf.is_some(),
        },
        || compile_allgather(algo, p, me, count, sendbuf.is_some()),
    );
    execute_polled(
        comm,
        &plan,
        &Bindings {
            send: sendbuf,
            recv: Some(recvbuf),
        },
    )
    .await
    .map(Some)
}

/// Shared validation; `Ok(false)` means the degenerate case was handled.
async fn validate<C: AsyncComm>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
) -> Result<bool> {
    let p = comm.size();
    let me = comm.rank();
    let need = p * count;
    let cap = comm.buf_len(recvbuf)?;
    if cap < need {
        return Err(CommError::OutOfRange {
            buf: recvbuf.0,
            off: 0,
            len: need,
            cap,
        });
    }
    if count == 0 || p == 1 {
        if let (Some(sb), true) = (sendbuf, count > 0) {
            comm.copy_local(sb, 0, recvbuf, me * count, count).await?;
        }
        return Ok(false);
    }
    Ok(true)
}

/// Ring-neighbor allgather over arbitrary per-rank `(offset, len)`
/// ranges of a common buffer layout: after completion every rank's
/// buffer holds every rank's range. Used by variable-count collectives
/// (Rabenseifner's chunk allgather, allgatherv).
pub(crate) async fn allgather_ranges<C: AsyncComm>(
    comm: &mut C,
    buf: BufId,
    range_of: impl Fn(usize) -> (usize, usize),
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    if p == 1 {
        return Ok(());
    }
    let token = comm.expose(buf).await?;
    let tokens = smcoll::sm_allgather(comm, &token.to_bytes()).await?;
    let left = (me + p - 1) % p;
    let right = (me + 1) % p;
    let left_tok = RemoteToken::from_bytes(&tokens[left])
        .ok_or(CommError::Protocol("bad range-allgather token".into()))?;
    let tag = Tag::internal(class::ALLGATHER, 48);
    comm.notify(right, tag).await?;
    for i in 1..p {
        let block = (me + p - i) % p;
        comm.wait_notify(left, tag).await?;
        let (off, len) = range_of(block);
        if len > 0 {
            comm.cma_read(left_tok, off, buf, off, len).await?;
        }
        if i < p - 1 {
            comm.notify(right, tag).await?;
        }
    }
    smcoll::sm_barrier(comm).await?;
    Ok(())
}

pub(crate) fn gcd(a: usize, b: usize) -> usize {
    if a == 0 {
        b
    } else {
        gcd(b % a, a)
    }
}
