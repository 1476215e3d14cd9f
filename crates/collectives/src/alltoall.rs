//! All-to-all personalized communication: MPI_Alltoall (§IV-C).
//!
//! The entry points are thin compile+execute wrappers over
//! [`crate::schedule::compile_alltoall`] (memoized in the global
//! [`PlanCache`]): [`alltoall_polled`] is the one implementation, async
//! over any [`AsyncComm`], and [`alltoall`]/[`alltoall_with_report`] run
//! it on a blocking [`Comm`].

use crate::exec::{Bindings, ScheduleReport};
use crate::polled::execute_polled;
use crate::schedule::{compile_alltoall, PlanCache, PlanKey};
use kacc_comm::{block_on, AsyncComm, Blocking, BufId, Comm, CommError, Result};

/// Alltoall algorithm selection (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlltoallAlgo {
    /// §IV-C1: pairwise exchange. p−1 steps; in step `i` each rank reads
    /// from a distinct source (`rank ⊕ i` for power-of-two p, `rank − i`
    /// otherwise), so the page-lock never contends.
    Pairwise,
    /// §IV-C1 write variant: step `i` *writes* the outgoing block into
    /// peer `rank ⊕ i` / `rank + i`'s receive buffer. The model treats
    /// read and write bandwidth identically (§II), so this mirrors
    /// [`AlltoallAlgo::Pairwise`]; it exists because the paper evaluates
    /// both directions throughout.
    PairwiseWrite,
    /// §IV-C2: Bruck's algorithm — ⌈log₂ p⌉ rounds at the price of extra
    /// local copies; competitive only for small messages.
    Bruck,
}

/// MPI_Alltoall: rank `i` sends its `count`-byte block `j` (from
/// `sendbuf[j·count..]`) to rank `j`, which stores it at
/// `recvbuf[i·count..]`. Both buffers hold `p·count` bytes.
///
/// `sendbuf = None` means `MPI_IN_PLACE`: `recvbuf` initially holds the
/// outgoing blocks and is overwritten with the incoming ones (staged
/// through a hidden temporary, as racing in-place reads would be
/// incorrect).
pub fn alltoall<C: Comm + ?Sized>(
    comm: &mut C,
    algo: AlltoallAlgo,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
) -> Result<()> {
    alltoall_with_report(comm, algo, sendbuf, recvbuf, count).map(|_| ())
}

/// [`alltoall`] returning the executor's per-step accounting. `None`
/// when the call was satisfied without a schedule (single rank or zero
/// count).
pub fn alltoall_with_report<C: Comm + ?Sized>(
    comm: &mut C,
    algo: AlltoallAlgo,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
) -> Result<Option<ScheduleReport>> {
    block_on(alltoall_polled(
        &mut Blocking(comm),
        algo,
        sendbuf,
        recvbuf,
        count,
    ))
}

/// [`alltoall`] on any [`AsyncComm`] endpoint: validate, stage
/// `MPI_IN_PLACE`, fetch (or compile) the plan, execute it. `None` when
/// the call was satisfied without a schedule (single rank or zero
/// count).
pub async fn alltoall_polled<C: AsyncComm>(
    comm: &mut C,
    algo: AlltoallAlgo,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
) -> Result<Option<ScheduleReport>> {
    if !prepare(comm, sendbuf, recvbuf, count).await? {
        return Ok(None);
    }
    let p = comm.size();
    let me = comm.rank();
    let (source, staged) = stage_in_place(comm, sendbuf, recvbuf, count).await?;
    let plan = PlanCache::global().get_or_compile(
        PlanKey::Alltoall {
            algo,
            p,
            rank: me,
            count,
        },
        || compile_alltoall(algo, p, me, count),
    );
    let result = execute_polled(
        comm,
        &plan,
        &Bindings {
            send: Some(source),
            recv: Some(recvbuf),
        },
    )
    .await;
    if let Some(tmp) = staged {
        comm.free(tmp)?;
    }
    result.map(Some)
}

/// Validation and degenerate-case handling. Returns `false` when nothing
/// is left to do.
async fn prepare<C: AsyncComm>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
) -> Result<bool> {
    let p = comm.size();
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
    if let Some(sb) = sendbuf {
        let scap = comm.buf_len(sb)?;
        if scap < need {
            return Err(CommError::OutOfRange {
                buf: sb.0,
                off: 0,
                len: need,
                cap: scap,
            });
        }
    }
    if count == 0 {
        return Ok(false);
    }
    if p == 1 {
        if let Some(sb) = sendbuf {
            comm.copy_local(sb, 0, recvbuf, 0, count).await?;
        }
        return Ok(false);
    }
    Ok(true)
}

/// MPI_IN_PLACE: stage the outgoing blocks so concurrent peers never
/// observe half-overwritten source data.
async fn stage_in_place<C: AsyncComm>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
) -> Result<(BufId, Option<BufId>)> {
    match sendbuf {
        Some(sb) => Ok((sb, None)),
        None => {
            let need = comm.size() * count;
            let tmp = comm.alloc(need);
            comm.copy_local(recvbuf, 0, tmp, 0, need).await?;
            Ok((tmp, Some(tmp)))
        }
    }
}
