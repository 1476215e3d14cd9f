//! All-to-all personalized communication: MPI_Alltoall (§IV-C).
//!
//! The entry points are thin compile+execute wrappers over
//! [`crate::schedule::compile_alltoall`] (memoized in the global
//! [`PlanCache`]): [`alltoall_polled`] is the one implementation, async
//! over any [`AsyncComm`], and [`alltoall`]/[`alltoall_with_report`] run
//! it on a blocking [`Comm`]. `alltoall_legacy` keeps the original
//! direct implementation for the traffic-equivalence tests.

use crate::class;
use crate::exec::{Bindings, ScheduleReport};
use crate::polled::execute_polled;
use crate::schedule::{compile_alltoall, PlanCache, PlanKey};
use kacc_comm::{
    block_on, smcoll, AsyncComm, Blocking, BufId, Comm, CommError, RemoteToken, Result, Tag,
};

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

const TAG_ROUND: Tag = Tag::internal(class::ALLTOALL, 0);

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

/// Validation and degenerate-case handling shared by the compiled and
/// legacy paths. Returns `false` when nothing is left to do.
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

/// Original direct implementation, kept verbatim so tests can assert the
/// compiled schedules are traffic- and result-identical to it.
#[doc(hidden)]
pub fn alltoall_legacy<C: Comm + ?Sized>(
    comm: &mut C,
    algo: AlltoallAlgo,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
) -> Result<()> {
    let blocking = &mut Blocking(&mut *comm);
    if !block_on(prepare(blocking, sendbuf, recvbuf, count))? {
        return Ok(());
    }
    let (source, staged) = block_on(stage_in_place(blocking, sendbuf, recvbuf, count))?;
    let result = match algo {
        AlltoallAlgo::Pairwise => pairwise(comm, source, recvbuf, count),
        AlltoallAlgo::PairwiseWrite => pairwise_write(comm, source, recvbuf, count),
        AlltoallAlgo::Bruck => bruck(comm, source, recvbuf, count),
    };
    if let Some(tmp) = staged {
        comm.free(tmp)?;
    }
    result
}

fn pairwise<C: Comm + ?Sized>(
    comm: &mut C,
    sendbuf: BufId,
    recvbuf: BufId,
    count: usize,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    // Own block moves locally.
    comm.copy_local(sendbuf, me * count, recvbuf, me * count, count)?;
    let token = comm.expose(sendbuf)?;
    let tokens = smcoll::sm_allgather(comm, &token.to_bytes())?;
    for i in 1..p {
        // Peer choice guarantees distinct sources per step: XOR pairing
        // for power-of-two p, rotation otherwise (§IV-C1).
        let src = if p.is_power_of_two() {
            me ^ i
        } else {
            (me + p - i) % p
        };
        let tok = RemoteToken::from_bytes(&tokens[src])
            .ok_or(CommError::Protocol("bad alltoall token".into()))?;
        comm.cma_read(tok, me * count, recvbuf, src * count, count)?;
    }
    // Source buffers must stay valid until everyone has read from them.
    smcoll::sm_barrier(comm)?;
    Ok(())
}

/// Write-direction pairwise exchange: everyone exposes its receive
/// buffer; in step `i` each rank deposits its block for the peer
/// directly. Distinct targets per step keep the page locks
/// contention-free, mirroring the read variant.
fn pairwise_write<C: Comm + ?Sized>(
    comm: &mut C,
    sendbuf: BufId,
    recvbuf: BufId,
    count: usize,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    comm.copy_local(sendbuf, me * count, recvbuf, me * count, count)?;
    let token = comm.expose(recvbuf)?;
    let tokens = smcoll::sm_allgather(comm, &token.to_bytes())?;
    for i in 1..p {
        let dst = if p.is_power_of_two() {
            me ^ i
        } else {
            (me + i) % p
        };
        let tok = RemoteToken::from_bytes(&tokens[dst])
            .ok_or(CommError::Protocol("bad alltoall token".into()))?;
        comm.cma_write(tok, me * count, sendbuf, dst * count, count)?;
    }
    // Receive buffers must not be read by the caller until every writer
    // has deposited its block.
    smcoll::sm_barrier(comm)?;
    Ok(())
}

fn bruck<C: Comm + ?Sized>(
    comm: &mut C,
    sendbuf: BufId,
    recvbuf: BufId,
    count: usize,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();

    // Phase 1 — local rotation: temp[j] = send block (me + j) mod p.
    let temp = comm.alloc(p * count);
    for j in 0..p {
        let b = (me + j) % p;
        comm.copy_local(sendbuf, b * count, temp, j * count, count)?;
    }
    let token = comm.expose(temp)?;
    let tokens = smcoll::sm_allgather(comm, &token.to_bytes())?;
    let scratch = comm.alloc(p * count);

    // Phase 2 — log₂ p rounds: slots with bit k set travel +2^k ranks.
    // In the read formulation each rank pulls those slots from
    // rank − 2^k. Barriers isolate read-set from write-set per round.
    let mut round = 0u32;
    let mut dist = 1usize;
    while dist < p {
        let src = (me + p - dist) % p;
        let src_tok = RemoteToken::from_bytes(&tokens[src])
            .ok_or(CommError::Protocol("bad bruck token".into()))?;
        smcoll::sm_barrier(comm)?;
        for j in (0..p).filter(|j| j & dist != 0) {
            comm.cma_read(src_tok, j * count, scratch, j * count, count)?;
        }
        smcoll::sm_barrier(comm)?;
        for j in (0..p).filter(|j| j & dist != 0) {
            comm.copy_local(scratch, j * count, temp, j * count, count)?;
        }
        dist <<= 1;
        round += 1;
    }
    let _ = round;

    // Phase 3 — inverse rotation: block in temp[j] came from rank
    // (me − j) mod p and belongs at that receive slot.
    for j in 0..p {
        let slot = (me + p - j) % p;
        comm.copy_local(temp, j * count, recvbuf, slot * count, count)?;
    }
    smcoll::sm_barrier(comm)?;
    comm.free(scratch)?;
    comm.free(temp)?;
    Ok(())
}

// TAG_ROUND reserved for a notify-chained (barrier-free) Bruck variant.
#[allow(dead_code)]
const _UNUSED: Tag = TAG_ROUND;
