//! All-to-all non-personalized communication: MPI_Allgather (§V-A).
//!
//! The entry points compile to a [`crate::schedule::Schedule`] (cached
//! in the global [`PlanCache`]) and replay it through the executor:
//! [`allgather_polled`] is the one implementation, async over any
//! [`AsyncComm`], and [`allgather`]/[`allgather_with_report`] run it on
//! a blocking [`Comm`]. `allgather_legacy` keeps the direct
//! implementation for equivalence tests.

use crate::class;
use crate::exec::{Bindings, ScheduleReport};
use crate::polled::execute_polled;
use crate::schedule::{compile_allgather, PlanCache, PlanKey};
use kacc_comm::{
    block_on, smcoll, AsyncComm, Blocking, BufId, Comm, CommError, CommExt, RemoteToken, Result,
    Tag,
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

const TAG_RING: Tag = Tag::internal(class::ALLGATHER, 0);
const TAG_RD: Tag = Tag::internal(class::ALLGATHER, 1);
const TAG_BRUCK: Tag = Tag::internal(class::ALLGATHER, 2);

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

/// Original direct implementation, kept verbatim so tests can assert the
/// compiled schedules are traffic- and result-identical to it.
#[doc(hidden)]
pub fn allgather_legacy<C: Comm + ?Sized>(
    comm: &mut C,
    algo: AllgatherAlgo,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
) -> Result<()> {
    let p = comm.size();
    if !block_on(validate(&mut Blocking(&mut *comm), sendbuf, recvbuf, count))? {
        return Ok(());
    }
    match algo {
        AllgatherAlgo::RingNeighbor { j } => {
            if gcd(j % p, p) != 1 {
                return Err(CommError::Protocol(format!(
                    "ring-neighbor stride {j} shares a factor with p={p}"
                )));
            }
            ring_neighbor(comm, sendbuf, recvbuf, count, j % p)
        }
        AllgatherAlgo::RingSourceRead => ring_source(comm, sendbuf, recvbuf, count, false),
        AllgatherAlgo::RingSourceWrite => ring_source(comm, sendbuf, recvbuf, count, true),
        AllgatherAlgo::RecursiveDoubling => recursive_doubling(comm, sendbuf, recvbuf, count),
        AllgatherAlgo::Bruck => bruck(comm, sendbuf, recvbuf, count),
    }
}

/// Ring-neighbor allgather over arbitrary per-rank `(offset, len)`
/// ranges of a common buffer layout: after completion every rank's
/// buffer holds every rank's range. Used by variable-count collectives
/// (Rabenseifner's chunk allgather, allgatherv).
pub(crate) fn allgather_ranges<C: Comm + ?Sized>(
    comm: &mut C,
    buf: BufId,
    range_of: &dyn Fn(usize) -> (usize, usize),
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    if p == 1 {
        return Ok(());
    }
    let token = comm.expose(buf)?;
    let tokens = smcoll::sm_allgather(comm, &token.to_bytes())?;
    let left = (me + p - 1) % p;
    let right = (me + 1) % p;
    let left_tok = RemoteToken::from_bytes(&tokens[left])
        .ok_or(CommError::Protocol("bad range-allgather token".into()))?;
    let tag = Tag::internal(class::ALLGATHER, 48);
    comm.notify(right, tag)?;
    for i in 1..p {
        let block = (me + p - i) % p;
        comm.wait_notify(left, tag)?;
        let (off, len) = range_of(block);
        if len > 0 {
            comm.cma_read(left_tok, off, buf, off, len)?;
        }
        if i < p - 1 {
            comm.notify(right, tag)?;
        }
    }
    smcoll::sm_barrier(comm)?;
    Ok(())
}

pub(crate) fn gcd(a: usize, b: usize) -> usize {
    if a == 0 {
        b
    } else {
        gcd(b % a, a)
    }
}

fn place_own<C: Comm + ?Sized>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
) -> Result<()> {
    if let Some(sb) = sendbuf {
        let me = comm.rank();
        comm.copy_local(sb, 0, recvbuf, me * count, count)?;
    }
    Ok(())
}

/// Generalized ring over neighbor stride `j`: reads pull from the
/// neighbor's *receive* buffer, so each step must wait until the
/// neighbor has committed the block being forwarded (§V-A1).
fn ring_neighbor<C: Comm + ?Sized>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
    j: usize,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    place_own(comm, sendbuf, recvbuf, count)?;
    let token = comm.expose(recvbuf)?;
    let tokens = smcoll::sm_allgather(comm, &token.to_bytes())?;
    let left = (me + p - j) % p;
    let right = (me + j) % p;
    let left_tok = RemoteToken::from_bytes(&tokens[left])
        .ok_or(CommError::Protocol("bad ring token".into()))?;

    // Own block is ready for our right neighbor immediately.
    comm.notify(right, TAG_RING)?;
    for i in 1..p {
        // Block (me − i·j) arrives from the left neighbor, which got it
        // at step i−1 (or owns it when i == 1).
        let block = (me + p - (i * j) % p) % p;
        comm.wait_notify(left, TAG_RING)?;
        comm.cma_read(left_tok, block * count, recvbuf, block * count, count)?;
        if i < p - 1 {
            comm.notify(right, TAG_RING)?;
        }
    }
    // The left neighbor may still need to read our last block; ensure
    // buffer validity before returning.
    smcoll::sm_barrier(comm)?;
    Ok(())
}

/// Direct-from-source ring: step `i` reads block `rank − i` from its
/// original owner (read variant) or writes own block to `rank + i`
/// (write variant). Source/destination buffers are valid from the start,
/// so only an initial token allgather and a final barrier are needed.
fn ring_source<C: Comm + ?Sized>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
    write: bool,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    place_own(comm, sendbuf, recvbuf, count)?;
    // Read variant exposes the contribution (sendbuf if separate, else
    // the recvbuf slot); write variant exposes the whole recvbuf.
    let (token, read_from_slot) = match (write, sendbuf) {
        (false, Some(sb)) => (comm.expose(sb)?, false),
        _ => (comm.expose(recvbuf)?, true),
    };
    let tokens = smcoll::sm_allgather(comm, &token.to_bytes())?;

    for i in 1..p {
        if write {
            let dst = (me + i) % p;
            let tok = RemoteToken::from_bytes(&tokens[dst])
                .ok_or(CommError::Protocol("bad ring-source token".into()))?;
            // Everyone's recvbuf is exposed in the write variant; deposit
            // our block at our slot.
            let src_off = me * count;
            comm.cma_write(tok, me * count, recvbuf, src_off, count)?;
        } else {
            let src = (me + p - i) % p;
            let tok = RemoteToken::from_bytes(&tokens[src])
                .ok_or(CommError::Protocol("bad ring-source token".into()))?;
            let remote_off = if read_from_slot { src * count } else { 0 };
            comm.cma_read(tok, remote_off, recvbuf, src * count, count)?;
        }
    }
    smcoll::sm_barrier(comm)?;
    Ok(())
}

/// Recursive doubling with explicit have-set tracking, which handles
/// non-power-of-two p by transferring each missing block individually —
/// reproducing the paper's observation that RD loses its advantage off
/// powers of two (§V-A3, Fig 10b).
fn recursive_doubling<C: Comm + ?Sized>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    place_own(comm, sendbuf, recvbuf, count)?;
    let token = comm.expose(recvbuf)?;
    let tokens = smcoll::sm_allgather(comm, &token.to_bytes())?;

    let mut have = vec![false; p];
    have[me] = true;
    let mut round = 0u32;
    let mut dist = 1usize;
    while dist < p {
        let partner = me ^ dist;
        let tag = Tag::internal(class::ALLGATHER, 16 + round);
        if partner < p {
            // Exchange have-sets, then pull the partner's blocks we lack.
            let my_have: Vec<u8> = have.iter().map(|&h| h as u8).collect();
            comm.ctrl_send(partner, tag, &my_have)?;
            let their_have = comm.ctrl_recv(partner, tag)?;
            if their_have.len() != p {
                return Err(CommError::Protocol("bad RD have-set".into()));
            }
            let tok = RemoteToken::from_bytes(&tokens[partner])
                .ok_or(CommError::Protocol("bad RD token".into()))?;
            for b in 0..p {
                if their_have[b] != 0 && !have[b] {
                    comm.cma_read(tok, b * count, recvbuf, b * count, count)?;
                    have[b] = true;
                }
            }
        }
        dist <<= 1;
        round += 1;
    }
    // Non-power-of-two: ranks whose hypercube was truncated may still
    // miss blocks; sweep them from the ring predecessor that must have
    // everything only if needed.
    if have.iter().any(|&h| !h) {
        // Find any rank guaranteed complete: rank 0 always pairs inside
        // the surviving hypercube prefix... fall back to direct source
        // reads, which are always valid.
        for b in 0..p {
            if !have[b] {
                let tok = RemoteToken::from_bytes(&tokens[b])
                    .ok_or(CommError::Protocol("bad RD token".into()))?;
                comm.cma_read(tok, b * count, recvbuf, b * count, count)?;
                have[b] = true;
            }
        }
    }
    let _ = TAG_RD;
    smcoll::sm_barrier(comm)?;
    Ok(())
}

/// Bruck dissemination: accumulate blocks at the front of a staging
/// buffer in me-relative order, then rotate into rank order (§V-A4).
fn bruck<C: Comm + ?Sized>(
    comm: &mut C,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    // Staging buffer: slot s holds block (me + s) mod p once filled.
    let temp = comm.alloc(p * count);
    match sendbuf {
        Some(sb) => comm.copy_local(sb, 0, temp, 0, count)?,
        None => comm.copy_local(recvbuf, me * count, temp, 0, count)?,
    }
    let token = comm.expose(temp)?;
    let tokens = smcoll::sm_allgather(comm, &token.to_bytes())?;

    let mut filled = 1usize;
    let mut round = 0u32;
    let mut dist = 1usize;
    while dist < p {
        let src = (me + dist) % p;
        let dst = (me + p - dist) % p;
        let tag = Tag::internal(class::ALLGATHER, 32 + round);
        let take = dist.min(p - filled);
        // The source must have committed its first `take` slots, which
        // happened by the end of its round−1; chain notifications.
        comm.notify(dst, tag)?;
        comm.wait_notify(src, tag)?;
        let tok = RemoteToken::from_bytes(&tokens[src])
            .ok_or(CommError::Protocol("bad bruck token".into()))?;
        comm.cma_read(tok, 0, temp, filled * count, take * count)?;
        filled += take;
        dist <<= 1;
        round += 1;
    }
    debug_assert_eq!(filled, p);

    // Final rotation: staging slot s = block (me + s) mod p.
    for s in 0..p {
        let b = (me + s) % p;
        comm.copy_local(temp, s * count, recvbuf, b * count, count)?;
    }
    let _ = TAG_BRUCK;
    smcoll::sm_barrier(comm)?;
    comm.free(temp)?;
    Ok(())
}
