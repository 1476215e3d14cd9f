//! Contention-aware MPI_Reduce / MPI_Allreduce — the paper's stated
//! future work (§IX: "we plan to extend these designs to other
//! collectives").
//!
//! Reduction adds a twist the One-to-all collectives don't have: the
//! root must *combine* contributions, so unthrottled parallel writes
//! into one buffer are not even semantically possible. The designs here
//! transplant the paper's contention-management ideas:
//!
//! * [`ReduceAlgo::SequentialRead`] — the root reads each contribution
//!   into a scratch buffer and folds it in; contention-free, serialized
//!   (the Reduce analogue of §IV-B2). Reduction never suffers the
//!   one-to-all page-lock pile-up because every read targets a
//!   *different* source process — the challenge is instead the
//!   serialized combine work at the root.
//! * [`ReduceAlgo::KNomialTree`] — radix-`k` combining tree: every
//!   parent pulls its children's partials and folds locally, so both
//!   the copies and the combine arithmetic are parallelized across the
//!   node — a k-nomial broadcast run in reverse.
//!
//! [`allreduce`] composes these with the Bcast designs. Every entry is
//! one `async` body over [`AsyncComm`] (the `*_polled` names) with a
//! blocking wrapper for a [`Comm`].

use crate::bcast::{bcast_polled, BcastAlgo};
use crate::exec::{Bindings, ScheduleReport};
use crate::polled::execute_polled;
use crate::schedule::{compile_reduce, PlanCache, PlanKey};
use kacc_comm::{
    block_on, smcoll, AsyncComm, Blocking, BufId, Comm, CommError, RemoteToken, Result,
};

/// Element type of a reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// Little-endian u32 lanes.
    U32,
    /// Little-endian u64 lanes.
    U64,
    /// Little-endian IEEE-754 f64 lanes.
    F64,
}

impl Dtype {
    /// Lane width in bytes.
    pub fn width(self) -> usize {
        match self {
            Dtype::U32 => 4,
            Dtype::U64 | Dtype::F64 => 8,
        }
    }
}

/// Combining operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Lane-wise wrapping sum.
    Sum,
    /// Lane-wise maximum.
    Max,
    /// Lane-wise minimum.
    Min,
}

/// Reduce algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceAlgo {
    /// Root reads and folds each contribution in rank order.
    SequentialRead,
    /// Radix-`k` combining tree (k ≥ 2): parents pull children's
    /// partial results and fold in parallel across the node.
    KNomialTree {
        /// Tree radix.
        radix: usize,
    },
}

/// Fold `src` into `acc` lane-wise.
pub fn combine(acc: &mut [u8], src: &[u8], dtype: Dtype, op: ReduceOp) {
    assert_eq!(acc.len(), src.len());
    let w = dtype.width();
    assert_eq!(acc.len() % w, 0, "buffer not a whole number of lanes");
    for (a, s) in acc.chunks_exact_mut(w).zip(src.chunks_exact(w)) {
        match dtype {
            Dtype::U32 => {
                let x = u32::from_le_bytes(a[..4].try_into().expect("slice length fixed"));
                let y = u32::from_le_bytes(s[..4].try_into().expect("slice length fixed"));
                let r = match op {
                    ReduceOp::Sum => x.wrapping_add(y),
                    ReduceOp::Max => x.max(y),
                    ReduceOp::Min => x.min(y),
                };
                a.copy_from_slice(&r.to_le_bytes());
            }
            Dtype::U64 => {
                let x = u64::from_le_bytes(a[..8].try_into().expect("slice length fixed"));
                let y = u64::from_le_bytes(s[..8].try_into().expect("slice length fixed"));
                let r = match op {
                    ReduceOp::Sum => x.wrapping_add(y),
                    ReduceOp::Max => x.max(y),
                    ReduceOp::Min => x.min(y),
                };
                a.copy_from_slice(&r.to_le_bytes());
            }
            Dtype::F64 => {
                let x = f64::from_le_bytes(a[..8].try_into().expect("slice length fixed"));
                let y = f64::from_le_bytes(s[..8].try_into().expect("slice length fixed"));
                let r = match op {
                    ReduceOp::Sum => x + y,
                    ReduceOp::Max => x.max(y),
                    ReduceOp::Min => x.min(y),
                };
                a.copy_from_slice(&r.to_le_bytes());
            }
        }
    }
}

/// MPI_Reduce: lane-wise combination of every rank's `count`-byte
/// `sendbuf` lands in the root's `recvbuf`. `count` must be a multiple
/// of the dtype width, and every rank passes the same `algo`, `dtype`,
/// `op`, `count`, `root`.
#[allow(clippy::too_many_arguments)]
pub fn reduce<C: Comm + ?Sized>(
    comm: &mut C,
    algo: ReduceAlgo,
    sendbuf: BufId,
    recvbuf: Option<BufId>,
    count: usize,
    dtype: Dtype,
    op: ReduceOp,
    root: usize,
) -> Result<()> {
    reduce_with_report(comm, algo, sendbuf, recvbuf, count, dtype, op, root).map(|_| ())
}

/// [`reduce`] returning the executor's per-step accounting. `None` when
/// the call was satisfied without a schedule (single rank or zero
/// count).
#[allow(clippy::too_many_arguments)]
pub fn reduce_with_report<C: Comm + ?Sized>(
    comm: &mut C,
    algo: ReduceAlgo,
    sendbuf: BufId,
    recvbuf: Option<BufId>,
    count: usize,
    dtype: Dtype,
    op: ReduceOp,
    root: usize,
) -> Result<Option<ScheduleReport>> {
    block_on(reduce_polled(
        &mut Blocking(comm),
        algo,
        sendbuf,
        recvbuf,
        count,
        dtype,
        op,
        root,
    ))
}

/// [`reduce`] on any [`AsyncComm`] endpoint: validate, fetch (or
/// compile) the plan, execute it. `None` when the call was satisfied
/// without a schedule (single rank or zero count).
#[allow(clippy::too_many_arguments)]
pub async fn reduce_polled<C: AsyncComm>(
    comm: &mut C,
    algo: ReduceAlgo,
    sendbuf: BufId,
    recvbuf: Option<BufId>,
    count: usize,
    dtype: Dtype,
    op: ReduceOp,
    root: usize,
) -> Result<Option<ScheduleReport>> {
    if !prepare(comm, algo, sendbuf, recvbuf, count, dtype, root).await? {
        return Ok(None);
    }
    let p = comm.size();
    let me = comm.rank();
    let plan = PlanCache::global().get_or_compile(
        PlanKey::Reduce {
            algo,
            p,
            rank: me,
            count,
            dtype,
            op,
            root,
        },
        || compile_reduce(algo, p, me, count, dtype, op, root),
    );
    execute_polled(
        comm,
        &plan,
        &Bindings {
            send: Some(sendbuf),
            recv: recvbuf,
        },
    )
    .await
    .map(Some)
}

/// Validation and degenerate-case handling. Returns `false` when nothing
/// is left to do.
async fn prepare<C: AsyncComm>(
    comm: &mut C,
    algo: ReduceAlgo,
    sendbuf: BufId,
    recvbuf: Option<BufId>,
    count: usize,
    dtype: Dtype,
    root: usize,
) -> Result<bool> {
    let p = comm.size();
    let me = comm.rank();
    if root >= p {
        return Err(CommError::BadRank(root));
    }
    if !count.is_multiple_of(dtype.width()) {
        return Err(CommError::Protocol(format!(
            "count {count} is not a multiple of the {dtype:?} width"
        )));
    }
    if me == root && recvbuf.is_none() {
        return Err(CommError::Protocol("root reduce needs recvbuf".into()));
    }
    if let ReduceAlgo::KNomialTree { radix } = algo {
        if radix < 2 {
            return Err(CommError::Protocol("tree radix must be ≥ 2".into()));
        }
    }
    if count == 0 {
        return Ok(false);
    }
    if p == 1 {
        let rb = recvbuf.expect("validated: root binds recvbuf");
        comm.copy_local(sendbuf, 0, rb, 0, count).await?;
        return Ok(false);
    }
    Ok(true)
}

/// MPI_Reduce_scatter_block: every rank contributes `p·count` bytes
/// (block j destined for rank j) and receives the lane-wise combination
/// of everyone's block `me` in `recvbuf`.
///
/// Pairwise rotation keeps every step's reads on distinct source
/// processes — the same contention-free structure as the pairwise
/// Alltoall (§IV-C1), with a fold after each read.
pub fn reduce_scatter_block<C: Comm + ?Sized>(
    comm: &mut C,
    sendbuf: BufId,
    recvbuf: BufId,
    count: usize,
    dtype: Dtype,
    op: ReduceOp,
) -> Result<()> {
    block_on(reduce_scatter_block_polled(
        &mut Blocking(comm),
        sendbuf,
        recvbuf,
        count,
        dtype,
        op,
    ))
}

/// [`reduce_scatter_block`] on any [`AsyncComm`] endpoint.
pub async fn reduce_scatter_block_polled<C: AsyncComm>(
    comm: &mut C,
    sendbuf: BufId,
    recvbuf: BufId,
    count: usize,
    dtype: Dtype,
    op: ReduceOp,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    if !count.is_multiple_of(dtype.width()) {
        return Err(CommError::Protocol(format!(
            "count {count} is not a multiple of the {dtype:?} width"
        )));
    }
    let need = p * count;
    let cap = comm.buf_len(sendbuf)?;
    if cap < need {
        return Err(CommError::OutOfRange {
            buf: sendbuf.0,
            off: 0,
            len: need,
            cap,
        });
    }
    if count == 0 {
        return Ok(());
    }
    comm.copy_local(sendbuf, me * count, recvbuf, 0, count)
        .await?;
    if p == 1 {
        return Ok(());
    }
    let token = comm.expose(sendbuf).await?;
    let tokens = smcoll::sm_allgather(comm, &token.to_bytes()).await?;
    let scratch = comm.alloc(count);
    let mut acc = vec![0u8; count];
    comm.read_local(recvbuf, 0, &mut acc)?;
    for i in 1..p {
        let tok = RemoteToken::from_bytes(&tokens[pairwise_source(me, p, i)])
            .ok_or(CommError::Protocol("bad reduce-scatter token".into()))?;
        comm.cma_read(tok, me * count, scratch, 0, count).await?;
        fold_scratch(comm, scratch, &mut acc, dtype, op).await?;
    }
    comm.write_local(recvbuf, 0, &acc)?;
    smcoll::sm_barrier(comm).await?;
    comm.free(scratch)?;
    Ok(())
}

/// The peer a pairwise rotation reads from in step `i` (1..p): XOR
/// partners on power-of-two teams, a rotation otherwise — either way
/// every step's sources are distinct.
fn pairwise_source(me: usize, p: usize, i: usize) -> usize {
    if p.is_power_of_two() {
        me ^ i
    } else {
        (me + p - i) % p
    }
}

/// Charge the fold pass over `scratch` like a local copy (one read and
/// one write stream), then combine its bytes into `acc`.
async fn fold_scratch<C: AsyncComm>(
    comm: &mut C,
    scratch: BufId,
    acc: &mut [u8],
    dtype: Dtype,
    op: ReduceOp,
) -> Result<()> {
    let len = acc.len();
    comm.copy_local(scratch, 0, scratch, 0, len).await?;
    let mut s = vec![0u8; len];
    comm.read_local(scratch, 0, &mut s)?;
    combine(acc, &s, dtype, op);
    Ok(())
}

/// Allreduce algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllreduceAlgo {
    /// Reduce to rank 0 then broadcast (both phases contention-aware).
    ReduceBcast {
        /// Reduce phase algorithm.
        reduce: ReduceAlgo,
        /// Broadcast phase algorithm.
        bcast: BcastAlgo,
    },
    /// Rabenseifner-style: reduce-scatter the message into per-rank
    /// chunks (each rank folds its own chunk), then ring-allgather the
    /// reduced chunks. Moves ~2η per rank regardless of p — the
    /// large-message winner.
    ReduceScatterAllgather,
}

/// MPI_Allreduce: every rank ends with the lane-wise combination of all
/// contributions in `recvbuf`.
#[allow(clippy::too_many_arguments)]
pub fn allreduce<C: Comm + ?Sized>(
    comm: &mut C,
    algo: AllreduceAlgo,
    sendbuf: BufId,
    recvbuf: BufId,
    count: usize,
    dtype: Dtype,
    op: ReduceOp,
) -> Result<()> {
    block_on(allreduce_polled(
        &mut Blocking(comm),
        algo,
        sendbuf,
        recvbuf,
        count,
        dtype,
        op,
    ))
}

/// [`allreduce`] on any [`AsyncComm`] endpoint.
pub async fn allreduce_polled<C: AsyncComm>(
    comm: &mut C,
    algo: AllreduceAlgo,
    sendbuf: BufId,
    recvbuf: BufId,
    count: usize,
    dtype: Dtype,
    op: ReduceOp,
) -> Result<()> {
    match algo {
        AllreduceAlgo::ReduceBcast {
            reduce: ralgo,
            bcast: balgo,
        } => {
            reduce_polled(comm, ralgo, sendbuf, Some(recvbuf), count, dtype, op, 0).await?;
            bcast_polled(comm, balgo, recvbuf, count, 0).await?;
            Ok(())
        }
        AllreduceAlgo::ReduceScatterAllgather => {
            rabenseifner(comm, sendbuf, recvbuf, count, dtype, op).await
        }
    }
}

/// Rabenseifner-style allreduce over lane-aligned chunks. Chunk `v`
/// (rank v's responsibility) is folded by rank v from every peer's
/// send buffer, then the reduced chunks ride a ring-neighbor allgather
/// into everyone's receive buffer.
async fn rabenseifner<C: AsyncComm>(
    comm: &mut C,
    sendbuf: BufId,
    recvbuf: BufId,
    count: usize,
    dtype: Dtype,
    op: ReduceOp,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    let w = dtype.width();
    // Lane-aligned chunk boundaries.
    let lanes = count / w;
    let chunk_lanes = lanes.div_ceil(p);
    let range = move |v: usize| {
        let lo = (v * chunk_lanes).min(lanes) * w;
        let hi = ((v + 1) * chunk_lanes).min(lanes) * w;
        (lo, hi - lo)
    };

    // Phase A — reduce-scatter my chunk: fold everyone's bytes at my
    // chunk range, reading each peer once (distinct sources per step).
    let token = comm.expose(sendbuf).await?;
    let tokens = smcoll::sm_allgather(comm, &token.to_bytes()).await?;
    let (my_off, my_len) = range(me);
    let scratch = comm.alloc(my_len.max(1));
    let mut acc = vec![0u8; my_len];
    comm.read_local(sendbuf, my_off, &mut acc)?;
    if my_len > 0 {
        for i in 1..p {
            let tok = RemoteToken::from_bytes(&tokens[pairwise_source(me, p, i)])
                .ok_or(CommError::Protocol("bad allreduce token".into()))?;
            comm.cma_read(tok, my_off, scratch, 0, my_len).await?;
            fold_scratch(comm, scratch, &mut acc, dtype, op).await?;
        }
    }
    comm.write_local(recvbuf, my_off, &acc)?;
    comm.free(scratch)?;
    // Everyone's reduced chunk must be committed before the allgather
    // reads begin.
    smcoll::sm_barrier(comm).await?;

    // Phase B — ring-neighbor allgather of the reduced chunks out of
    // the receive buffers (intra-socket-friendly forwarding).
    crate::allgather_ranges(comm, recvbuf, range).await
}

/// Expected lane-wise combination of `p` rank-stamped u64 contributions
/// (test/verification helper).
pub fn expected_u64(
    p: usize,
    lanes: usize,
    op: ReduceOp,
    value_of: impl Fn(usize, usize) -> u64,
) -> Vec<u64> {
    (0..lanes)
        .map(|lane| {
            let mut acc = value_of(0, lane);
            for r in 1..p {
                let v = value_of(r, lane);
                acc = match op {
                    ReduceOp::Sum => acc.wrapping_add(v),
                    ReduceOp::Max => acc.max(v),
                    ReduceOp::Min => acc.min(v),
                };
            }
            acc
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn combine_sums_and_extremes() {
        let mut a = 5u32.to_le_bytes().to_vec();
        a.extend_from_slice(&7u32.to_le_bytes());
        let mut b = 3u32.to_le_bytes().to_vec();
        b.extend_from_slice(&100u32.to_le_bytes());
        let mut acc = a.clone();
        combine(&mut acc, &b, Dtype::U32, ReduceOp::Sum);
        assert_eq!(&acc[..4], &8u32.to_le_bytes());
        let mut acc = a.clone();
        combine(&mut acc, &b, Dtype::U32, ReduceOp::Max);
        assert_eq!(&acc[4..], &100u32.to_le_bytes());
        let mut acc = a;
        combine(&mut acc, &b, Dtype::U32, ReduceOp::Min);
        assert_eq!(&acc[..4], &3u32.to_le_bytes());
    }

    #[test]
    fn combine_f64_sum() {
        let mut a = 1.5f64.to_le_bytes().to_vec();
        let b = 2.25f64.to_le_bytes().to_vec();
        combine(&mut a, &b, Dtype::F64, ReduceOp::Sum);
        assert_eq!(
            f64::from_le_bytes(a.try_into().expect("slice length fixed")),
            3.75
        );
    }

    #[test]
    fn combine_u32_wraps() {
        let mut a = u32::MAX.to_le_bytes().to_vec();
        let b = 2u32.to_le_bytes().to_vec();
        combine(&mut a, &b, Dtype::U32, ReduceOp::Sum);
        assert_eq!(
            u32::from_le_bytes(a.try_into().expect("slice length fixed")),
            1
        );
    }

    #[test]
    #[should_panic(expected = "whole number of lanes")]
    fn combine_rejects_ragged_buffers() {
        let mut a = vec![0u8; 6];
        let b = vec![0u8; 6];
        combine(&mut a, &b, Dtype::U64, ReduceOp::Sum);
    }
}
