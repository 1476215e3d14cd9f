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
//! [`allreduce`] composes these with the Bcast designs.

use crate::bcast::{bcast, BcastAlgo};
use crate::exec::{Bindings, ScheduleReport};
use crate::polled::execute_polled;
use crate::schedule::{compile_reduce, PlanCache, PlanKey};
use crate::{class, unvrank, vrank};
use kacc_comm::{
    block_on, AsyncComm, Blocking, BufId, Comm, CommError, CommExt, RemoteToken, Result, Tag,
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

const TAG_READY: Tag = Tag::internal(class::REDUCE, 0);
const TAG_DONE: Tag = Tag::internal(class::REDUCE, 1);

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

/// Fold a remote contribution (read into scratch) into a local buffer.
/// The local combine is charged as a memcpy-class operation via
/// `copy_local` on the scratch round-trip.
fn pull_and_combine<C: Comm + ?Sized>(
    comm: &mut C,
    token: RemoteToken,
    scratch: BufId,
    acc: BufId,
    count: usize,
    dtype: Dtype,
    op: ReduceOp,
) -> Result<()> {
    comm.cma_read(token, 0, scratch, 0, count)?;
    // Charge the arithmetic pass like a local copy (one read + one
    // write stream over `count` bytes).
    comm.copy_local(scratch, 0, scratch, 0, count)?;
    let mut a = vec![0u8; count];
    comm.read_local(acc, 0, &mut a)?;
    let mut s = vec![0u8; count];
    comm.read_local(scratch, 0, &mut s)?;
    combine(&mut a, &s, dtype, op);
    comm.write_local(acc, 0, &a)?;
    Ok(())
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

/// Validation and degenerate-case handling shared by the compiled and
/// legacy paths. Returns `false` when nothing is left to do.
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

/// Original direct implementation, kept verbatim so tests can assert the
/// compiled schedules are traffic- and result-identical to it.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn reduce_legacy<C: Comm + ?Sized>(
    comm: &mut C,
    algo: ReduceAlgo,
    sendbuf: BufId,
    recvbuf: Option<BufId>,
    count: usize,
    dtype: Dtype,
    op: ReduceOp,
    root: usize,
) -> Result<()> {
    if !block_on(prepare(
        &mut Blocking(&mut *comm),
        algo,
        sendbuf,
        recvbuf,
        count,
        dtype,
        root,
    ))? {
        return Ok(());
    }
    match algo {
        ReduceAlgo::SequentialRead => root_pull(comm, sendbuf, recvbuf, count, dtype, op, root),
        ReduceAlgo::KNomialTree { radix } => {
            knomial_tree(comm, sendbuf, recvbuf, count, dtype, op, root, radix)
        }
    }
}

/// Sequential root-pull: the root reads and folds contributions in
/// virtual-rank order.
#[allow(clippy::too_many_arguments)]
fn root_pull<C: Comm + ?Sized>(
    comm: &mut C,
    sendbuf: BufId,
    recvbuf: Option<BufId>,
    count: usize,
    dtype: Dtype,
    op: ReduceOp,
    root: usize,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    if me == root {
        let rb = recvbuf.expect("validated: root binds recvbuf");
        comm.copy_local(sendbuf, 0, rb, 0, count)?;
        let scratch = comm.alloc(count);
        // Contributions arrive in virtual-rank order; the fold is
        // commutative-associative per MPI's requirements on Op.
        for v in 1..p {
            let r = unvrank(v, root, p);
            let raw = comm.ctrl_recv(r, TAG_READY)?;
            let token = RemoteToken::from_bytes(&raw)
                .ok_or(CommError::Protocol("bad reduce token".into()))?;
            pull_and_combine(comm, token, scratch, rb, count, dtype, op)?;
            comm.notify(r, TAG_DONE)?;
        }
        comm.free(scratch)?;
    } else {
        let token = comm.expose(sendbuf)?;
        comm.ctrl_send(root, TAG_READY, &token.to_bytes())?;
        comm.wait_notify(root, TAG_DONE)?;
    }
    Ok(())
}

/// Radix-`k` combining tree: virtual rank v's parent is v − (v mod k^j)
/// where k^j is v's join stride; parents accumulate into a private
/// partial buffer, pulling each child exactly once.
#[allow(clippy::too_many_arguments)]
fn knomial_tree<C: Comm + ?Sized>(
    comm: &mut C,
    sendbuf: BufId,
    recvbuf: Option<BufId>,
    count: usize,
    dtype: Dtype,
    op: ReduceOp,
    root: usize,
    k: usize,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    let v = vrank(me, root, p);

    // Accumulate into a private partial (the root can use recvbuf).
    let acc = if v == 0 {
        recvbuf.expect("validated: root binds recvbuf")
    } else {
        comm.alloc(count)
    };
    comm.copy_local(sendbuf, 0, acc, 0, count)?;
    let scratch = comm.alloc(count);

    // This is the bcast k-nomial tree run in reverse. A rank whose join
    // stride (largest k-power ≤ v, or ∞ for the root) is `j` has
    // children `v + m·s` for every stride `s` a k-power with
    // first_pow_gt(v) ≤ s < p and m ∈ 1..k; each child's own join
    // stride is exactly `s`, so parent(c) = c mod s.
    let mut join_stride = 1usize;
    while join_stride * k <= v {
        join_stride *= k;
    }
    let mut s = 1usize;
    while s <= v {
        s *= k;
    }
    while s < p {
        for m in 1..k {
            let child = v + m * s;
            if child < p {
                let r = unvrank(child, root, p);
                let raw = comm.ctrl_recv(r, TAG_READY)?;
                let token = RemoteToken::from_bytes(&raw)
                    .ok_or(CommError::Protocol("bad reduce tree token".into()))?;
                pull_and_combine(comm, token, scratch, acc, count, dtype, op)?;
                comm.notify(r, TAG_DONE)?;
            }
        }
        s *= k;
    }

    if v != 0 {
        let parent = v % join_stride;
        let token = comm.expose(acc)?;
        comm.ctrl_send(unvrank(parent, root, p), TAG_READY, &token.to_bytes())?;
        comm.wait_notify(unvrank(parent, root, p), TAG_DONE)?;
        comm.free(acc)?;
    }
    comm.free(scratch)?;
    Ok(())
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
    comm.copy_local(sendbuf, me * count, recvbuf, 0, count)?;
    if p == 1 {
        return Ok(());
    }
    let token = comm.expose(sendbuf)?;
    let tokens = kacc_comm::smcoll::sm_allgather(comm, &token.to_bytes())?;
    let scratch = comm.alloc(count);
    let mut acc = vec![0u8; count];
    comm.read_local(recvbuf, 0, &mut acc)?;
    for i in 1..p {
        let src = if p.is_power_of_two() {
            me ^ i
        } else {
            (me + p - i) % p
        };
        let tok = RemoteToken::from_bytes(&tokens[src])
            .ok_or(CommError::Protocol("bad reduce-scatter token".into()))?;
        comm.cma_read(tok, me * count, scratch, 0, count)?;
        // Charge the fold pass and combine.
        comm.copy_local(scratch, 0, scratch, 0, count)?;
        let mut s = vec![0u8; count];
        comm.read_local(scratch, 0, &mut s)?;
        combine(&mut acc, &s, dtype, op);
    }
    comm.write_local(recvbuf, 0, &acc)?;
    kacc_comm::smcoll::sm_barrier(comm)?;
    comm.free(scratch)?;
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
    match algo {
        AllreduceAlgo::ReduceBcast {
            reduce: ralgo,
            bcast: balgo,
        } => {
            reduce(comm, ralgo, sendbuf, Some(recvbuf), count, dtype, op, 0)?;
            bcast(comm, balgo, recvbuf, count, 0)?;
            Ok(())
        }
        AllreduceAlgo::ReduceScatterAllgather => {
            rabenseifner(comm, sendbuf, recvbuf, count, dtype, op)
        }
    }
}

/// Rabenseifner-style allreduce over lane-aligned chunks. Chunk `v`
/// (rank v's responsibility) is folded by rank v from every peer's
/// send buffer, then the reduced chunks ride a ring-neighbor allgather
/// into everyone's receive buffer.
fn rabenseifner<C: Comm + ?Sized>(
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
    let range = |v: usize| {
        let lo = (v * chunk_lanes).min(lanes) * w;
        let hi = ((v + 1) * chunk_lanes).min(lanes) * w;
        (lo, hi - lo)
    };

    // Phase A — reduce-scatter my chunk: fold everyone's bytes at my
    // chunk range, reading each peer once (distinct sources per step).
    let token = comm.expose(sendbuf)?;
    let tokens = kacc_comm::smcoll::sm_allgather(comm, &token.to_bytes())?;
    let (my_off, my_len) = range(me);
    let scratch = comm.alloc(my_len.max(1));
    let mut acc = vec![0u8; my_len];
    comm.read_local(sendbuf, my_off, &mut acc)?;
    for i in 1..p {
        if my_len == 0 {
            break;
        }
        let src = if p.is_power_of_two() {
            me ^ i
        } else {
            (me + p - i) % p
        };
        let tok = RemoteToken::from_bytes(&tokens[src])
            .ok_or(CommError::Protocol("bad allreduce token".into()))?;
        comm.cma_read(tok, my_off, scratch, 0, my_len)?;
        comm.copy_local(scratch, 0, scratch, 0, my_len)?;
        let mut s = vec![0u8; my_len];
        comm.read_local(scratch, 0, &mut s)?;
        combine(&mut acc, &s, dtype, op);
    }
    comm.write_local(recvbuf, my_off, &acc)?;
    comm.free(scratch)?;
    // Everyone's reduced chunk must be committed before the allgather
    // reads begin.
    kacc_comm::smcoll::sm_barrier(comm)?;

    // Phase B — ring-neighbor allgather of the reduced chunks out of
    // the receive buffers (intra-socket-friendly forwarding).
    crate::allgather_ranges(comm, recvbuf, &|v| range(v))?;
    Ok(())
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
