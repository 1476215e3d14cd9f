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
//! Two more entries extend the family: [`reduce_scatter_block_polled`]
//! folds pairwise, every step's reads on distinct source processes (the
//! pairwise Alltoall of §IV-C1 with a fold after each read), and
//! [`allreduce_polled`] either composes Reduce with a Bcast design or
//! runs Rabenseifner's reduce-scatter + ring allgather. Every entry
//! validates, compiles a plan ([`crate::schedule`]) and runs it through
//! the one executor ([`execute_polled`]); [`reduce`] drives
//! [`reduce_polled`] on a blocking [`Comm`].

use crate::bcast::{bcast_polled, BcastAlgo};
use crate::exec::{Bindings, ScheduleReport};
use crate::polled::execute_polled;
use crate::schedule::{compile_allreduce_rsa, compile_reduce_scatter_block, PlanCache, PlanKey};
use crate::{check_call, check_len};
use kacc_comm::{block_on, AsyncComm, Blocking, BufId, Comm, CommError, Result};

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
    let comm = &mut Blocking(comm);
    block_on(reduce_polled(
        comm, algo, sendbuf, recvbuf, count, dtype, op, root,
    ))
    .map(drop)
}

/// [`reduce`] on any [`AsyncComm`] endpoint: check the call on every
/// shape, fetch (or compile) the plan, execute it. `None` when the call
/// was satisfied without a schedule (single rank or zero count).
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
    let p = comm.size();
    let key = PlanKey::Reduce {
        algo,
        p,
        rank: comm.rank(),
        count,
        dtype,
        op,
        root,
    };
    let bind = Bindings {
        send: Some(sendbuf),
        recv: recvbuf,
    };
    check_call(comm, &key, &bind)?;
    if count == 0 {
        return Ok(None);
    }
    if p == 1 {
        let rb = recvbuf.expect("checked: the root binds recvbuf");
        comm.copy_local(sendbuf, 0, rb, 0, count).await?;
        return Ok(None);
    }
    let plan = PlanCache::global().plan(key);
    execute_polled(comm, &plan, &bind).await.map(Some)
}

/// Fail with the `Protocol` error every reduction uses unless `count`
/// is a whole number of `dtype` lanes.
pub(crate) fn check_lanes(count: usize, dtype: Dtype) -> Result<()> {
    if count.is_multiple_of(dtype.width()) {
        Ok(())
    } else {
        Err(CommError::Protocol(format!(
            "count {count} is not a multiple of the {dtype:?} width"
        )))
    }
}

/// MPI_Reduce_scatter_block: every rank contributes `p·count` bytes
/// (block j destined for rank j) and receives the lane-wise combination
/// of everyone's block `me` in `recvbuf`.
///
/// Pairwise rotation keeps every step's reads on distinct source
/// processes — the same contention-free structure as the pairwise
/// Alltoall (§IV-C1), with a fold after each read.
pub async fn reduce_scatter_block_polled<C: AsyncComm>(
    comm: &mut C,
    sendbuf: BufId,
    recvbuf: BufId,
    count: usize,
    dtype: Dtype,
    op: ReduceOp,
) -> Result<()> {
    let p = comm.size();
    check_lanes(count, dtype)?;
    check_len(comm, sendbuf, p * count)?;
    check_len(comm, recvbuf, count)?;
    if count == 0 {
        return Ok(());
    }
    if p == 1 {
        return comm.copy_local(sendbuf, 0, recvbuf, 0, count).await;
    }
    let plan = compile_reduce_scatter_block(p, comm.rank(), count, dtype, op);
    let bind = Bindings {
        send: Some(sendbuf),
        recv: Some(recvbuf),
    };
    execute_polled(comm, &plan, &bind).await.map(drop)
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
/// `count`-byte contributions in `recvbuf`. `count` must be a multiple
/// of the dtype width and both buffers must hold `count` bytes.
pub async fn allreduce_polled<C: AsyncComm>(
    comm: &mut C,
    algo: AllreduceAlgo,
    sendbuf: BufId,
    recvbuf: BufId,
    count: usize,
    dtype: Dtype,
    op: ReduceOp,
) -> Result<()> {
    check_lanes(count, dtype)?;
    check_len(comm, sendbuf, count)?;
    check_len(comm, recvbuf, count)?;
    match algo {
        AllreduceAlgo::ReduceBcast {
            reduce: ralgo,
            bcast: balgo,
        } => {
            reduce_polled(comm, ralgo, sendbuf, Some(recvbuf), count, dtype, op, 0).await?;
            bcast_polled(comm, balgo, recvbuf, count, 0).await?;
            Ok(())
        }
        AllreduceAlgo::ReduceScatterAllgather if comm.size() == 1 => {
            // One rank folds nothing: its contribution is the result,
            // moved without a charged copy (no virtual time passes).
            let mut own = vec![0u8; count];
            comm.read_local(sendbuf, 0, &mut own)?;
            comm.write_local(recvbuf, 0, &own)
        }
        AllreduceAlgo::ReduceScatterAllgather => {
            let plan = compile_allreduce_rsa(comm.size(), comm.rank(), count, dtype, op);
            let bind = Bindings {
                send: Some(sendbuf),
                recv: Some(recvbuf),
            };
            execute_polled(comm, &plan, &bind).await.map(drop)
        }
    }
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
