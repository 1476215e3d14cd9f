#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! Contention-aware kernel-assisted collective algorithms — the paper's
//! core contribution (§III–V).
//!
//! All algorithms are *native* CMA collectives: processes exchange buffer
//! tokens once over the small-message shared-memory plane and then move
//! bulk data with single-copy kernel-assisted reads/writes, avoiding the
//! per-message RTS/CTS control traffic a point-to-point design pays
//! (§III). Contention on the source process's page-table lock is managed
//! explicitly:
//!
//! * **Scatter** (§IV-A): [`scatter`](fn@scatter) with parallel reads, sequential
//!   writes, or *throttled reads* — at most `k` concurrent readers,
//!   chained by point-to-point unblock messages rather than barriers;
//! * **Gather** (§IV-B): [`gather`](fn@gather) with the mirrored write-based
//!   algorithms;
//! * **Alltoall** (§IV-C): [`alltoall`](fn@alltoall) with the contention-free pairwise
//!   exchange and Bruck's algorithm;
//! * **Allgather** (§V-A): [`allgather`](fn@allgather) with ring-neighbor-j,
//!   ring-source read/write, recursive doubling, and Bruck;
//! * **Broadcast** (§V-B): [`bcast`](fn@bcast) with direct read/write, k-nomial
//!   trees (bounded reader concurrency), and Van de Geijn
//!   scatter-allgather;
//! * **Tuning** ([`tuner::Tuner`]): model-driven algorithm selection per
//!   (architecture, process count, message size), the moral equivalent of
//!   the MVAPICH2 tuning framework the paper plugs into;
//! * **Hierarchical** ([`hierarchical`]): two-level designs whose
//!   intra-node phase uses the contention-aware algorithms (§VII-G);
//! * **Point-to-point stacks** ([`pt2pt`]): the eager, two-copy and
//!   rendezvous protocols and the classic trees, ring and pairwise
//!   exchange that the baseline MPI libraries build from them.
//!
//! Every collective — the two-level ones, the reductions and the
//! point-to-point stacks included —
//! is implemented once, as an `async` `*_polled` entry generic over
//! [`kacc_comm::AsyncComm`] that validates its arguments, compiles a plan
//! ([`schedule`]) and hands it to the one executor and recovery ladder
//! in [`polled`]. The polled machine simulator runs those entries
//! natively; the blocking entry points ([`scatter`](fn@scatter),
//! [`gather`](fn@gather), …) drive the same code on any
//! [`kacc_comm::Comm`] — the in-process thread transport, the real
//! `process_vm_readv` transport — through [`kacc_comm::Blocking`] and
//! [`kacc_comm::block_on`].

pub mod allgather;
pub mod alltoall;
pub mod bcast;
pub mod exec;
pub mod gather;
pub mod hierarchical;
pub mod membership;
pub mod polled;
pub mod pt2pt;
pub mod reduce;
pub mod scatter;
pub mod schedule;
pub mod tuner;
pub mod verify;

pub use allgather::{allgather, allgather_polled, AllgatherAlgo};
pub use alltoall::{alltoall, alltoall_polled, AlltoallAlgo};
pub use bcast::{bcast, bcast_polled, BcastAlgo};
pub use gather::{gather, gatherv_polled, GatherAlgo};
pub use reduce::{
    allreduce_polled, reduce, reduce_polled, reduce_scatter_block_polled, AllreduceAlgo, Dtype,
    ReduceAlgo, ReduceOp,
};

pub use exec::{
    execute, execute_traced, Bindings, MembershipPolicy, RecoveryPolicy, RecoveryReport,
    ScheduleReport, StepStats,
};
pub use membership::{run_survivable_polled, MembershipReport, SurvivableOp, SurvivableOutcome};
pub use polled::{execute_polled, execute_polled_with_policy};
pub use scatter::{scatter, scatter_polled, scatterv_polled, ScatterAlgo};
pub use schedule::{compile_agree, remap_for_members, PlanCache, PlanKey, Schedule, Step};
pub use tuner::Tuner;

use kacc_comm::{AsyncComm, BufId, CommError, Result};

/// Tag classes used by the collective protocols (disjoint from
/// `kacc_comm::smcoll::class`). Re-exported from the central
/// `kacc_comm::tagclass` registry, which owns the uniqueness audit.
pub(crate) mod class {
    pub const SCATTER: u32 = kacc_comm::tagclass::SCATTER;
    pub const GATHER: u32 = kacc_comm::tagclass::GATHER;
    pub const ALLTOALL: u32 = kacc_comm::tagclass::ALLTOALL;
    pub const ALLGATHER: u32 = kacc_comm::tagclass::ALLGATHER;
    pub const BCAST: u32 = kacc_comm::tagclass::BCAST;
    pub const HIER: u32 = kacc_comm::tagclass::HIER;
    pub const REDUCE: u32 = kacc_comm::tagclass::REDUCE;
    pub const MEMBERSHIP: u32 = kacc_comm::tagclass::MEMBERSHIP;
    pub const PT2PT: u32 = kacc_comm::tagclass::PT2PT;
    pub const PT2PT_RTS: u32 = kacc_comm::tagclass::PT2PT_RTS;
    pub const PT2PT_FIN: u32 = kacc_comm::tagclass::PT2PT_FIN;
    pub const PT2PT_CTS: u32 = kacc_comm::tagclass::PT2PT_CTS;
}

/// Fail with `OutOfRange` unless `buf` holds at least `need` bytes.
pub(crate) fn check_len<C: AsyncComm>(comm: &C, buf: BufId, need: usize) -> Result<()> {
    let cap = comm.buf_len(buf)?;
    if cap < need {
        return Err(CommError::OutOfRange {
            buf: buf.0,
            off: 0,
            len: need,
            cap,
        });
    }
    Ok(())
}

/// The one argument check of every keyed call, run on the key's own rank
/// before any short-cut, so a single-rank or zero-byte call rejects what
/// a real one would: the root in range, `counts`/`displs` of length p,
/// the algorithm parameter (k ≥ 1, radix ≥ 2), whole lanes, the buffers
/// this rank must bind, and that each bound buffer holds what its plan
/// touches. A ring stride coprime with p is checked as its key is built
/// ([`allgather::ring_stride`]), while the caller's stride is known. A
/// point-to-point persona's key checks only its root: the buffer the rank
/// must bind is checked as the key is built ([`pt2pt::run_polled`]), and
/// a short buffer fails at its step.
pub(crate) fn check_call<C: AsyncComm>(comm: &C, key: &PlanKey, bind: &Bindings) -> Result<()> {
    let proto = |msg: &str| CommError::Protocol(msg.into());
    let bound = |buf: Option<BufId>, msg: &str| buf.ok_or_else(|| proto(msg));
    let fits = |buf: Option<BufId>, need: usize| buf.map_or(Ok(()), |b| check_len(comm, b, need));
    let in_range = |root: usize, p: usize| {
        if root < p {
            Ok(())
        } else {
            Err(CommError::BadRank(root))
        }
    };
    // Scatter and Gather: the root binds the buffer holding every block,
    // a leaf with a block binds its own.
    let rooted = |p: usize,
                  rank: usize,
                  root: usize,
                  counts: &[usize],
                  displs: Option<&[usize]>,
                  (root_buf, root_msg): (Option<BufId>, &str),
                  (leaf_buf, leaf_msg): (Option<BufId>, &str)| {
        in_range(root, p)?;
        if counts.len() != p || displs.is_some_and(|d| d.len() != p) {
            return Err(proto("counts/displs length must equal size"));
        }
        if rank == root {
            let layout = scatter::build_layout(counts, displs);
            let span = layout.iter().map(|&(off, len)| off + len).max();
            check_len(comm, bound(root_buf, root_msg)?, span.unwrap_or(0))?;
            fits(leaf_buf, layout[root].1)
        } else if counts[rank] > 0 {
            check_len(comm, bound(leaf_buf, leaf_msg)?, counts[rank])
        } else {
            Ok(())
        }
    };
    let (send, recv) = (bind.send, bind.recv);
    match *key {
        PlanKey::Scatter {
            algo,
            p,
            rank,
            ref counts,
            ref displs,
            root,
            ..
        } => {
            if matches!(algo, ScatterAlgo::ThrottledRead { k: 0 }) {
                return Err(proto("throttle factor must be ≥ 1"));
            }
            let root_buf = (send, "root scatter needs sendbuf");
            let leaf_buf = (recv, "non-root scatter needs recvbuf");
            rooted(p, rank, root, counts, displs.as_deref(), root_buf, leaf_buf)
        }
        PlanKey::Gather {
            algo,
            p,
            rank,
            ref counts,
            ref displs,
            root,
            ..
        } => {
            if matches!(algo, GatherAlgo::ThrottledWrite { k: 0 }) {
                return Err(proto("throttle factor must be ≥ 1"));
            }
            let root_buf = (recv, "root gather needs recvbuf");
            let leaf_buf = (send, "non-root gather needs sendbuf");
            rooted(p, rank, root, counts, displs.as_deref(), root_buf, leaf_buf)
        }
        PlanKey::Bcast {
            algo,
            p,
            count,
            root,
            ..
        } => {
            in_range(root, p)?;
            if matches!(algo, BcastAlgo::KNomial { radix } if radix < 2) {
                return Err(proto("k-nomial radix must be ≥ 2"));
            }
            let buf = bound(send, "bcast binds its data buffer as send")?;
            check_len(comm, buf, count)
        }
        PlanKey::Allgather { p, count, .. } => {
            check_len(comm, bound(recv, "allgather needs recvbuf")?, p * count)?;
            fits(send, count)
        }
        PlanKey::Alltoall { p, count, .. } => {
            fits(recv, p * count)?;
            fits(send, p * count)
        }
        PlanKey::Reduce {
            algo,
            p,
            rank,
            count,
            dtype,
            root,
            ..
        } => {
            in_range(root, p)?;
            reduce::check_lanes(count, dtype)?;
            if matches!(algo, ReduceAlgo::KNomialTree { radix } if radix < 2) {
                return Err(proto("tree radix must be ≥ 2"));
            }
            check_len(comm, bound(send, "reduce needs sendbuf")?, count)?;
            if rank == root {
                check_len(comm, bound(recv, "root reduce needs recvbuf")?, count)?;
            }
            Ok(())
        }
        PlanKey::Pt2pt { algo, p, .. } => in_range(algo.root(), p),
        PlanKey::Member { ref inner, .. } => check_call(comm, inner, bind),
    }
}

/// Map a rank to its virtual rank with `root` at 0.
pub(crate) fn vrank(rank: usize, root: usize, p: usize) -> usize {
    (rank + p - root) % p
}

/// Inverse of [`vrank`].
pub(crate) fn unvrank(v: usize, root: usize, p: usize) -> usize {
    (v + root) % p
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn vrank_roundtrip() {
        for p in 1..12 {
            for root in 0..p {
                for r in 0..p {
                    assert_eq!(unvrank(vrank(r, root, p), root, p), r);
                    assert_eq!(vrank(root, root, p), 0);
                }
            }
        }
    }
}
