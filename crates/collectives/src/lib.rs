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
//!   intra-node phase uses the contention-aware algorithms (§VII-G).
//!
//! Every collective — the two-level ones and the reductions included —
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
    execute, execute_traced, execute_with_policy, Bindings, MembershipPolicy, RecoveryPolicy,
    RecoveryReport, ScheduleReport, StepStats,
};
pub use membership::{run_survivable_polled, MembershipReport, SurvivableOp, SurvivableOutcome};
pub use polled::{execute_polled, execute_polled_traced, execute_polled_with_policy};
pub use scatter::{scatter, scatter_polled, scatterv_polled, ScatterAlgo};
pub use schedule::{compile_agree, remap_for_members, PlanCache, PlanKey, Schedule, Step};
pub use tuner::Tuner;

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
}

/// Fail with `OutOfRange` unless `buf` holds at least `need` bytes.
pub(crate) fn check_len<C: kacc_comm::AsyncComm>(
    comm: &C,
    buf: kacc_comm::BufId,
    need: usize,
) -> kacc_comm::Result<()> {
    let cap = comm.buf_len(buf)?;
    if cap < need {
        return Err(kacc_comm::CommError::OutOfRange {
            buf: buf.0,
            off: 0,
            len: need,
            cap,
        });
    }
    Ok(())
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
