#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! Multi-node cluster experiments over the simulated fabric (§VII-G).
//!
//! The heavy lifting lives in `kacc-machine` (per-node memory systems and
//! page-lock servers joined by per-NIC fluid link servers) — this crate
//! supplies the cluster-level experiment surface:
//!
//! * [`cluster_gather`] / [`cluster_scatter`] — run a rooted collective
//!   across nodes either **single-level** (one flat exchange with the root
//!   over point-to-point transfers, the strategy libraries default to
//!   when intra-node gathers are slow) or **two-level** (contention-aware
//!   kernel-assisted intra-node phase + leader exchange, the paper's
//!   design), and report the latency;
//! * shape checks that reproduce Fig 17's observation: the two-level
//!   design wins, and its advantage *grows* with node count.
//!
//! The bodies are `async` and run on the polled engine, one task per
//! rank, on `run_polled_cluster`: the experiments report time and never
//! write their buffers, so their heaps and bulk messages stay lengths
//! and a point allocates and copies nothing however large `count` is.
//! The two-level strategies are `kacc_collectives::hierarchical`'s compiled plans, run
//! by the collectives' executor like every other collective, and so is
//! the single-level one, `kacc_collectives::pt2pt`'s flat exchange.
//! Payload correctness is the tests' business — they run the same bodies
//! with written buffers and verify every byte.

use kacc_collectives::hierarchical::{
    hier_gather_pipelined_polled, hier_gather_polled, hier_scatter_polled,
};
use kacc_collectives::pt2pt::{self, Algo, Protocol};
use kacc_comm::{BufId, Result};
use kacc_machine::{run_polled_cluster, PolledComm, TeamRun};
use kacc_model::{ArchProfile, FabricParams};

/// Strategy for a multi-node rooted collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiNodeStrategy {
    /// One flat (direct) pt2pt exchange with the global root, oblivious
    /// to node boundaries — the large-message default of production
    /// libraries when intra-node gathers are slow (§VII-G).
    SingleLevel,
    /// Two-level: contention-aware kernel-assisted intra-node phase with
    /// the given throttle factor, then leader-to-root bulk transfers.
    TwoLevel {
        /// Intra-node throttle factor.
        k: usize,
    },
    /// Two-level with wave pipelining: leaders ship each completed
    /// throttle wave immediately, overlapping intra- and inter-node
    /// transfers (§VII-G's suggested refinement).
    TwoLevelPipelined {
        /// Intra-node throttle factor (also the wave width).
        k: usize,
    },
}

/// The single-level strategy: one flat pt2pt exchange with rank 0, under
/// the protocol a CMA-capable library picks for `count` bytes.
async fn single_level(
    comm: &mut PolledComm,
    algo: Algo,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    count: usize,
) -> Result<()> {
    let proto = Protocol::for_len(count, 16 * 1024);
    pt2pt::run_polled(comm, algo, proto, sendbuf, recvbuf, count)
        .await
        .map(drop)
}

/// Gather `count` bytes per rank to global rank 0 across a cluster.
/// Returns the simulated latency in nanoseconds.
pub fn cluster_gather(
    arch: &ArchProfile,
    nodes: usize,
    ranks_per_node: usize,
    fabric: FabricParams,
    count: usize,
    strategy: MultiNodeStrategy,
) -> TeamRun {
    let body = move |rank| async move {
        gather_body(&mut PolledComm::new(rank), count, strategy)
            .await
            .expect("cluster gather body")
    };
    run_polled_cluster(arch, nodes, ranks_per_node, fabric, body).0
}

async fn gather_body(
    comm: &mut PolledComm,
    count: usize,
    strategy: MultiNodeStrategy,
) -> Result<()> {
    let me = comm.rank();
    let p = comm.size();
    let sb = comm.alloc(count);
    let rb: Option<BufId> = (me == 0).then(|| comm.alloc(p * count));
    match strategy {
        MultiNodeStrategy::SingleLevel => {
            single_level(comm, Algo::FlatGather { root: 0 }, Some(sb), rb, count).await
        }
        MultiNodeStrategy::TwoLevel { k } => {
            hier_gather_polled(comm, Some(sb), rb, count, 0, k).await
        }
        MultiNodeStrategy::TwoLevelPipelined { k } => {
            hier_gather_pipelined_polled(comm, Some(sb), rb, count, 0, k).await
        }
    }
}

/// Scatter `count` bytes per rank from global rank 0 across a cluster.
pub fn cluster_scatter(
    arch: &ArchProfile,
    nodes: usize,
    ranks_per_node: usize,
    fabric: FabricParams,
    count: usize,
    strategy: MultiNodeStrategy,
) -> TeamRun {
    let body = move |rank| async move {
        scatter_body(&mut PolledComm::new(rank), count, strategy)
            .await
            .expect("cluster scatter body")
    };
    run_polled_cluster(arch, nodes, ranks_per_node, fabric, body).0
}

async fn scatter_body(
    comm: &mut PolledComm,
    count: usize,
    strategy: MultiNodeStrategy,
) -> Result<()> {
    let me = comm.rank();
    let p = comm.size();
    let sb: Option<BufId> = (me == 0).then(|| comm.alloc(p * count));
    let rb = comm.alloc(count);
    match strategy {
        MultiNodeStrategy::SingleLevel => {
            single_level(comm, Algo::FlatScatter { root: 0 }, sb, Some(rb), count).await
        }
        MultiNodeStrategy::TwoLevel { k } | MultiNodeStrategy::TwoLevelPipelined { k } => {
            hier_scatter_polled(comm, sb, Some(rb), count, 0, k).await
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use kacc_collectives::verify::{
        contribution, diff, gather_expected, scatter_expected, scatter_sendbuf,
    };
    use kacc_comm::{RemoteToken, Tag};

    fn mini_arch() -> ArchProfile {
        let mut a = ArchProfile::knl();
        a.cores_per_socket = 16;
        a
    }

    #[test]
    fn cluster_placement_is_block_distributed() {
        let (_, nodes) = run_polled_cluster(
            &mini_arch(),
            3,
            4,
            FabricParams::ib_edr(),
            |rank| async move {
                let comm = PolledComm::new(rank);
                (0..comm.size())
                    .map(|r| comm.node_of(r))
                    .collect::<Vec<_>>()
            },
        );
        for per_rank in &nodes {
            assert_eq!(per_rank, &vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
        }
    }

    #[test]
    fn cma_across_nodes_is_rejected() {
        let (_, results) = run_polled_cluster(
            &mini_arch(),
            2,
            2,
            FabricParams::ib_edr(),
            |rank| async move {
                let comm = &mut PolledComm::new(rank);
                if rank == 0 {
                    let b = comm.alloc(64);
                    let tok = comm.expose(b).await.unwrap();
                    comm.ctrl_send(2, Tag::user(1), &tok.to_bytes())
                        .await
                        .unwrap();
                    comm.wait_notify(2, Tag::user(2)).await.unwrap();
                    true
                } else if rank == 2 {
                    let raw = comm.ctrl_recv(0, Tag::user(1)).await.unwrap();
                    let tok = RemoteToken::from_bytes(&raw).unwrap();
                    let dst = comm.alloc(64);
                    let err = comm.cma_read(tok, 0, dst, 0, 64).await;
                    comm.notify(0, Tag::user(2)).await.unwrap();
                    err.is_err()
                } else {
                    true
                }
            },
        );
        assert!(results.iter().all(|&ok| ok));
    }

    #[test]
    fn hier_gather_is_correct_across_nodes() {
        let count = 3000;
        let (run, results) = run_polled_cluster(
            &mini_arch(),
            2,
            4,
            FabricParams::ib_edr(),
            move |me| async move {
                let comm = &mut PolledComm::new(me);
                let p = comm.size();
                let sb = comm.alloc_with(&contribution(me, count)).unwrap();
                let rb = (me == 0).then(|| comm.alloc(p * count));
                hier_gather_polled(comm, Some(sb), rb, count, 0, 2)
                    .await
                    .unwrap();
                rb.map(|b| comm.read_all(b).unwrap()).unwrap_or_default()
            },
        );
        if let Some(d) = diff(&results[0], &gather_expected(8, count)) {
            panic!("hier gather: {d}");
        }
        assert_eq!(run.mail_pending, 0);
    }

    #[test]
    fn hier_scatter_is_correct_across_nodes() {
        let count = 2000;
        let p = 9;
        let (_, results) = run_polled_cluster(
            &mini_arch(),
            3,
            3,
            FabricParams::ib_edr(),
            move |me| async move {
                let comm = &mut PolledComm::new(me);
                let sb = (me == 0).then(|| comm.alloc_with(&scatter_sendbuf(p, count)).unwrap());
                let rb = comm.alloc(count);
                hier_scatter_polled(comm, sb, Some(rb), count, 0, 2)
                    .await
                    .unwrap();
                comm.read_all(rb).unwrap()
            },
        );
        for (r, got) in results.iter().enumerate() {
            if let Some(d) = diff(got, &scatter_expected(r, count)) {
                panic!("hier scatter rank {r}: {d}");
            }
        }
    }

    #[test]
    fn single_level_gather_is_correct_across_nodes() {
        let count = 1500;
        let (_, results) = run_polled_cluster(
            &mini_arch(),
            2,
            3,
            FabricParams::ib_edr(),
            move |me| async move {
                let comm = &mut PolledComm::new(me);
                let p = comm.size();
                let sb = comm.alloc_with(&contribution(me, count)).unwrap();
                let rb = (me == 0).then(|| comm.alloc(p * count));
                single_level(comm, Algo::FlatGather { root: 0 }, Some(sb), rb, count)
                    .await
                    .unwrap();
                rb.map(|b| comm.read_all(b).unwrap()).unwrap_or_default()
            },
        );
        if let Some(d) = diff(&results[0], &gather_expected(6, count)) {
            panic!("single-level gather: {d}");
        }
    }

    #[test]
    fn pipelined_hier_gather_is_correct_and_faster() {
        let count = 48 * 1024;
        let rpn = 8;
        // Correctness with data verification.
        let (_, results) = run_polled_cluster(
            &mini_arch(),
            2,
            rpn,
            FabricParams::ib_edr(),
            move |me| async move {
                let comm = &mut PolledComm::new(me);
                let p = comm.size();
                let sb = comm.alloc_with(&contribution(me, 512)).unwrap();
                let rb = (me == 0).then(|| comm.alloc(p * 512));
                hier_gather_pipelined_polled(comm, Some(sb), rb, 512, 0, 3)
                    .await
                    .unwrap();
                rb.map(|b| comm.read_all(b).unwrap()).unwrap_or_default()
            },
        );
        if let Some(d) = diff(&results[0], &gather_expected(2 * rpn, 512)) {
            panic!("pipelined hier gather: {d}");
        }
        // Overlap should not be slower than the barriered two-level.
        let arch = ArchProfile::knl();
        let plain = cluster_gather(
            &arch,
            4,
            16,
            FabricParams::omni_path(),
            count,
            MultiNodeStrategy::TwoLevel { k: 4 },
        )
        .end_ns;
        let pipe = cluster_gather(
            &arch,
            4,
            16,
            FabricParams::omni_path(),
            count,
            MultiNodeStrategy::TwoLevelPipelined { k: 4 },
        )
        .end_ns;
        assert!(
            pipe <= plain,
            "pipelining should overlap transfers: {pipe} vs {plain}"
        );
    }
}
