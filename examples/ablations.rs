//! Ablations of the design choices DESIGN.md §6 calls out, plus the
//! contention-aware Reduce extension (paper §IX future work): each group
//! runs the paper's design and its alternative on the simulator and
//! prints their latencies in virtual µs (deterministic, no wall clock).
//!
//! ```text
//! cargo run --release --example ablations
//! ```

use kacc::collectives::pt2pt::{self, Algo, Protocol};
use kacc::collectives::reduce::{reduce_polled, Dtype, ReduceAlgo, ReduceOp};
use kacc::collectives::{AllgatherAlgo, ScatterAlgo};
use kacc::comm::{RemoteToken, Tag};
use kacc::machine::polled::sm_barrier_polled;
use kacc::machine::PolledComm;
use kacc::model::ArchProfile;
use kacc_bench::measure::{allgather_ns, scatter_ns, timed_team_polled};
use kacc_bench::size_label;

/// Print one group: its label, then each variant's latency.
fn group(label: &str, rows: &[(String, f64)]) {
    println!("{label}");
    for (variant, ns) in rows {
        println!("  {variant:<26} {:>12.1} us", ns / 1e3);
    }
}

/// Scatter (root 0, `eta` bytes per rank) throttled by a full barrier
/// instead of chained notifies: the root exposes its buffer once and
/// sends its token to every reader, then the `k` readers of wave `w`
/// read their block between barrier `w` and barrier `w + 1`.
fn barrier_throttled_scatter_ns(arch: &ArchProfile, p: usize, eta: usize, k: usize) -> f64 {
    timed_team_polled(arch, p, async move |comm: &mut PolledComm| {
        let me = comm.rank();
        let rb = comm.alloc(eta);
        let token = if me == 0 {
            let sb = comm.alloc(p * eta);
            let tok = comm.expose(sb).await.expect("expose");
            for r in 1..p {
                comm.ctrl_send(r, Tag::user(1), &tok.to_bytes())
                    .await
                    .expect("send token");
            }
            comm.copy_local(sb, 0, rb, 0, eta).await.expect("own block");
            None
        } else {
            let raw = comm.ctrl_recv(0, Tag::user(1)).await.expect("token");
            Some(RemoteToken::from_bytes(&raw).expect("token bytes"))
        };
        for w in 0..(p - 1).div_ceil(k) {
            sm_barrier_polled(comm).await.expect("barrier");
            if let Some(tok) = token.filter(|_| (me - 1) / k == w) {
                comm.cma_read(tok, me * eta, rb, 0, eta)
                    .await
                    .expect("read");
            }
        }
        sm_barrier_polled(comm).await.expect("barrier");
    })
}

fn main() {
    let arch = ArchProfile::knl();
    let p = arch.default_procs;
    let eta = 1 << 20;

    // Point-to-point chained throttling (the paper's design) vs a
    // barrier between waves.
    group(
        "abl_throttle_sync/KNL-1M",
        &[
            (
                "chained-notifies".into(),
                scatter_ns(&arch, p, eta, ScatterAlgo::ThrottledRead { k: 8 }),
            ),
            (
                "barrier-per-wave".into(),
                barrier_throttled_scatter_ns(&arch, p, eta, 8),
            ),
        ],
    );

    // Socket-aware neighbor stride vs stride 5 on the two-socket node.
    let bdw = ArchProfile::broadwell();
    let ring = |j| {
        allgather_ns(
            &bdw,
            bdw.default_procs,
            256 << 10,
            AllgatherAlgo::RingNeighbor { j },
        )
    };
    group(
        "abl_ring_socket/Broadwell-256K",
        &[
            ("neighbor-1-intra-socket".into(), ring(1)),
            ("neighbor-5-inter-socket".into(), ring(5)),
        ],
    );

    // Pinning batch size in the simulated CMA path.
    let batches: Vec<(String, f64)> = [8usize, 64, 512]
        .into_iter()
        .map(|batch| {
            let mut a = arch.clone();
            a.pin_batch_pages = batch;
            let ns = scatter_ns(&a, p, eta, ScatterAlgo::ThrottledRead { k: 8 });
            (format!("batch-{batch}"), ns)
        })
        .collect();
    group("abl_pin_batch/KNL-scatter-1M", &batches);

    // Emergent mechanistic contention vs none (the bounce term zeroed).
    let mut flat = arch.clone();
    flat.k_bounce = 0.0;
    group(
        "abl_gamma_mode/KNL-parallel-read-1M",
        &[
            (
                "mechanistic-bounce".into(),
                scatter_ns(&arch, p, eta, ScatterAlgo::ParallelRead),
            ),
            (
                "no-bounce (gamma=c)".into(),
                scatter_ns(&flat, p, eta, ScatterAlgo::ParallelRead),
            ),
        ],
    );

    // Token pre-exchange (native collective) vs per-step RTS/CTS,
    // measured through allgather since every step pays it.
    let small = 64 << 10;
    let rts_cts = timed_team_polled(&arch, p, async move |comm: &mut PolledComm| {
        let sb = comm.alloc(small);
        let rb = comm.alloc(p * small);
        let proto = Protocol::RendezvousCma;
        pt2pt::run_polled(comm, Algo::Allgather, proto, Some(sb), Some(rb), small)
            .await
            .expect("allgather");
    });
    group(
        "abl_rtscts/KNL-allgather-64K",
        &[
            (
                "native-token-exchange".into(),
                allgather_ns(&arch, p, small, AllgatherAlgo::RingSourceRead),
            ),
            ("pt2pt-rts-cts".into(), rts_cts),
        ],
    );

    // Extension: sequential root-pull vs the k-nomial combining tree.
    let mut reduce = Vec::new();
    for eta in [64 << 10, 1 << 20] {
        for (label, algo) in [
            ("sequential-read", ReduceAlgo::SequentialRead),
            ("knomial-2", ReduceAlgo::KNomialTree { radix: 2 }),
            ("knomial-4", ReduceAlgo::KNomialTree { radix: 4 }),
            ("knomial-8", ReduceAlgo::KNomialTree { radix: 8 }),
        ] {
            let ns = timed_team_polled(&arch, p, async move |comm: &mut PolledComm| {
                let sb = comm.alloc(eta);
                let rb = (comm.rank() == 0).then(|| comm.alloc(eta));
                reduce_polled(comm, algo, sb, rb, eta, Dtype::U64, ReduceOp::Sum, 0)
                    .await
                    .expect("reduce");
            });
            reduce.push((format!("{label}/{}", size_label(eta)), ns));
        }
    }
    group("ext_reduce/KNL", &reduce);
}
