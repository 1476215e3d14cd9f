//! Ablation benches for the design choices called out in DESIGN.md §6
//! (simulated time unless noted).

use criterion::{criterion_group, criterion_main, Criterion};
use kacc_bench::measure::{allgather_ns, scatter_ns, timed_team_polled};
use kacc_collectives::pt2pt::{self, Algo, Protocol};
use kacc_collectives::{scatter_polled, AllgatherAlgo, ScatterAlgo};
use kacc_machine::polled::sm_barrier_polled;
use kacc_machine::PolledComm;
use kacc_model::ArchProfile;
use std::time::Duration;

fn custom(
    g: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>,
    label: &str,
    ns: f64,
) {
    g.bench_function(label, |b| {
        b.iter_custom(|iters| {
            // Report exact simulated time; the capped sleep
            // gives criterion's wall-clock warm-up a
            // heartbeat so iteration counts stay sane.
            let d = Duration::from_secs_f64(ns * 1e-9 * iters as f64);
            std::thread::sleep(d.min(Duration::from_millis(25)));
            d
        })
    });
}

fn bench(c: &mut Criterion) {
    let arch = ArchProfile::knl();
    let p = arch.default_procs;
    let eta = 1 << 20;

    // abl_throttle_sync: point-to-point chained throttling (the paper's
    // design) vs a naive barrier between waves.
    {
        let mut g = c.benchmark_group("abl_throttle_sync/KNL-1M");
        g.sample_size(10)
            .warm_up_time(Duration::from_millis(300))
            .measurement_time(Duration::from_millis(200));
        let chained = scatter_ns(&arch, p, eta, ScatterAlgo::ThrottledRead { k: 8 });
        custom(&mut g, "chained-notifies", chained);
        let barriered = timed_team_polled(&arch, p, async move |comm: &mut PolledComm| {
            // Same wave structure, but a full barrier after every wave.
            let me = comm.rank();
            let sb = (me == 0).then(|| comm.alloc(p * eta));
            let rb = comm.alloc(eta);
            let k = 8;
            let waves = (p - 1).div_ceil(k);
            for w in 0..waves {
                let lo = 1 + w * k;
                let hi = (lo + k).min(p);
                if me != 0 && me >= lo && me < hi {
                    // This wave's readers pull their slice.
                    let _ = (sb, rb);
                }
                sm_barrier_polled(comm).await.unwrap();
            }
            // The barrier-cost skeleton above isolates synchronization
            // overhead; add the actual data movement once.
            scatter_polled(comm, ScatterAlgo::ThrottledRead { k }, sb, Some(rb), eta, 0)
                .await
                .unwrap();
        });
        custom(&mut g, "barrier-per-wave", barriered);
        g.finish();
    }

    // abl_ring_socket: socket-aware neighbor stride vs stride 5 on the
    // two-socket Broadwell node.
    {
        let bdw = ArchProfile::broadwell();
        let bp = bdw.default_procs;
        let mut g = c.benchmark_group("abl_ring_socket/Broadwell-256K");
        g.sample_size(10)
            .warm_up_time(Duration::from_millis(300))
            .measurement_time(Duration::from_millis(200));
        let near = allgather_ns(&bdw, bp, 256 << 10, AllgatherAlgo::RingNeighbor { j: 1 });
        custom(&mut g, "neighbor-1-intra-socket", near);
        let far = allgather_ns(&bdw, bp, 256 << 10, AllgatherAlgo::RingNeighbor { j: 5 });
        custom(&mut g, "neighbor-5-inter-socket", far);
        g.finish();
    }

    // abl_pin_batch: pinning batch size in the simulated CMA path.
    {
        let mut g = c.benchmark_group("abl_pin_batch/KNL-scatter-1M");
        g.sample_size(10)
            .warm_up_time(Duration::from_millis(300))
            .measurement_time(Duration::from_millis(200));
        for batch in [8usize, 64, 512] {
            let mut a = arch.clone();
            a.pin_batch_pages = batch;
            let ns = scatter_ns(&a, p, eta, ScatterAlgo::ThrottledRead { k: 8 });
            custom(&mut g, &format!("batch-{batch}"), ns);
        }
        g.finish();
    }

    // abl_gamma_mode: emergent mechanistic contention vs no contention
    // (Unit gamma ablation: zero the bounce term).
    {
        let mut g = c.benchmark_group("abl_gamma_mode/KNL-parallel-read-1M");
        g.sample_size(10)
            .warm_up_time(Duration::from_millis(300))
            .measurement_time(Duration::from_millis(200));
        let ns = scatter_ns(&arch, p, eta, ScatterAlgo::ParallelRead);
        custom(&mut g, "mechanistic-bounce", ns);
        let mut flat = arch.clone();
        flat.k_bounce = 0.0;
        let ns = scatter_ns(&flat, p, eta, ScatterAlgo::ParallelRead);
        custom(&mut g, "no-bounce (gamma=c)", ns);
        g.finish();
    }

    // abl_rtscts: token pre-exchange (native collective) vs per-step
    // RTS/CTS — measured through allgather since every step pays it.
    {
        let mut g = c.benchmark_group("abl_rtscts/KNL-allgather-64K");
        g.sample_size(10)
            .warm_up_time(Duration::from_millis(300))
            .measurement_time(Duration::from_millis(200));
        let native = allgather_ns(&arch, p, 64 << 10, AllgatherAlgo::RingSourceRead);
        custom(&mut g, "native-token-exchange", native);
        let pt2pt = timed_team_polled(&arch, p, async move |comm: &mut PolledComm| {
            let sb = comm.alloc(64 << 10);
            let rb = comm.alloc(p * (64 << 10));
            let proto = Protocol::RendezvousCma;
            pt2pt::run_polled(comm, Algo::Allgather, proto, Some(sb), Some(rb), 64 << 10)
                .await
                .unwrap();
        });
        custom(&mut g, "pt2pt-rts-cts", pt2pt);
        g.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
