//! Extension bench (paper §IX future work): contention-aware Reduce —
//! sequential root-pull vs the k-nomial combining tree (simulated time).

use criterion::{criterion_group, criterion_main, Criterion};
use kacc_bench::measure::timed_team_polled;
use kacc_collectives::reduce::{reduce_polled, Dtype, ReduceAlgo, ReduceOp};
use kacc_machine::PolledComm;
use kacc_model::ArchProfile;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let arch = ArchProfile::knl();
    let p = arch.default_procs;
    let mut g = c.benchmark_group("ext_reduce/KNL");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(200));
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
            g.bench_function(format!("{label}/{}", kacc_bench::size_label(eta)), |b| {
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
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
