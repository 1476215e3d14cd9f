//! Quickstart: run a contention-aware Gather on a simulated KNL node and
//! compare it with what the baseline library personas would do.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use kacc::collectives::{gatherv_polled, GatherAlgo, Tuner};
use kacc::machine::{run_polled_team, PolledComm};
use kacc::model::ArchProfile;

fn main() {
    let arch = ArchProfile::knl();
    let p = arch.default_procs;
    let count = 1 << 20; // 1 MiB per rank
    let tuner = Tuner::new(&arch);
    let algo = tuner.gather(p, count);
    println!(
        "simulating MPI_Gather of {count} B x {p} ranks on {}",
        arch.name
    );
    println!("tuner selected: {algo:?}");

    // Every rank contributes a rank-stamped pattern; rank 0 collects.
    // Each rank's body is an async block driving its simulated endpoint.
    let (run, results) = run_polled_team(&arch, p, move |rank| async move {
        let comm = &mut PolledComm::new(rank);
        let mine = kacc::collectives::verify::contribution(rank, count);
        let sb = comm.alloc_with(&mine).expect("alloc");
        let rb = (rank == 0).then(|| comm.alloc(p * count));
        let counts = vec![count; p];
        gatherv_polled(comm, algo, Some(sb), rb, &counts, None, 0)
            .await
            .expect("gather");
        rb.map(|b| comm.read_all(b).expect("read"))
    });

    // Verify MPI semantics byte-for-byte.
    let expected = kacc::collectives::verify::gather_expected(p, count);
    match &results[0] {
        Some(got) if kacc::collectives::verify::diff(got, &expected).is_none() => {
            println!("data check: OK ({} bytes at the root)", expected.len());
        }
        Some(got) => {
            panic!(
                "data mismatch: {}",
                kacc::collectives::verify::diff(got, &expected).unwrap()
            )
        }
        None => unreachable!("rank 0 returns the buffer"),
    }
    println!("simulated latency: {:.1} us", run.end_ns as f64 / 1000.0);

    // How long would the naive algorithms have taken?
    for (label, algo) in [
        ("parallel writes (unthrottled)", GatherAlgo::ParallelWrite),
        ("sequential reads", GatherAlgo::SequentialRead),
    ] {
        let (alt, _) = run_polled_team(&arch, p, move |rank| async move {
            let comm = &mut PolledComm::new(rank);
            let sb = comm.alloc(count);
            let rb = (rank == 0).then(|| comm.alloc(p * count));
            let counts = vec![count; p];
            gatherv_polled(comm, algo, Some(sb), rb, &counts, None, 0)
                .await
                .expect("gather");
        });
        println!(
            "  vs {label:32} {:>9.1} us ({:.2}x slower)",
            alt.end_ns as f64 / 1000.0,
            alt.end_ns as f64 / run.end_ns as f64
        );
    }
}
