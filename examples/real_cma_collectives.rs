//! Drive the collective algorithms over *real* Linux kernel-assisted
//! copies: fork a team of processes and move data with
//! `process_vm_readv`/`process_vm_writev`, timing each Broadcast
//! algorithm.
//!
//! ```text
//! cargo run --release --example real_cma_collectives [nprocs] [bytes]
//! ```

use kacc::collectives::{bcast, BcastAlgo};
use kacc::comm::{block_on, smcoll, Blocking, Comm, CommError, CommExt};
use kacc::native::{cma_available, run_forked};

fn main() {
    let mut args = std::env::args().skip(1);
    let p: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(6);
    let count: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1 << 20);

    if !cma_available() {
        eprintln!(
            "cross-process CMA is unavailable here (check \
             /proc/sys/kernel/yama/ptrace_scope); nothing to demonstrate"
        );
        return;
    }
    println!("broadcasting {count} B across {p} forked processes via real CMA\n");

    for algo in [
        BcastAlgo::DirectRead,
        BcastAlgo::DirectWrite,
        BcastAlgo::KNomial { radix: 3 },
        BcastAlgo::ScatterAllgather,
    ] {
        run_forked(p, |comm| {
            let me = comm.rank();
            let buf = if me == 0 {
                comm.alloc_with(&kacc::collectives::verify::contribution(0, count))
            } else {
                comm.alloc(count)
            };
            // Synchronize, run, and report rank 0's wall time.
            block_on(smcoll::sm_barrier(&mut Blocking(&mut *comm)))?;
            let t0 = comm.time_ns();
            bcast(comm, algo, buf, count, 0)?;
            let dt = comm.time_ns() - t0;
            // Every byte must have arrived.
            let got = comm.read_all(buf)?;
            let expected = kacc::collectives::verify::contribution(0, count);
            if let Some(d) = kacc::collectives::verify::diff(&got, &expected) {
                return Err(CommError::Protocol(format!("rank {me}: {d}")));
            }
            // Rank 0 prints after everyone verified.
            block_on(smcoll::sm_barrier(&mut Blocking(&mut *comm)))?;
            if me == 0 {
                println!(
                    "  {algo:?}: {:.1} us (verified on all ranks)",
                    dt as f64 / 1000.0
                );
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{algo:?} failed: {e}"));
    }
    println!("\nnote: wall times on a shared CI box are noisy; the simulator\n(`repro fig11`) is the calibrated instrument for algorithm shapes.");
}
