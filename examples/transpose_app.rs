//! A miniature application kernel of the kind the paper's introduction
//! motivates: a distributed matrix transpose (the communication heart of
//! 2-D FFTs) built on MPI_Alltoall, followed by a residual check via
//! MPI_Allreduce — all intra-node, where the paper says applications
//! spend "a significant portion of their execution time".
//!
//! The transpose runs on the calibrated KNL simulator under three
//! Alltoall implementations (two-copy shared memory, point-to-point CMA,
//! native contention-aware CMA) and verifies the mathematics each time.
//!
//! ```text
//! cargo run --release --example transpose_app [ranks] [n]
//! ```

use kacc::collectives::reduce::{allreduce_polled, AllreduceAlgo, Dtype, ReduceAlgo, ReduceOp};
use kacc::collectives::{alltoall_polled, AlltoallAlgo, BcastAlgo, Tuner};
use kacc::machine::{run_polled_team, PolledComm};
use kacc::model::ArchProfile;
use kacc::mpi::{baseline, Library};

/// Element (i, j) of the global n×n matrix.
fn elem(i: usize, j: usize) -> f64 {
    (i * 31 + j * 7) as f64 * 0.25
}

fn main() {
    let mut args = std::env::args().skip(1);
    let p: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1024);
    if !n.is_multiple_of(p) {
        eprintln!("error: matrix side {n} must be a multiple of the rank count {p}");
        std::process::exit(2);
    }
    let rows = n / p; // row-block decomposition
    let arch = ArchProfile::knl();
    println!(
        "distributed {n}x{n} f64 transpose on simulated {} with {p} ranks \
         ({} KiB per rank per exchange)\n",
        arch.name,
        n * rows * 8 / 1024,
    );

    let variants: Vec<(&str, Option<AlltoallAlgo>, Option<Library>)> = vec![
        ("SHMEM (IntelMPI-like)", None, Some(Library::IntelMpi)),
        ("CMA pt2pt (MVAPICH2-like)", None, Some(Library::Mvapich2)),
        (
            "native CMA-coll (proposed)",
            Some(AlltoallAlgo::Pairwise),
            None,
        ),
    ];

    for (label, algo, lib) in variants {
        let (run, results) = run_polled_team(&arch, p, move |me| async move {
            let comm = &mut PolledComm::new(me);
            // My row block, packed so destination blocks are contiguous:
            // block d holds my rows restricted to columns [d·rows, ...).
            let block = rows * rows * 8;
            let sb = comm.alloc(p * block);
            for d in 0..p {
                let mut chunk = Vec::with_capacity(block);
                for r in 0..rows {
                    for c in 0..rows {
                        chunk.extend_from_slice(&elem(me * rows + r, d * rows + c).to_le_bytes());
                    }
                }
                comm.write_local(sb, d * block, &chunk).expect("pack");
            }
            let rb = comm.alloc(p * block);
            match (algo, lib) {
                (Some(a), _) => {
                    alltoall_polled(comm, a, Some(sb), rb, block)
                        .await
                        .expect("alltoall");
                }
                (_, Some(l)) => {
                    let tuner = Tuner::new(&ArchProfile::knl());
                    baseline::alltoall_async(comm, l, &tuner, Some(sb), rb, block)
                        .await
                        .expect("alltoall");
                }
                _ => unreachable!(),
            }

            // Verify: after the exchange + local block transpose, I hold
            // column block `me` of the original matrix.
            let mut max_err = 0.0f64;
            let mut buf = vec![0u8; block];
            for s in 0..p {
                comm.read_local(rb, s * block, &mut buf).expect("unpack");
                for r in 0..rows {
                    for c in 0..rows {
                        let got =
                            f64::from_le_bytes(buf[(r * rows + c) * 8..][..8].try_into().unwrap());
                        // Element (s·rows + r, me·rows + c) transposed.
                        let want = elem(s * rows + r, me * rows + c);
                        max_err = max_err.max((got - want).abs());
                    }
                }
            }

            // Agree on the global max error with the extension
            // Allreduce (Max over f64 lanes).
            let err_in = comm.alloc_with(&max_err.to_le_bytes()).expect("alloc");
            let err_out = comm.alloc(8);
            allreduce_polled(
                comm,
                AllreduceAlgo::ReduceBcast {
                    reduce: ReduceAlgo::KNomialTree { radix: 4 },
                    bcast: BcastAlgo::KNomial { radix: 4 },
                },
                err_in,
                err_out,
                8,
                Dtype::F64,
                ReduceOp::Max,
            )
            .await
            .expect("allreduce");
            let global = comm.read_all(err_out).expect("read");
            f64::from_le_bytes(global.try_into().unwrap())
        });
        let err = results[0];
        assert!(
            results.iter().all(|e| *e == err),
            "allreduce must agree everywhere"
        );
        assert_eq!(err, 0.0, "transpose must be exact");
        println!(
            "  {label:28} {:>10.1} us  (global max error {err})",
            run.end_ns as f64 / 1e3
        );
    }
    println!(
        "\nabove the ~16 KiB kernel-assist threshold the single-copy paths win,\n\
         and the native collective also skips per-message RTS/CTS; for tiny\n\
         blocks the libraries' eager path is the right tool (try n = 256).\n\
         see `repro fig9` and `repro fig15` for the full sweeps."
    );
}
