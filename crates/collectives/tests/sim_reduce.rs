//! Reduce / Allreduce correctness and shape over the simulated machine.
//!
//! The Allreduce and Reduce-scatter points also pin `(end_ns, events)`:
//! the values were captured while these bodies were still blocking code
//! on the thread kernel, so they hold the async port to the same
//! operations in the same order.

use kacc_collectives::reduce::{
    allreduce_polled, expected_u64, reduce_polled, reduce_scatter_block_polled, AllreduceAlgo,
    Dtype, ReduceAlgo, ReduceOp,
};
use kacc_collectives::BcastAlgo;
use kacc_machine::{run_polled_team, PolledComm, TeamRun};
use kacc_model::ArchProfile;

fn value_of(rank: usize, lane: usize) -> u64 {
    (rank as u64)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(lane as u64 * 31)
}

fn fill(rank: usize, lanes: usize) -> Vec<u8> {
    (0..lanes)
        .flat_map(|l| value_of(rank, l).to_le_bytes())
        .collect()
}

fn check_reduce(p: usize, lanes: usize, root: usize, op: ReduceOp, algo: ReduceAlgo) {
    let count = lanes * 8;
    let (run, results) = run_polled_team(&ArchProfile::broadwell(), p, move |rank| async move {
        let comm = &mut PolledComm::new(rank);
        let sb = comm.alloc_with(&fill(rank, lanes)).unwrap();
        let rb = (rank == root).then(|| comm.alloc(count));
        reduce_polled(comm, algo, sb, rb, count, Dtype::U64, op, root)
            .await
            .unwrap();
        rb.map(|b| comm.read_all(b).unwrap()).unwrap_or_default()
    });
    let got: Vec<u64> = results[root]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    assert_eq!(
        got,
        expected_u64(p, lanes, op, value_of),
        "{algo:?} {op:?} p={p} lanes={lanes} root={root}"
    );
    assert_eq!(run.mail_pending, 0);
}

#[test]
fn reduce_all_algorithms_ops_and_shapes() {
    for p in [2usize, 3, 7, 8, 13] {
        for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min] {
            for algo in [
                ReduceAlgo::SequentialRead,
                ReduceAlgo::KNomialTree { radix: 2 },
                ReduceAlgo::KNomialTree { radix: 4 },
            ] {
                check_reduce(p, 257, 0, op, algo);
            }
        }
    }
}

#[test]
fn reduce_nonzero_root_and_single_rank() {
    check_reduce(
        6,
        100,
        4,
        ReduceOp::Sum,
        ReduceAlgo::KNomialTree { radix: 3 },
    );
    check_reduce(1, 10, 0, ReduceOp::Max, ReduceAlgo::SequentialRead);
}

#[test]
fn reduce_rejects_misaligned_count() {
    let (_, results) = run_polled_team(&ArchProfile::broadwell(), 2, |rank| async move {
        let comm = &mut PolledComm::new(rank);
        let sb = comm.alloc(10); // not a multiple of 8
        let rb = comm.alloc(10);
        let (algo, dtype, op) = (ReduceAlgo::SequentialRead, Dtype::U64, ReduceOp::Sum);
        reduce_polled(comm, algo, sb, Some(rb), 10, dtype, op, 0)
            .await
            .is_err()
    });
    assert!(results.iter().all(|&e| e));
}

#[test]
fn reduce_f64_sums_match() {
    let p = 5;
    let lanes = 64;
    let (_, results) = run_polled_team(&ArchProfile::knl(), p, move |rank| async move {
        let comm = &mut PolledComm::new(rank);
        let data: Vec<u8> = (0..lanes)
            .flat_map(|l| ((rank * 10 + l) as f64 * 0.5).to_le_bytes())
            .collect();
        let sb = comm.alloc_with(&data).unwrap();
        let rb = (rank == 0).then(|| comm.alloc(lanes * 8));
        let (algo, op) = (ReduceAlgo::KNomialTree { radix: 2 }, ReduceOp::Sum);
        reduce_polled(comm, algo, sb, rb, lanes * 8, Dtype::F64, op, 0)
            .await
            .unwrap();
        rb.map(|b| comm.read_all(b).unwrap()).unwrap_or_default()
    });
    for (l, chunk) in results[0].chunks_exact(8).enumerate() {
        let got = f64::from_le_bytes(chunk.try_into().unwrap());
        let expect: f64 = (0..p).map(|r| (r * 10 + l) as f64 * 0.5).sum();
        assert!((got - expect).abs() < 1e-9, "lane {l}: {got} vs {expect}");
    }
}

/// A `count`-byte u64 sum-allreduce over `p` ranks of `arch`. With
/// `filled`, ranks contribute `fill` and return their result; otherwise
/// the buffers stay zero and nothing is read back (timing only).
fn allreduce_team(
    arch: &ArchProfile,
    p: usize,
    algo: AllreduceAlgo,
    count: usize,
    filled: bool,
) -> (TeamRun, Vec<Vec<u8>>) {
    run_polled_team(arch, p, move |rank| async move {
        let comm = &mut PolledComm::new(rank);
        let sb = if filled {
            comm.alloc_with(&fill(rank, count / 8)).unwrap()
        } else {
            comm.alloc(count)
        };
        let rb = comm.alloc(count);
        allreduce_polled(comm, algo, sb, rb, count, Dtype::U64, ReduceOp::Sum)
            .await
            .unwrap();
        if filled {
            comm.read_all(rb).unwrap()
        } else {
            Vec::new()
        }
    })
}

fn sum_bytes(p: usize, lanes: usize) -> Vec<u8> {
    expected_u64(p, lanes, ReduceOp::Sum, value_of)
        .into_iter()
        .flat_map(|v| v.to_le_bytes())
        .collect()
}

#[test]
fn allreduce_delivers_everywhere() {
    let (p, lanes) = (9, 123);
    let algo = AllreduceAlgo::ReduceBcast {
        reduce: ReduceAlgo::KNomialTree { radix: 3 },
        bcast: BcastAlgo::KNomial { radix: 3 },
    };
    let (run, results) = allreduce_team(&ArchProfile::broadwell(), p, algo, lanes * 8, true);
    let expect = sum_bytes(p, lanes);
    for (r, got) in results.iter().enumerate() {
        assert_eq!(got, &expect, "rank {r}");
    }
    assert_eq!((run.end_ns, run.events), (16811, 140));
}

#[test]
fn reduce_scatter_block_folds_correct_chunks() {
    let p = 7;
    let lanes = 40; // per destination block
    let count = lanes * 8;
    let (run, results) = run_polled_team(&ArchProfile::broadwell(), p, move |rank| async move {
        let comm = &mut PolledComm::new(rank);
        // Block j of rank `rank` carries value_of(rank, j·lanes + l).
        let data: Vec<u8> = (0..p * lanes)
            .flat_map(|i| value_of(rank, i).to_le_bytes())
            .collect();
        let sb = comm.alloc_with(&data).unwrap();
        let rb = comm.alloc(count);
        reduce_scatter_block_polled(comm, sb, rb, count, Dtype::U64, ReduceOp::Sum)
            .await
            .unwrap();
        comm.read_all(rb).unwrap()
    });
    for (me, got) in results.iter().enumerate() {
        let got: Vec<u64> = got
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let expect: Vec<u64> = (0..lanes)
            .map(|l| {
                (0..p)
                    .map(|r| value_of(r, me * lanes + l))
                    .fold(0u64, |a, v| a.wrapping_add(v))
            })
            .collect();
        assert_eq!(got, expect, "rank {me}");
    }
    assert_eq!((run.end_ns, run.events), (11626, 279));
}

#[test]
fn rabenseifner_allreduce_matches_reduce_bcast() {
    let (p, lanes) = (9, 200);
    let go = |algo| allreduce_team(&ArchProfile::knl(), p, algo, lanes * 8, true);
    let (a_run, a) = go(AllreduceAlgo::ReduceScatterAllgather);
    let (b_run, b) = go(AllreduceAlgo::ReduceBcast {
        reduce: ReduceAlgo::KNomialTree { radix: 2 },
        bcast: BcastAlgo::KNomial { radix: 2 },
    });
    let expect = sum_bytes(p, lanes);
    for r in 0..p {
        assert_eq!(a[r], expect, "rabenseifner rank {r}");
        assert_eq!(b[r], expect, "reduce+bcast rank {r}");
    }
    assert_eq!((a_run.end_ns, a_run.events), (42891, 966));
    assert_eq!((b_run.end_ns, b_run.events), (35723, 135));
}

#[test]
fn rabenseifner_wins_large_messages() {
    // The textbook result: reduce-scatter + allgather moves ~2η per
    // rank, beating tree reduce + bcast (~2·log-depth·η) at scale.
    let latency = |algo| allreduce_team(&ArchProfile::knl(), 32, algo, 1 << 20, false).0;
    let rab = latency(AllreduceAlgo::ReduceScatterAllgather);
    let tree = latency(AllreduceAlgo::ReduceBcast {
        reduce: ReduceAlgo::KNomialTree { radix: 4 },
        bcast: BcastAlgo::KNomial { radix: 4 },
    });
    assert!(
        rab.end_ns < tree.end_ns,
        "rabenseifner {} should beat reduce+bcast {}",
        rab.end_ns,
        tree.end_ns
    );
    assert_eq!((rab.end_ns, rab.events), (3994838, 10333));
    assert_eq!((tree.end_ns, tree.events), (11971035, 929));
}

#[test]
fn tree_reduce_beats_sequential_at_scale() {
    // The point of the extension: parallel combining wins once the
    // message is large enough that the root's serial fold dominates.
    let arch = ArchProfile::knl();
    let p = 32;
    let count = 512 * 1024;
    let latency = |algo: ReduceAlgo| {
        let (run, _) = run_polled_team(&arch, p, move |rank| async move {
            let comm = &mut PolledComm::new(rank);
            let sb = comm.alloc(count);
            let rb = (rank == 0).then(|| comm.alloc(count));
            reduce_polled(comm, algo, sb, rb, count, Dtype::U64, ReduceOp::Sum, 0)
                .await
                .unwrap();
        });
        run.end_ns
    };
    let seq = latency(ReduceAlgo::SequentialRead);
    let tree = latency(ReduceAlgo::KNomialTree { radix: 4 });
    assert!(tree < seq, "tree {tree} should beat sequential {seq}");
}
