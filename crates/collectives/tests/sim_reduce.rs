//! Reduce / Allreduce correctness and shape over the simulated machine.
//!
//! The Allreduce and Reduce-scatter points also pin `(end_ns, events)`:
//! the first six values were captured while these bodies were still
//! blocking code on the thread kernel, the extension and zero-byte pins
//! while Rabenseifner and reduce-scatter-block were still hand-written
//! async bodies. They hold each port, the compiled plans last, to the
//! same operations in the same order. The event counts alone were
//! refreshed once since, when a control send stopped costing its sender
//! an event (end times and digests stood).

use kacc_collectives::reduce::{
    allreduce_polled, expected_u64, reduce_polled, reduce_scatter_block_polled, AllreduceAlgo,
    Dtype, ReduceAlgo, ReduceOp,
};
use kacc_collectives::BcastAlgo;
use kacc_comm::CommError;
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
    assert_eq!((run.end_ns, run.events), (16811, 113));
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
    assert_eq!((run.end_ns, run.events), (11626, 237));
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
    assert_eq!((a_run.end_ns, a_run.events), (42891, 754));
    assert_eq!((b_run.end_ns, b_run.events), (35723, 107));
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
    assert_eq!((rab.end_ns, rab.events), (3994838, 8701));
    assert_eq!((tree.end_ns, tree.events), (11971035, 820));
}

/// The two reduce-extension entries the pins below cover.
#[derive(Debug, Clone, Copy)]
enum Entry {
    Rabenseifner,
    ReduceScatterBlock,
}

/// `lanes` lanes of `rank`'s contribution: [`value_of`] as u64, or
/// spread around zero as f64.
fn contribution(rank: usize, lanes: usize, dtype: Dtype) -> Vec<u8> {
    match dtype {
        Dtype::F64 => (0..lanes)
            .flat_map(|l| ((value_of(rank, l) % 2001) as f64 * 0.37 - 370.0).to_le_bytes())
            .collect(),
        _ => fill(rank, lanes),
    }
}

/// FNV-1a over every rank's receive buffer, in rank order.
fn digest(results: &[Vec<u8>]) -> u64 {
    results
        .iter()
        .flatten()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// `(end_ns, events, digest)` of one run.
type Pin = (u64, u64, u64);

/// One Broadwell run of `entry` over `p` ranks: 37 lanes per result, so
/// Rabenseifner's chunks are ragged (and at p = 9 the last is empty).
fn extension_point(entry: Entry, p: usize, dtype: Dtype, op: ReduceOp) -> Pin {
    const LANES: usize = 37;
    let count = LANES * dtype.width();
    let (run, results) = run_polled_team(&ArchProfile::broadwell(), p, move |rank| async move {
        let comm = &mut PolledComm::new(rank);
        let rb = comm.alloc(count);
        match entry {
            Entry::Rabenseifner => {
                let sb = comm.alloc_with(&contribution(rank, LANES, dtype)).unwrap();
                let algo = AllreduceAlgo::ReduceScatterAllgather;
                allreduce_polled(comm, algo, sb, rb, count, dtype, op).await
            }
            Entry::ReduceScatterBlock => {
                let sb = comm
                    .alloc_with(&contribution(rank, p * LANES, dtype))
                    .unwrap();
                reduce_scatter_block_polled(comm, sb, rb, count, dtype, op).await
            }
        }
        .unwrap();
        comm.read_all(rb).unwrap()
    });
    (run.end_ns, run.events, digest(&results))
}

/// The [`Pin`] of every [`extension_point`], captured
/// while both entries were still hand-written bodies: the compiled plans
/// must issue the same transport calls in the same order and fold the
/// same bytes. End times and digests are never re-captured.
#[rustfmt::skip]
const EXTENSION_PINS: [(Entry, usize, Dtype, ReduceOp, Pin); 20] = [
    (Entry::Rabenseifner, 1, Dtype::U64, ReduceOp::Sum, (0, 1, 0xe4686c455a0d69ec)),
    (Entry::Rabenseifner, 1, Dtype::F64, ReduceOp::Max, (0, 1, 0xe32eed32bac8c222)),
    (Entry::Rabenseifner, 2, Dtype::U64, ReduceOp::Sum, (3846, 26, 0xecc7cdfc62f9c525)),
    (Entry::Rabenseifner, 2, Dtype::F64, ReduceOp::Max, (3846, 26, 0xda0a6736cdc8b1dd)),
    (Entry::Rabenseifner, 3, Dtype::U64, ReduceOp::Sum, (7599, 78, 0x2763ea9b604d231f)),
    (Entry::Rabenseifner, 3, Dtype::F64, ReduceOp::Max, (7599, 78, 0xcc83a9dae6535db4)),
    (Entry::Rabenseifner, 8, Dtype::U64, ReduceOp::Sum, (21749, 574, 0x2a0e3570b0714285)),
    (Entry::Rabenseifner, 8, Dtype::F64, ReduceOp::Max, (21749, 574, 0x2fa4c659f8ef5ff5)),
    (Entry::Rabenseifner, 9, Dtype::U64, ReduceOp::Sum, (25541, 699, 0x1683d4c8dc9bf098)),
    (Entry::Rabenseifner, 9, Dtype::F64, ReduceOp::Max, (25541, 699, 0xe228cad88b51bc5d)),
    (Entry::ReduceScatterBlock, 1, Dtype::U64, ReduceOp::Sum, (96, 2, 0xe4686c455a0d69ec)),
    (Entry::ReduceScatterBlock, 1, Dtype::F64, ReduceOp::Max, (96, 2, 0xe32eed32bac8c222)),
    (Entry::ReduceScatterBlock, 2, Dtype::U64, ReduceOp::Sum, (1986, 16, 0x7427fef04bbffc2b)),
    (Entry::ReduceScatterBlock, 2, Dtype::F64, ReduceOp::Max, (1986, 16, 0x5cbfbaf6a9c32e09)),
    (Entry::ReduceScatterBlock, 3, Dtype::U64, ReduceOp::Sum, (3891, 47, 0x0e751d0bb7023645)),
    (Entry::ReduceScatterBlock, 3, Dtype::F64, ReduceOp::Max, (3891, 47, 0xb56dd05a48db8b4a)),
    (Entry::ReduceScatterBlock, 8, Dtype::U64, ReduceOp::Sum, (13447, 303, 0x4ada4475308e0361)),
    (Entry::ReduceScatterBlock, 8, Dtype::F64, ReduceOp::Max, (13447, 303, 0x6465506cc0b3a212)),
    (Entry::ReduceScatterBlock, 9, Dtype::U64, ReduceOp::Sum, (16217, 395, 0xb3ff8309a3fcd0ea)),
    (Entry::ReduceScatterBlock, 9, Dtype::F64, ReduceOp::Max, (16217, 395, 0x19c65c958d2407f9)),
];

#[test]
fn extension_points_match_the_captured_runs() {
    for (entry, p, dtype, op, pin) in EXTENSION_PINS {
        let got = extension_point(entry, p, dtype, op);
        assert_eq!(got, pin, "{entry:?} p={p} {dtype:?} {op:?}");
    }
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

/// A zero-byte Rabenseifner allreduce still synchronizes (both token
/// exchanges, both barriers, the ring's notifications); a zero-byte
/// reduce-scatter-block returns at once. `(end_ns, events)` per team
/// size, captured with [`EXTENSION_PINS`].
#[test]
fn zero_byte_reductions_match_the_captured_runs() {
    let pins = [
        (1, (0, 1)),
        (2, (1516, 12)),
        (3, (3032, 33)),
        (8, (5814, 160)),
        (9, (7330, 225)),
    ];
    for (p, pin) in pins {
        let (run, _) = run_polled_team(&ArchProfile::broadwell(), p, move |rank| async move {
            let comm = &mut PolledComm::new(rank);
            let (sb, rb) = (comm.alloc(0), comm.alloc(0));
            let (dtype, op) = (Dtype::U64, ReduceOp::Sum);
            let algo = AllreduceAlgo::ReduceScatterAllgather;
            allreduce_polled(comm, algo, sb, rb, 0, dtype, op)
                .await
                .unwrap();
            reduce_scatter_block_polled(comm, sb, rb, 0, dtype, op)
                .await
                .unwrap();
        });
        assert_eq!((run.end_ns, run.events), pin, "p={p}");
    }
}

/// Both allreduce algorithms refuse a count that is not a whole number
/// of lanes with the error `reduce` uses, and a buffer shorter than the
/// count, on every rank and before any traffic. (Rabenseifner used to
/// return `Ok` and leave the last `count % width` bytes unreduced.)
#[test]
fn allreduce_validates_lanes_and_buffers_for_both_algorithms() {
    let tree = AllreduceAlgo::ReduceBcast {
        reduce: ReduceAlgo::SequentialRead,
        bcast: BcastAlgo::DirectRead,
    };
    for algo in [AllreduceAlgo::ReduceScatterAllgather, tree] {
        let (run, results) =
            run_polled_team(&ArchProfile::broadwell(), 3, move |rank| async move {
                let comm = &mut PolledComm::new(rank);
                let (sb, rb) = (comm.alloc(20), comm.alloc(20));
                let (dtype, op) = (Dtype::U64, ReduceOp::Sum);
                let ragged = allreduce_polled(comm, algo, sb, rb, 20, dtype, op).await;
                let short = allreduce_polled(comm, algo, sb, rb, 24, dtype, op).await;
                (ragged, short, sb.0)
            });
        for (ragged, short, buf) in results {
            let width = "count 20 is not a multiple of the U64 width";
            assert_eq!(ragged, Err(CommError::Protocol(width.into())), "{algo:?}");
            let cap = CommError::OutOfRange {
                buf,
                off: 0,
                len: 24,
                cap: 20,
            };
            assert_eq!(short, Err(cap), "{algo:?}");
        }
        assert_eq!(run.end_ns, 0, "{algo:?} refused before any traffic");
    }
}
