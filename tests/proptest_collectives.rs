//! Property-based tests: MPI semantics hold for arbitrary process
//! counts, message sizes, roots, and algorithm choices; auxiliary
//! invariants (determinism, timing independent of the data) hold
//! throughout.

use kacc::collectives::reduce::expected_u64;
use kacc::collectives::verify::{
    alltoall_expected, alltoall_sendbuf, contribution, diff, gather_expected, scatter_expected,
    scatter_sendbuf,
};
use kacc::collectives::{
    allgather_polled, alltoall_polled, bcast_polled, gatherv_polled, reduce_polled, scatter_polled,
    AllgatherAlgo, AlltoallAlgo, BcastAlgo, Dtype, GatherAlgo, ReduceAlgo, ReduceOp, ScatterAlgo,
};
use kacc::machine::{run_polled_team, PolledComm};
use kacc::model::ArchProfile;
use proptest::prelude::*;

fn small_arch() -> ArchProfile {
    let mut a = ArchProfile::broadwell();
    a.cores_per_socket = 4;
    a
}

fn scatter_algo() -> impl Strategy<Value = ScatterAlgo> {
    prop_oneof![
        Just(ScatterAlgo::ParallelRead),
        Just(ScatterAlgo::SequentialWrite),
        (1usize..10).prop_map(|k| ScatterAlgo::ThrottledRead { k }),
    ]
}

fn gather_algo() -> impl Strategy<Value = GatherAlgo> {
    prop_oneof![
        Just(GatherAlgo::ParallelWrite),
        Just(GatherAlgo::SequentialRead),
        (1usize..10).prop_map(|k| GatherAlgo::ThrottledWrite { k }),
    ]
}

fn bcast_algo() -> impl Strategy<Value = BcastAlgo> {
    prop_oneof![
        Just(BcastAlgo::DirectRead),
        Just(BcastAlgo::DirectWrite),
        (2usize..8).prop_map(|radix| BcastAlgo::KNomial { radix }),
        Just(BcastAlgo::ScatterAllgather),
    ]
}

fn gcd(a: usize, b: usize) -> usize {
    if a == 0 {
        b
    } else {
        gcd(b % a, a)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn scatter_delivers_for_any_shape(
        p in 1usize..10,
        count in 0usize..6000,
        root_seed in 0usize..100,
        algo in scatter_algo(),
    ) {
        let root = root_seed % p;
        let (_, results) = run_polled_team(&small_arch(), p, move |rank| async move {
            let comm = &mut PolledComm::new(rank);
            let sb = (rank == root).then(|| comm.alloc_with(&scatter_sendbuf(p, count)).unwrap());
            let rb = comm.alloc(count);
            scatter_polled(comm, algo, sb, Some(rb), count, root).await.unwrap();
            comm.read_all(rb).unwrap()
        });
        for (r, got) in results.iter().enumerate() {
            prop_assert!(diff(got, &scatter_expected(r, count)).is_none(),
                "{algo:?} p={p} count={count} root={root} rank {r}");
        }
    }

    #[test]
    fn gather_delivers_for_any_shape(
        p in 1usize..10,
        count in 0usize..6000,
        root_seed in 0usize..100,
        algo in gather_algo(),
    ) {
        let root = root_seed % p;
        let (_, results) = run_polled_team(&small_arch(), p, move |rank| async move {
            let comm = &mut PolledComm::new(rank);
            let sb = comm.alloc_with(&contribution(rank, count)).unwrap();
            let rb = (rank == root).then(|| comm.alloc(p * count));
            gatherv_polled(comm, algo, Some(sb), rb, &vec![count; p], None, root).await.unwrap();
            rb.map(|b| comm.read_all(b).unwrap()).unwrap_or_default()
        });
        prop_assert!(diff(&results[root], &gather_expected(p, count)).is_none(),
            "{algo:?} p={p} count={count} root={root}");
    }

    #[test]
    fn allgather_delivers_for_any_shape(
        p in 2usize..10,
        count in 0usize..4000,
        pick in 0usize..5,
        stride_seed in 0usize..64,
    ) {
        let algo = match pick {
            0 => {
                let coprime: Vec<usize> =
                    (1..p).filter(|&j| gcd(j, p) == 1).collect();
                AllgatherAlgo::RingNeighbor { j: coprime[stride_seed % coprime.len()] }
            }
            1 => AllgatherAlgo::RingSourceRead,
            2 => AllgatherAlgo::RingSourceWrite,
            3 => AllgatherAlgo::RecursiveDoubling,
            _ => AllgatherAlgo::Bruck,
        };
        let (_, results) = run_polled_team(&small_arch(), p, move |rank| async move {
            let comm = &mut PolledComm::new(rank);
            let sb = comm.alloc_with(&contribution(rank, count)).unwrap();
            let rb = comm.alloc(p * count);
            allgather_polled(comm, algo, Some(sb), rb, count).await.unwrap();
            comm.read_all(rb).unwrap()
        });
        let expected = gather_expected(p, count);
        for (r, got) in results.iter().enumerate() {
            prop_assert!(diff(got, &expected).is_none(), "{algo:?} p={p} rank {r}");
        }
    }

    #[test]
    fn alltoall_delivers_for_any_shape(
        p in 1usize..9,
        count in 0usize..3000,
        bruck in proptest::bool::ANY,
        in_place in proptest::bool::ANY,
    ) {
        let algo = if bruck { AlltoallAlgo::Bruck } else { AlltoallAlgo::Pairwise };
        let (_, results) = run_polled_team(&small_arch(), p, move |rank| async move {
            let comm = &mut PolledComm::new(rank);
            let mine = comm.alloc_with(&alltoall_sendbuf(rank, p, count)).unwrap();
            let (sb, rb) = if in_place { (None, mine) } else { (Some(mine), comm.alloc(p * count)) };
            alltoall_polled(comm, algo, sb, rb, count).await.unwrap();
            comm.read_all(rb).unwrap()
        });
        for (r, got) in results.iter().enumerate() {
            prop_assert!(diff(got, &alltoall_expected(r, p, count)).is_none(),
                "{algo:?} p={p} count={count} in_place={in_place} rank {r}");
        }
    }

    #[test]
    fn bcast_delivers_for_any_shape(
        p in 1usize..12,
        count in 0usize..6000,
        root_seed in 0usize..100,
        algo in bcast_algo(),
    ) {
        let root = root_seed % p;
        let (_, results) = run_polled_team(&small_arch(), p, move |rank| async move {
            let comm = &mut PolledComm::new(rank);
            let buf = if rank == root {
                comm.alloc_with(&contribution(root, count)).unwrap()
            } else {
                comm.alloc(count)
            };
            bcast_polled(comm, algo, buf, count, root).await.unwrap();
            comm.read_all(buf).unwrap()
        });
        let expected = contribution(root, count);
        for (r, got) in results.iter().enumerate() {
            prop_assert!(diff(got, &expected).is_none(),
                "{algo:?} p={p} count={count} root={root} rank {r}");
        }
    }

    #[test]
    fn reduce_matches_reference_fold(
        p in 1usize..10,
        lanes in 1usize..400,
        root_seed in 0usize..100,
        radix in 2usize..6,
        op_pick in 0usize..3,
        tree in proptest::bool::ANY,
    ) {
        let root = root_seed % p;
        let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min][op_pick];
        let algo = if tree {
            ReduceAlgo::KNomialTree { radix }
        } else {
            ReduceAlgo::SequentialRead
        };
        let value_of =
            |r: usize, l: usize| (r as u64).wrapping_mul(0xABCD_EF01).wrapping_add(l as u64);
        let (_, results) = run_polled_team(&small_arch(), p, move |rank| async move {
            let comm = &mut PolledComm::new(rank);
            let data: Vec<u8> =
                (0..lanes).flat_map(|l| value_of(rank, l).to_le_bytes()).collect();
            let sb = comm.alloc_with(&data).unwrap();
            let rb = (rank == root).then(|| comm.alloc(lanes * 8));
            reduce_polled(comm, algo, sb, rb, lanes * 8, Dtype::U64, op, root).await.unwrap();
            rb.map(|b| comm.read_all(b).unwrap()).unwrap_or_default()
        });
        let got: Vec<u64> = results[root]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        prop_assert_eq!(got, expected_u64(p, lanes, op, value_of),
            "{:?} {:?} p={} root={}", algo, op, p, root);
    }

    #[test]
    fn simulation_is_deterministic_and_timing_ignores_data(
        p in 2usize..8,
        count in 1usize..30_000,
        algo in bcast_algo(),
    ) {
        // The root's buffer holds `fill` bytes; zeros are never allocated.
        let go = |fill: u8| {
            run_polled_team(&small_arch(), p, move |rank| async move {
                let comm = &mut PolledComm::new(rank);
                let buf = comm.alloc_with(&vec![if rank == 0 { fill } else { 0 }; count]).unwrap();
                bcast_polled(comm, algo, buf, count, 0).await.unwrap();
                (comm.time_ns(), comm.read_all(buf).unwrap())
            })
        };
        let (run, got) = go(0xA5);
        prop_assert!(got.iter().all(|(_, b)| b == &vec![0xA5; count]));
        let (again, got_again) = go(0xA5);
        prop_assert_eq!(&run, &again, "same-config runs must be bit-identical");
        prop_assert_eq!(&got, &got_again);
        let (zero_run, zero) = go(0);
        prop_assert_eq!(run, zero_run, "the data must not change virtual timing");
        prop_assert!(zero.iter().all(|(_, b)| b == &vec![0; count]));
    }
}
