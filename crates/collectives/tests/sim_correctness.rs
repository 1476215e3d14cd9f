//! Correctness of every collective algorithm over the simulated machine:
//! MPI semantics must hold for every algorithm, process count (including
//! non-powers-of-two), root, and message size.

use kacc_collectives::verify::{
    alltoall_expected, alltoall_sendbuf, contribution, diff, gather_expected, scatter_expected,
    scatter_sendbuf,
};
use kacc_collectives::{
    allgather_polled, alltoall_polled, bcast_polled, gatherv_polled, scatter_polled, AllgatherAlgo,
    AlltoallAlgo, BcastAlgo, GatherAlgo, ScatterAlgo,
};
use kacc_machine::{run_polled_team, PolledComm};
use kacc_model::ArchProfile;

fn small_arch() -> ArchProfile {
    // A compact two-socket machine keeps simulated teams fast while
    // still exercising the inter-socket paths.
    let mut a = ArchProfile::broadwell();
    a.name = "TestNode".into();
    a.cores_per_socket = 8;
    a
}

fn check_scatter(p: usize, count: usize, root: usize, algo: ScatterAlgo) {
    let arch = small_arch();
    let (run, results) = run_polled_team(&arch, p, move |rank| async move {
        let comm = &mut PolledComm::new(rank);
        let sb = (rank == root).then(|| comm.alloc_with(&scatter_sendbuf(p, count)).unwrap());
        let rb = comm.alloc(count);
        scatter_polled(comm, algo, sb, Some(rb), count, root)
            .await
            .unwrap();
        comm.read_all(rb).unwrap()
    });
    for (r, got) in results.iter().enumerate() {
        if let Some(d) = diff(got, &scatter_expected(r, count)) {
            panic!("{algo:?} p={p} count={count} root={root} rank {r}: {d}");
        }
    }
    assert_eq!(run.mail_pending, 0, "{algo:?} leaked control messages");
}

fn check_gather(p: usize, count: usize, root: usize, algo: GatherAlgo) {
    let arch = small_arch();
    let (run, results) = run_polled_team(&arch, p, move |rank| async move {
        let comm = &mut PolledComm::new(rank);
        let sb = comm.alloc_with(&contribution(rank, count)).unwrap();
        let rb = (rank == root).then(|| comm.alloc(p * count));
        let counts = vec![count; p];
        gatherv_polled(comm, algo, Some(sb), rb, &counts, None, root)
            .await
            .unwrap();
        rb.map(|b| comm.read_all(b).unwrap()).unwrap_or_default()
    });
    if let Some(d) = diff(&results[root], &gather_expected(p, count)) {
        panic!("{algo:?} p={p} count={count} root={root}: {d}");
    }
    assert_eq!(run.mail_pending, 0);
}

fn check_allgather(p: usize, count: usize, algo: AllgatherAlgo) {
    let arch = small_arch();
    let (run, results) = run_polled_team(&arch, p, move |rank| async move {
        let comm = &mut PolledComm::new(rank);
        let sb = comm.alloc_with(&contribution(rank, count)).unwrap();
        let rb = comm.alloc(p * count);
        allgather_polled(comm, algo, Some(sb), rb, count)
            .await
            .unwrap();
        comm.read_all(rb).unwrap()
    });
    let expected = gather_expected(p, count);
    for (r, got) in results.iter().enumerate() {
        if let Some(d) = diff(got, &expected) {
            panic!("{algo:?} p={p} count={count} rank {r}: {d}");
        }
    }
    assert_eq!(run.mail_pending, 0);
}

fn check_alltoall(p: usize, count: usize, algo: AlltoallAlgo, in_place: bool) {
    let arch = small_arch();
    let (run, results) = run_polled_team(&arch, p, move |rank| async move {
        let comm = &mut PolledComm::new(rank);
        let mine = comm.alloc_with(&alltoall_sendbuf(rank, p, count)).unwrap();
        let (sb, rb) = if in_place {
            (None, mine)
        } else {
            (Some(mine), comm.alloc(p * count))
        };
        alltoall_polled(comm, algo, sb, rb, count).await.unwrap();
        comm.read_all(rb).unwrap()
    });
    for (r, got) in results.iter().enumerate() {
        if let Some(d) = diff(got, &alltoall_expected(r, p, count)) {
            panic!("{algo:?} p={p} count={count} in_place={in_place} rank {r}: {d}");
        }
    }
    assert_eq!(run.mail_pending, 0);
}

fn check_bcast(p: usize, count: usize, root: usize, algo: BcastAlgo) {
    let arch = small_arch();
    let (run, results) = run_polled_team(&arch, p, move |rank| async move {
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
        if let Some(d) = diff(got, &expected) {
            panic!("{algo:?} p={p} count={count} root={root} rank {r}: {d}");
        }
    }
    assert_eq!(run.mail_pending, 0);
}

// ---- Scatter -------------------------------------------------------------

#[test]
fn scatter_all_algorithms_all_shapes() {
    for p in [2usize, 3, 7, 8, 16] {
        for algo in [
            ScatterAlgo::ParallelRead,
            ScatterAlgo::SequentialWrite,
            ScatterAlgo::ThrottledRead { k: 1 },
            ScatterAlgo::ThrottledRead { k: 3 },
            ScatterAlgo::ThrottledRead { k: p - 1 },
        ] {
            check_scatter(p, 1000, 0, algo);
        }
    }
}

#[test]
fn scatter_nonzero_roots() {
    for root in [1usize, 5] {
        for algo in [
            ScatterAlgo::ParallelRead,
            ScatterAlgo::SequentialWrite,
            ScatterAlgo::ThrottledRead { k: 2 },
        ] {
            check_scatter(6, 4096, root % 6, algo);
        }
    }
}

#[test]
fn scatter_odd_sizes() {
    // Sub-page, page-spanning, and page-misaligned counts.
    for count in [1usize, 4095, 4097, 13000] {
        check_scatter(5, count, 2, ScatterAlgo::ThrottledRead { k: 2 });
    }
}

#[test]
fn scatter_throttle_larger_than_team_is_valid() {
    check_scatter(4, 512, 0, ScatterAlgo::ThrottledRead { k: 64 });
}

#[test]
fn scatter_single_rank() {
    check_scatter(1, 100, 0, ScatterAlgo::ParallelRead);
}

#[test]
fn scatter_zero_count() {
    check_scatter(4, 0, 0, ScatterAlgo::SequentialWrite);
}

// ---- Gather --------------------------------------------------------------

#[test]
fn gather_all_algorithms_all_shapes() {
    for p in [2usize, 3, 7, 8, 16] {
        for algo in [
            GatherAlgo::ParallelWrite,
            GatherAlgo::SequentialRead,
            GatherAlgo::ThrottledWrite { k: 1 },
            GatherAlgo::ThrottledWrite { k: 3 },
        ] {
            check_gather(p, 1000, 0, algo);
        }
    }
}

#[test]
fn gather_nonzero_roots_and_odd_sizes() {
    check_gather(6, 4097, 3, GatherAlgo::ParallelWrite);
    check_gather(6, 1, 5, GatherAlgo::SequentialRead);
    check_gather(9, 8191, 4, GatherAlgo::ThrottledWrite { k: 4 });
}

// ---- Allgather -----------------------------------------------------------

#[test]
fn allgather_all_algorithms_power_of_two() {
    for algo in [
        AllgatherAlgo::RingNeighbor { j: 1 },
        AllgatherAlgo::RingSourceRead,
        AllgatherAlgo::RingSourceWrite,
        AllgatherAlgo::RecursiveDoubling,
        AllgatherAlgo::Bruck,
    ] {
        check_allgather(8, 2000, algo);
    }
}

#[test]
fn allgather_all_algorithms_non_power_of_two() {
    for algo in [
        AllgatherAlgo::RingNeighbor { j: 1 },
        AllgatherAlgo::RingSourceRead,
        AllgatherAlgo::RingSourceWrite,
        AllgatherAlgo::RecursiveDoubling,
        AllgatherAlgo::Bruck,
    ] {
        check_allgather(7, 2000, algo);
        check_allgather(12, 513, algo);
    }
}

#[test]
fn allgather_ring_neighbor_strides() {
    // Any stride coprime with p works; 5 on a 2-socket node is the
    // paper's inter-socket-heavy example.
    check_allgather(8, 1000, AllgatherAlgo::RingNeighbor { j: 3 });
    check_allgather(8, 1000, AllgatherAlgo::RingNeighbor { j: 5 });
    check_allgather(9, 1000, AllgatherAlgo::RingNeighbor { j: 2 });
}

#[test]
fn allgather_ring_neighbor_rejects_bad_stride() {
    let arch = small_arch();
    let (_, results) = run_polled_team(&arch, 8, |rank| async move {
        let comm = &mut PolledComm::new(rank);
        let sb = comm.alloc(16);
        let rb = comm.alloc(8 * 16);
        // gcd(2, 8) != 1 — every rank must reject it identically.
        let algo = AllgatherAlgo::RingNeighbor { j: 2 };
        allgather_polled(comm, algo, Some(sb), rb, 16)
            .await
            .is_err()
    });
    assert!(results.iter().all(|&r| r));
}

#[test]
fn allgather_single_rank_and_zero_count() {
    check_allgather(1, 64, AllgatherAlgo::RingSourceRead);
    check_allgather(4, 0, AllgatherAlgo::Bruck);
}

// ---- Alltoall ------------------------------------------------------------

#[test]
fn alltoall_pairwise_pow2_and_odd() {
    check_alltoall(8, 700, AlltoallAlgo::Pairwise, false);
    check_alltoall(7, 700, AlltoallAlgo::Pairwise, false);
    check_alltoall(2, 5000, AlltoallAlgo::Pairwise, false);
}

#[test]
fn alltoall_pairwise_write_pow2_and_odd() {
    check_alltoall(8, 700, AlltoallAlgo::PairwiseWrite, false);
    check_alltoall(7, 700, AlltoallAlgo::PairwiseWrite, false);
    check_alltoall(6, 1200, AlltoallAlgo::PairwiseWrite, true);
}

#[test]
fn alltoall_bruck_pow2_and_odd() {
    check_alltoall(8, 300, AlltoallAlgo::Bruck, false);
    check_alltoall(6, 300, AlltoallAlgo::Bruck, false);
    check_alltoall(5, 1, AlltoallAlgo::Bruck, false);
}

#[test]
fn alltoall_in_place() {
    check_alltoall(6, 800, AlltoallAlgo::Pairwise, true);
    check_alltoall(8, 350, AlltoallAlgo::Bruck, true);
}

// ---- Bcast ---------------------------------------------------------------

#[test]
fn bcast_all_algorithms_various_p() {
    for p in [2usize, 3, 8, 13] {
        for algo in [
            BcastAlgo::DirectRead,
            BcastAlgo::DirectWrite,
            BcastAlgo::KNomial { radix: 2 },
            BcastAlgo::KNomial { radix: 4 },
            BcastAlgo::ScatterAllgather,
        ] {
            check_bcast(p, 3000, 0, algo);
        }
    }
}

#[test]
fn bcast_nonzero_roots() {
    for algo in [
        BcastAlgo::DirectRead,
        BcastAlgo::KNomial { radix: 3 },
        BcastAlgo::ScatterAllgather,
    ] {
        check_bcast(9, 5000, 4, algo);
    }
}

#[test]
fn bcast_message_smaller_than_team() {
    // Scatter-allgather with η < p exercises zero-length chunks.
    check_bcast(16, 5, 0, BcastAlgo::ScatterAllgather);
}

#[test]
fn bcast_knomial_radix_wider_than_team() {
    check_bcast(4, 1000, 1, BcastAlgo::KNomial { radix: 16 });
}

#[test]
fn bcast_invalid_radix_rejected() {
    let arch = small_arch();
    let (_, results) = run_polled_team(&arch, 2, |rank| async move {
        let comm = &mut PolledComm::new(rank);
        let b = comm.alloc(8);
        let algo = BcastAlgo::KNomial { radix: 1 };
        bcast_polled(comm, algo, b, 8, 0).await.is_err()
    });
    assert!(results.iter().all(|&r| r));
}
