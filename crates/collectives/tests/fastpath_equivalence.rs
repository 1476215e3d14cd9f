//! The kernel's direct-handoff fast path (DESIGN.md §11.2) is a pure
//! scheduling optimization: it may only skip the queue round-trip when
//! the parked task's own wake is strictly the next event. It must never
//! change *which* task runs next or *when* (in virtual time) anything
//! happens.
//!
//! This suite pins that claim property-style across all six collectives:
//! the same bodies under [`run_polled_machine_full`] with the fast path on
//! (the default) and off (every wake through the event queue, the
//! reference route) must produce bitwise-identical [`TeamRun`]s —
//! `end_ns`, per-rank `finish_ns`, step accounting, peak concurrency,
//! event count — and identical payload bytes on every rank.

use kacc_collectives::verify::{
    alltoall_expected, alltoall_sendbuf, contribution, diff, gather_expected, scatter_expected,
    scatter_sendbuf,
};
use kacc_collectives::{
    allgather_polled, alltoall_polled, bcast_polled, gatherv_polled, reduce_polled, scatter_polled,
    AllgatherAlgo, AlltoallAlgo, BcastAlgo, Dtype, GatherAlgo, ReduceAlgo, ReduceOp, ScatterAlgo,
};
use kacc_machine::{run_polled_machine_full, MachineState, PolledComm, TeamRun};
use kacc_model::ArchProfile;
use proptest::prelude::*;

fn small_arch() -> ArchProfile {
    let mut a = ArchProfile::broadwell();
    a.name = "FastPathNode".into();
    a.cores_per_socket = 8;
    a
}

/// Run collective `pick` (0..6), algorithm variant `var` (0..3), and
/// return the payload bytes this rank should verify.
async fn run_pick(
    comm: &mut PolledComm,
    pick: usize,
    var: usize,
    count: usize,
    root: usize,
) -> Vec<u8> {
    let p = comm.size();
    let me = comm.rank();
    match pick {
        0 => {
            let algo = [
                ScatterAlgo::ParallelRead,
                ScatterAlgo::SequentialWrite,
                ScatterAlgo::ThrottledRead { k: 2 },
            ][var];
            let sb = (me == root).then(|| comm.alloc_with(&scatter_sendbuf(p, count)).unwrap());
            let rb = comm.alloc(count);
            scatter_polled(comm, algo, sb, Some(rb), count, root)
                .await
                .unwrap();
            comm.read_all(rb).unwrap()
        }
        1 => {
            let algo = [
                GatherAlgo::ParallelWrite,
                GatherAlgo::SequentialRead,
                GatherAlgo::ThrottledWrite { k: 2 },
            ][var];
            let sb = comm.alloc_with(&contribution(me, count)).unwrap();
            let rb = (me == root).then(|| comm.alloc(p * count));
            let counts = vec![count; p];
            gatherv_polled(comm, algo, Some(sb), rb, &counts, None, root)
                .await
                .unwrap();
            rb.map(|b| comm.read_all(b).unwrap()).unwrap_or_default()
        }
        2 => {
            let algo = [
                BcastAlgo::DirectRead,
                BcastAlgo::KNomial { radix: 2 },
                BcastAlgo::ScatterAllgather,
            ][var];
            let buf = if me == root {
                comm.alloc_with(&contribution(root, count)).unwrap()
            } else {
                comm.alloc(count)
            };
            bcast_polled(comm, algo, buf, count, root).await.unwrap();
            comm.read_all(buf).unwrap()
        }
        3 => {
            let algo = [
                AllgatherAlgo::RingNeighbor { j: 1 },
                AllgatherAlgo::RecursiveDoubling,
                AllgatherAlgo::Bruck,
            ][var];
            let sb = comm.alloc_with(&contribution(me, count)).unwrap();
            let rb = comm.alloc(p * count);
            allgather_polled(comm, algo, Some(sb), rb, count)
                .await
                .unwrap();
            comm.read_all(rb).unwrap()
        }
        4 => {
            let algo = [
                AlltoallAlgo::Pairwise,
                AlltoallAlgo::PairwiseWrite,
                AlltoallAlgo::Bruck,
            ][var];
            let sb = comm.alloc_with(&alltoall_sendbuf(me, p, count)).unwrap();
            let rb = comm.alloc(p * count);
            alltoall_polled(comm, algo, Some(sb), rb, count)
                .await
                .unwrap();
            comm.read_all(rb).unwrap()
        }
        5 => {
            let algo = [
                ReduceAlgo::SequentialRead,
                ReduceAlgo::KNomialTree { radix: 2 },
                ReduceAlgo::KNomialTree { radix: 3 },
            ][var];
            let lanes = count / 8;
            let sb = comm.alloc_with(&reduce_fill(me, lanes)).unwrap();
            let rb = (me == root).then(|| comm.alloc(lanes * 8));
            let (dtype, op) = (Dtype::U64, ReduceOp::Sum);
            reduce_polled(comm, algo, sb, rb, lanes * 8, dtype, op, root)
                .await
                .unwrap();
            rb.map(|b| comm.read_all(b).unwrap()).unwrap_or_default()
        }
        _ => unreachable!("pick out of range"),
    }
}

fn reduce_value(rank: usize, lane: usize) -> u64 {
    (rank as u64)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(lane as u64 * 31)
}

fn reduce_fill(rank: usize, lanes: usize) -> Vec<u8> {
    (0..lanes)
        .flat_map(|l| reduce_value(rank, l).to_le_bytes())
        .collect()
}

fn expected_pick(pick: usize, rank: usize, p: usize, count: usize, root: usize) -> Vec<u8> {
    match pick {
        0 => scatter_expected(rank, count),
        1 if rank == root => gather_expected(p, count),
        1 => Vec::new(),
        2 => contribution(root, count),
        3 => gather_expected(p, count),
        4 => alltoall_expected(rank, p, count),
        5 if rank == root => {
            kacc_collectives::reduce::expected_u64(p, count / 8, ReduceOp::Sum, reduce_value)
                .into_iter()
                .flat_map(u64::to_le_bytes)
                .collect()
        }
        5 => Vec::new(),
        _ => unreachable!("pick out of range"),
    }
}

const PICK_NAMES: [&str; 6] = [
    "scatter",
    "gather",
    "bcast",
    "allgather",
    "alltoall",
    "reduce",
];

/// One run of `pick`/`var` with the fast path on or off.
fn run(
    fast_path: bool,
    pick: usize,
    var: usize,
    p: usize,
    count: usize,
    root: usize,
) -> (TeamRun, Vec<Vec<u8>>) {
    let state = MachineState::new(small_arch(), p);
    let (run, payloads, _) =
        run_polled_machine_full(state, false, fast_path, move |rank| async move {
            run_pick(&mut PolledComm::new(rank), pick, var, count, root).await
        });
    (run, payloads)
}

/// The core check: fast path on vs off must be bitwise-identical.
fn check_equivalent(pick: usize, var: usize, p: usize, count: usize, root: usize) {
    let what = format!(
        "{} var={var} p={p} count={count} root={root}",
        PICK_NAMES[pick]
    );
    let (mut run_fast, res_fast) = run(true, pick, var, p, count, root);
    let (mut run_slow, res_slow) = run(false, pick, var, p, count, root);
    assert_eq!(
        run_slow.sim.fast_handoffs, 0,
        "{what}: the queue route handed off"
    );
    // The fast path replaces queue traffic with direct handoffs, so the
    // queue-mechanics observability counters legitimately differ between
    // the two runs; the semantic result (timing, payloads, stats) and the
    // machine-layer metrics must still match bitwise.
    run_fast.sim = Default::default();
    run_slow.sim = Default::default();
    assert_eq!(
        run_fast, run_slow,
        "{what}: fast path changed the TeamRun (end_ns {} vs {})",
        run_fast.end_ns, run_slow.end_ns
    );
    assert_eq!(res_fast, res_slow, "{what}: fast path changed payloads");
    for (r, got) in res_fast.iter().enumerate() {
        if let Some(d) = diff(got, &expected_pick(pick, r, p, count, root)) {
            panic!("{what} rank {r}: {d}");
        }
    }
    assert_eq!(run_fast.mail_pending, 0, "{what}: leaked control messages");
}

/// Fixed corpus: every collective × every algorithm variant, two team
/// shapes (even with an off-center root, odd with root 0).
#[test]
fn fastpath_corpus_all_collectives_all_algos() {
    for pick in 0..6 {
        for var in 0..3 {
            check_equivalent(pick, var, 8, 1024, 2);
            check_equivalent(pick, var, 5, 512, 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Any collective, any algorithm variant, any small team and message
    /// size: the fast path never changes a single virtual timestamp.
    #[test]
    fn fastpath_equivalent_for_any_point(
        pick in 0usize..6,
        var in 0usize..3,
        p in 2usize..9,
        lanes in 1usize..33,
        rootsel in 0usize..8,
    ) {
        check_equivalent(pick, var, p, lanes * 8, rootsel % p);
    }
}
