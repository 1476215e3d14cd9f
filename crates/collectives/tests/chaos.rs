//! Chaos suite: every collective, under deterministic fault plans, on
//! both the simulated machine and the in-process thread transport. One
//! async body per collective runs on both: natively on the simulator's
//! endpoint, and on threads through `Blocking` + `block_on`.
//!
//! Invariants pinned here:
//!
//! 1. **Recoverable plans recover** — bounded transient failures, short
//!    CMA transfers, and injected delays never change the payload any
//!    rank observes.
//! 2. **Fatal plans fail typed** — peer death and persistent permission
//!    revocation (with the fallback disabled) produce `CommError`s, never
//!    panics, and — with a step timeout installed — never hangs.
//! 3. **Persistent permission loss degrades** — with the fallback
//!    enabled the collective completes through the two-copy path and the
//!    degradation is visible in `RecoveryReport` and the trace.
//! 4. **Zero cost when clean** — an installed injector that never fires
//!    leaves a simulated run bitwise-identical (virtual end time and
//!    payloads) to one with no injector compiled in at all.
//!
//! Every failure message includes the plan seed. Set `KACC_CHAOS_SEED`
//! to add one extra seed to the fixed corpus (the CI chaos step passes a
//! fresh random one and echoes it).

use kacc_collectives::exec::{Bindings, RecoveryPolicy};
use kacc_collectives::hierarchical::{
    hier_gather_pipelined_polled, hier_gather_polled, hier_scatter_polled,
};
use kacc_collectives::reduce::expected_u64;
use kacc_collectives::schedule::compile_bcast;
use kacc_collectives::verify::{
    alltoall_expected, alltoall_sendbuf, contribution, diff, gather_expected, scatter_expected,
    scatter_sendbuf,
};
use kacc_collectives::{
    allgather_polled, alltoall_polled, bcast_polled, execute_polled_with_policy, gatherv_polled,
    reduce_polled, scatter_polled, scatterv_polled, AllgatherAlgo, AlltoallAlgo, BcastAlgo, Dtype,
    GatherAlgo, ReduceAlgo, ReduceOp, ScatterAlgo, ScheduleReport,
};
use kacc_comm::{block_on, AsyncComm, Blocking, BufId};
use kacc_fault::{FaultHook, FaultKind, FaultOp, FaultPlan, FaultRule};
use kacc_machine::{
    run_polled_machine_full, run_polled_team, run_polled_team_faulty,
    run_polled_team_faulty_traced, MachineState, PolledComm, TeamRun,
};
use kacc_model::{ArchProfile, FabricParams};
use kacc_native::run_threads_faulty;
use kacc_trace::{Event, EventKind, Track};
use proptest::prelude::*;
use std::future::Future;

fn small_arch() -> ArchProfile {
    let mut a = ArchProfile::broadwell();
    a.name = "ChaosNode".into();
    a.cores_per_socket = 8;
    a
}

/// Fixed reproduction corpus plus an optional fresh seed from the
/// environment (printed in every assertion message on failure).
fn seed_corpus() -> Vec<u64> {
    let mut seeds = vec![1, 0xC0FFEE, 0xDEAD_BEEF, 0x9E37_79B9_7F4A_7C15];
    if let Ok(v) = std::env::var("KACC_CHAOS_SEED") {
        match v.parse::<u64>() {
            Ok(s) => seeds.push(s),
            Err(_) => panic!("KACC_CHAOS_SEED must be a u64, got {v:?}"),
        }
    }
    seeds
}

/// A plan every policy-default execution must survive: short CMA
/// transfers, bounded transient EAGAINs (under the executor's retry
/// budget of 3), and small delays, across all operation kinds.
fn recoverable_hook(seed: u64) -> FaultHook {
    FaultPlan::new(seed)
        .rule(
            FaultRule::new(FaultKind::Truncate { numer: 1, denom: 2 }, 0.15)
                .ops_mask(&[FaultOp::CmaRead, FaultOp::CmaWrite]),
        )
        .rule(FaultRule::new(FaultKind::Transient { errno: 11 }, 0.05).max(2))
        .rule(FaultRule::new(FaultKind::Delay { ns: 700 }, 0.05).max(4))
        .hook()
}

/// A buffer holding `data`.
fn alloc_with<C: AsyncComm>(comm: &mut C, data: &[u8]) -> BufId {
    let buf = comm.alloc(data.len());
    comm.write_local(buf, 0, data).unwrap();
    buf
}

/// A whole buffer's bytes.
fn read_all<C: AsyncComm>(comm: &C, buf: BufId) -> Vec<u8> {
    let mut out = vec![0u8; comm.buf_len(buf).unwrap()];
    comm.read_local(buf, 0, &mut out).unwrap();
    out
}

/// Run collective `pick` (0..6) on `comm` and return the bytes to
/// verify; `expected_pick` builds the reference payload for a rank.
async fn run_pick<C: AsyncComm>(comm: &mut C, pick: usize, count: usize, root: usize) -> Vec<u8> {
    let p = comm.size();
    let me = comm.rank();
    match pick {
        0 => {
            let sb = (me == root).then(|| alloc_with(comm, &scatter_sendbuf(p, count)));
            let rb = comm.alloc(count);
            let algo = ScatterAlgo::ThrottledRead { k: 2 };
            scatter_polled(comm, algo, sb, Some(rb), count, root)
                .await
                .unwrap();
            read_all(comm, rb)
        }
        1 => {
            let sb = alloc_with(comm, &contribution(me, count));
            let rb = (me == root).then(|| comm.alloc(p * count));
            let counts = vec![count; p];
            let algo = GatherAlgo::ParallelWrite;
            gatherv_polled(comm, algo, Some(sb), rb, &counts, None, root)
                .await
                .unwrap();
            rb.map(|b| read_all(comm, b)).unwrap_or_default()
        }
        2 => {
            let buf = if me == root {
                alloc_with(comm, &contribution(root, count))
            } else {
                comm.alloc(count)
            };
            let algo = BcastAlgo::KNomial { radix: 2 };
            bcast_polled(comm, algo, buf, count, root).await.unwrap();
            read_all(comm, buf)
        }
        3 => {
            let sb = alloc_with(comm, &contribution(me, count));
            let rb = comm.alloc(p * count);
            allgather_polled(comm, AllgatherAlgo::Bruck, Some(sb), rb, count)
                .await
                .unwrap();
            read_all(comm, rb)
        }
        4 => {
            let sb = alloc_with(comm, &alltoall_sendbuf(me, p, count));
            let rb = comm.alloc(p * count);
            alltoall_polled(comm, AlltoallAlgo::Pairwise, Some(sb), rb, count)
                .await
                .unwrap();
            read_all(comm, rb)
        }
        5 => {
            let lanes = count / 8;
            let sb = alloc_with(comm, &reduce_fill(me, lanes));
            let rb = (me == root).then(|| comm.alloc(lanes * 8));
            let (algo, dtype, op) = (
                ReduceAlgo::KNomialTree { radix: 2 },
                Dtype::U64,
                ReduceOp::Sum,
            );
            reduce_polled(comm, algo, sb, rb, lanes * 8, dtype, op, root)
                .await
                .unwrap();
            rb.map(|b| read_all(comm, b)).unwrap_or_default()
        }
        _ => unreachable!("pick out of range"),
    }
}

/// Run `body` on every rank of a simulated `small_arch` team under `hook`.
fn sim_team<R, F, Fut>(p: usize, hook: FaultHook, body: F) -> (TeamRun, Vec<R>)
where
    F: Fn(PolledComm) -> Fut + 'static,
    Fut: Future<Output = R> + 'static,
    R: 'static,
{
    run_polled_team_faulty(&small_arch(), p, hook, move |rank| {
        body(PolledComm::new(rank))
    })
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
        5 if rank == root => expected_u64(p, count / 8, ReduceOp::Sum, reduce_value)
            .into_iter()
            .flat_map(u64::to_le_bytes)
            .collect(),
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

fn check_pick_sim(pick: usize, p: usize, count: usize, root: usize, seed: u64) {
    let (run, results) = sim_team(p, recoverable_hook(seed), move |mut comm| async move {
        run_pick(&mut comm, pick, count, root).await
    });
    for (r, got) in results.iter().enumerate() {
        if let Some(d) = diff(got, &expected_pick(pick, r, p, count, root)) {
            panic!(
                "sim {} seed={seed} p={p} count={count} root={root} rank {r}: {d}",
                PICK_NAMES[pick]
            );
        }
    }
    assert_eq!(
        run.mail_pending, 0,
        "sim {} seed={seed}: leaked control messages",
        PICK_NAMES[pick]
    );
}

fn check_pick_threads(pick: usize, p: usize, count: usize, root: usize, seed: u64) {
    let results = run_threads_faulty(p, recoverable_hook(seed), move |comm| {
        block_on(run_pick(&mut Blocking(comm), pick, count, root))
    });
    for (r, got) in results.iter().enumerate() {
        if let Some(d) = diff(got, &expected_pick(pick, r, p, count, root)) {
            panic!(
                "threads {} seed={seed} p={p} count={count} root={root} rank {r}: {d}",
                PICK_NAMES[pick]
            );
        }
    }
}

// ---- 1. Recoverable plans recover ----------------------------------------

#[test]
fn chaos_corpus_all_collectives_sim() {
    for &seed in &seed_corpus() {
        for pick in 0..6 {
            check_pick_sim(pick, 8, 1024, 2, seed);
        }
    }
}

#[test]
fn chaos_corpus_odd_team_sim() {
    for &seed in &seed_corpus() {
        for pick in 0..6 {
            check_pick_sim(pick, 7, 4096, 0, seed);
        }
    }
}

#[test]
fn chaos_corpus_all_collectives_threads() {
    for &seed in &seed_corpus()[..2] {
        for pick in 0..6 {
            check_pick_threads(pick, 4, 512, 1, seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Any collective × any recoverable plan completes with the exact
    /// fault-free payload on every rank.
    #[test]
    fn chaos_any_seed_any_collective_sim(
        seed in any::<u64>(),
        pick in 0usize..6,
        p in 2usize..8,
        lanes in 1usize..48,
        rootsel in 0usize..8,
    ) {
        check_pick_sim(pick, p, lanes * 8, rootsel % p, seed);
    }
}

// ---- 2. Fatal plans fail typed, never hang -------------------------------

/// Default recovery with every blocking step bounded (virtual ns on the
/// simulator), so an aborted peer can only cost a timeout, not a hang.
fn bounded_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        step_timeout_ns: Some(2_000_000),
        ..RecoveryPolicy::default()
    }
}

/// Broadcast under a fault plan with every step bounded; returns each
/// rank's payload or the stringified typed error.
fn bounded_bcast(
    p: usize,
    count: usize,
    hook: FaultHook,
) -> Vec<std::result::Result<Vec<u8>, String>> {
    sim_team(p, hook, move |comm| {
        direct_read_bcast(comm, count, bounded_policy())
    })
    .1
}

/// A direct-read broadcast of `count` bytes from rank 0, executed under
/// `policy`; returns the payload or the stringified typed error.
async fn direct_read_bcast(
    mut comm: PolledComm,
    count: usize,
    policy: RecoveryPolicy,
) -> std::result::Result<Vec<u8>, String> {
    let me = comm.rank();
    let buf = if me == 0 {
        comm.alloc_with(&contribution(0, count)).unwrap()
    } else {
        comm.alloc(count)
    };
    let sched = compile_bcast(BcastAlgo::DirectRead, comm.size(), me, count, 0);
    let bind = Bindings {
        send: Some(buf),
        recv: None,
    };
    let tracer = comm.tracer();
    match execute_polled_with_policy(&mut comm, &sched, &bind, &tracer, &policy).await {
        Ok(_) => Ok(comm.read_all(buf).unwrap()),
        Err(e) => Err(format!("{e:?}")),
    }
}

fn assert_typed(msg: &str, ctx: &str) {
    assert!(
        msg.contains("Os(3)") || msg.contains("Timeout") || msg.contains("PermissionDenied"),
        "{ctx}: expected a typed transport error, got {msg}"
    );
}

#[test]
fn peer_death_yields_typed_errors_not_hangs() {
    let p = 6;
    let count = 1024;
    let dead = 5;
    let hook = FaultPlan::new(3)
        .rule(FaultRule::new(FaultKind::PeerDead { rank: dead }, 1.0))
        .hook();
    let results = bounded_bcast(p, count, hook);
    assert!(
        results[dead].is_err(),
        "the dead rank cannot complete a collective it participates in"
    );
    let expected = contribution(0, count);
    for (r, res) in results.iter().enumerate() {
        match res {
            Ok(payload) => {
                if let Some(d) = diff(payload, &expected) {
                    panic!("rank {r} completed with a corrupt payload: {d}");
                }
            }
            Err(msg) => assert_typed(msg, &format!("rank {r}")),
        }
    }
}

#[test]
fn permission_denied_without_fallback_is_a_typed_error() {
    let p = 5;
    let count = 2048;
    let hook = FaultPlan::new(11)
        .rule(FaultRule::new(FaultKind::PermDenied, 1.0).ops_mask(&[FaultOp::CmaRead]))
        .hook();
    let policy = RecoveryPolicy {
        cma_fallback: false,
        ..bounded_policy()
    };
    let (_, results) = sim_team(p, hook, move |comm| direct_read_bcast(comm, count, policy));
    // Every non-root pulls the payload with one CMA read; with the
    // fallback disabled the persistent denial must surface as-is.
    for (r, res) in results.iter().enumerate().skip(1) {
        let msg = res.as_ref().expect_err("denied CMA read cannot succeed");
        assert!(
            msg.contains("PermissionDenied"),
            "rank {r}: expected PermissionDenied, got {msg}"
        );
    }
    // The root only waits on completion notifications that never come.
    if let Err(msg) = &results[0] {
        assert_typed(msg, "root");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Killing any rank never hangs or panics the team: every rank
    /// either finishes with the correct payload or returns a typed error.
    #[test]
    fn chaos_peer_death_never_hangs(
        seed in any::<u64>(),
        p in 2usize..7,
        deadsel in 0usize..8,
        lanes in 1usize..17,
    ) {
        let dead = deadsel % p;
        let count = lanes * 8;
        let hook = FaultPlan::new(seed)
            .rule(FaultRule::new(FaultKind::PeerDead { rank: dead }, 1.0))
            .hook();
        let results = bounded_bcast(p, count, hook);
        prop_assert!(results[dead].is_err());
        let expected = contribution(0, count);
        for (r, res) in results.iter().enumerate() {
            match res {
                Ok(payload) => prop_assert!(
                    diff(payload, &expected).is_none(),
                    "seed={seed} rank {r}: corrupt payload"
                ),
                Err(msg) => prop_assert!(
                    msg.contains("Os(3)") || msg.contains("Timeout"),
                    "seed={seed} rank {r}: untyped failure {msg}"
                ),
            }
        }
    }
}

// ---- 3. Persistent denial degrades to the two-copy path ------------------

#[test]
fn permission_denied_falls_back_to_shm_and_is_traced() {
    let p = 6;
    let count = 2048;
    let root = 0;
    let hook = FaultPlan::new(42)
        .rule(FaultRule::new(FaultKind::PermDenied, 1.0).ops_mask(&[FaultOp::CmaRead]))
        .hook();
    let (_, results, events) =
        run_polled_team_faulty_traced(&small_arch(), p, hook, move |rank| async move {
            parallel_read_scatter(PolledComm::new(rank), count, root).await
        });

    for (r, (report, payload)) in results.iter().enumerate() {
        if let Some(d) = diff(payload, &scatter_expected(r, count)) {
            panic!("rank {r}: fallback path corrupted the payload: {d}");
        }
        if r == root {
            // The root serves its own slice with a local copy.
            assert!(report.recovery.is_clean(), "root should not need recovery");
            continue;
        }
        // Every non-root's one CMA read was denied and degraded.
        assert!(report.recovery.denied >= 1, "rank {r}: denial not recorded");
        assert_eq!(
            report.recovery.fallbacks, 1,
            "rank {r}: expected exactly one fallback transfer"
        );
        assert_eq!(
            report.recovery.fallback_bytes, count as u64,
            "rank {r}: fallback moved the wrong byte count"
        );

        // The degradation is visible on the rank's trace track, and the
        // report survives a round-trip through the event stream.
        let mine: Vec<Event> = events
            .iter()
            .filter(|ev| ev.track == Track::Rank(r))
            .cloned()
            .collect();
        assert!(
            mine.iter().any(|ev| {
                ev.name == "fallback:read" && matches!(ev.kind, EventKind::Span { .. })
            }),
            "rank {r}: no fallback:read span in the trace"
        );
        assert_eq!(
            &ScheduleReport::from_events(&mine),
            report,
            "rank {r}: report drifted from its trace"
        );
    }

    // The Chrome export must carry the recovery spans and still satisfy
    // the trace-validate schema.
    let json = kacc_trace::chrome_trace_json(&events);
    assert!(
        json.contains("fallback:read"),
        "chrome export lost the recovery spans"
    );
    kacc_trace::validate::validate_chrome_json(&json).expect("fallback trace fails trace-validate");
}

/// A read the kernel refuses completes through the two-copy path, and
/// its bytes count as fallback bytes only: none of them is kernel-assisted.
#[test]
fn a_denied_read_counts_its_bytes_as_fallback_not_cma() {
    let count = 2048;
    let hook = FaultPlan::new(7)
        .rule(FaultRule::new(FaultKind::PermDenied, 1.0).ops_mask(&[FaultOp::CmaRead]))
        .hook();
    let (run, results) = sim_team(2, hook, move |comm| parallel_read_scatter(comm, count, 0));
    assert_eq!(results[1].1, scatter_expected(1, count));
    let reader = run.stats[1];
    assert_eq!(
        (
            reader.bytes_read + reader.bytes_written,
            reader.fallback_ops,
            reader.fallback_bytes
        ),
        (0, 1, count as u64),
        "{reader:?}"
    );
}

#[test]
fn truncated_cma_transfers_resume_and_are_recorded() {
    let p = 4;
    let count = 4096;
    let root = 0;
    let hook = FaultPlan::new(5)
        .rule(
            FaultRule::new(FaultKind::Truncate { numer: 1, denom: 2 }, 1.0)
                .ops_mask(&[FaultOp::CmaRead, FaultOp::CmaWrite])
                .max(3),
        )
        .hook();
    let (_, results) = sim_team(p, hook, move |comm| {
        parallel_read_scatter(comm, count, root)
    });
    for (r, (report, payload)) in results.iter().enumerate() {
        if let Some(d) = diff(payload, &scatter_expected(r, count)) {
            panic!("rank {r}: resume path corrupted the payload: {d}");
        }
        if r != root {
            assert!(
                report.recovery.short_resumes >= 1,
                "rank {r}: truncated read was not resumed"
            );
            assert!(
                report.recovery.short_bytes >= 1,
                "rank {r}: salvaged bytes not accounted"
            );
        }
    }
}

/// A parallel-read scatter of `count` bytes per rank from `root`,
/// returning the executor's report and the received slice.
async fn parallel_read_scatter(
    mut comm: PolledComm,
    count: usize,
    root: usize,
) -> (ScheduleReport, Vec<u8>) {
    let p = comm.size();
    let counts = vec![count; p];
    let sb = (comm.rank() == root).then(|| comm.alloc_with(&scatter_sendbuf(p, count)).unwrap());
    let rb = comm.alloc(count);
    let algo = ScatterAlgo::ParallelRead;
    let report = scatterv_polled(&mut comm, algo, sb, Some(rb), &counts, None, root)
        .await
        .unwrap()
        .expect("scatter ran a schedule");
    (report, comm.read_all(rb).unwrap())
}

// ---- 4. Zero cost when clean ---------------------------------------------

#[test]
fn installed_but_silent_injector_is_bitwise_free() {
    let p = 8;
    let count = 8 * 4096;
    let body = move |comm| parallel_read_scatter(comm, count, 0);
    let (base_run, base) =
        run_polled_team(&small_arch(), p, move |rank| body(PolledComm::new(rank)));
    // An explicitly disabled hook (the FaultHook::off() fast path)…
    let (off_run, off) = sim_team(p, FaultHook::off(), body);
    // …and an installed plan whose rules never fire.
    let silent = FaultPlan::new(9)
        .rule(FaultRule::new(FaultKind::Transient { errno: 11 }, 0.0))
        .hook();
    let (silent_run, quiet) = sim_team(p, silent, body);

    assert_eq!(
        base_run.end_ns, off_run.end_ns,
        "disabled hook changed virtual time"
    );
    assert_eq!(
        base_run.end_ns, silent_run.end_ns,
        "silent injector changed virtual time"
    );
    assert_eq!(base, off, "disabled hook changed payloads");
    assert_eq!(base, quiet, "silent injector changed payloads");
}

// ---- 5. Determinism of the plan itself -----------------------------------

#[test]
fn same_seed_same_faults_same_timeline() {
    // Two identical chaos runs must agree on virtual end time and
    // payloads: decisions are a pure function of (seed, rank, op index).
    let run_once = || {
        sim_team(6, recoverable_hook(0xAB), move |mut comm| async move {
            run_pick(&mut comm, 0, 2048, 0).await
        })
    };
    let (run_a, a) = run_once();
    let (run_b, b) = run_once();
    assert_eq!(run_a.end_ns, run_b.end_ns, "chaos run is not deterministic");
    assert_eq!(a, b, "chaos payload outcomes are not deterministic");
}

// ---- 6. Hierarchical collectives ride the same chaos plans ----------------

/// One full hierarchical round (scatter, gather, pipelined gather) on a
/// simulated `nodes × rpn` cluster under the recoverable plan, every
/// payload verified. With `nodes > 1` the leader → root bulk path, the
/// remote leaders' staging and the pipelined waves see faults too.
fn check_hier(seed: u64, nodes: usize, rpn: usize, count: usize, root: usize, k: usize) {
    let p = nodes * rpn;
    let fabric = (nodes > 1).then(FabricParams::ib_edr);
    let mut state = MachineState::cluster(small_arch(), nodes, rpn, fabric);
    state.fault = recoverable_hook(seed);
    let (run, results, _) = run_polled_machine_full(state, false, true, move |rank| async move {
        let comm = &mut PolledComm::new(rank);
        let me = comm.rank();
        let ssb = (me == root).then(|| comm.alloc_with(&scatter_sendbuf(p, count)).unwrap());
        let srb = comm.alloc(count);
        hier_scatter_polled(comm, ssb, Some(srb), count, root, k)
            .await
            .unwrap();
        let scattered = comm.read_all(srb).unwrap();

        let gsb = comm.alloc_with(&contribution(me, count)).unwrap();
        let grb = (me == root).then(|| comm.alloc(p * count));
        hier_gather_polled(comm, Some(gsb), grb, count, root, k)
            .await
            .unwrap();
        let gathered = grb.map(|b| comm.read_all(b).unwrap()).unwrap_or_default();

        let psb = comm.alloc_with(&contribution(me, count)).unwrap();
        let prb = (me == root).then(|| comm.alloc(p * count));
        hier_gather_pipelined_polled(comm, Some(psb), prb, count, root, k)
            .await
            .unwrap();
        let pipelined = prb.map(|b| comm.read_all(b).unwrap()).unwrap_or_default();

        (scattered, gathered, pipelined)
    });
    for (r, (scattered, gathered, pipelined)) in results.iter().enumerate() {
        let ctx =
            format!("hier seed={seed} {nodes}x{rpn} count={count} root={root} k={k} rank {r}");
        if let Some(d) = diff(scattered, &scatter_expected(r, count)) {
            panic!("{ctx} scatter: {d}");
        }
        let want_gather = if r == root {
            gather_expected(p, count)
        } else {
            Vec::new()
        };
        if let Some(d) = diff(gathered, &want_gather) {
            panic!("{ctx} gather: {d}");
        }
        if let Some(d) = diff(pipelined, &want_gather) {
            panic!("{ctx} pipelined gather: {d}");
        }
    }
    assert_eq!(
        run.mail_pending, 0,
        "hier seed={seed} {nodes}x{rpn}: leaked control messages"
    );
}

#[test]
fn chaos_corpus_hierarchical_sim() {
    for &seed in &seed_corpus() {
        check_hier(seed, 1, 8, 1024, 0, 4);
        check_hier(seed, 1, 7, 512, 2, 3);
        check_hier(seed, 2, 4, 1024, 0, 4);
        // Root 4 is the middle node's second rank: a root that is not
        // its node's lowest rank, with remote leaders on both sides.
        check_hier(seed, 3, 3, 512, 4, 2);
        check_hier(seed, 3, 2, 256, 5, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Hierarchical designs survive any recoverable plan with exact
    /// payloads, for any node count (1–3), node size, leader-group width
    /// and root; across nodes the fabric hops see faults too.
    #[test]
    fn chaos_any_seed_hierarchical_sim(
        seed in any::<u64>(),
        nodes in 1usize..4,
        rpn in 1usize..9,
        k in 1usize..5,
        rootsel in 0usize..24,
        lanes in 1usize..16,
    ) {
        check_hier(seed, nodes, rpn, lanes * 64, rootsel % (nodes * rpn), k);
    }
}
