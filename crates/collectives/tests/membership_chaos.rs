//! Membership chaos suite: kill ranks mid-collective and pin the
//! detect → agree → shrink-and-re-execute loop on the simulator, with a
//! fault-free smoke run on the thread transport.
//!
//! Invariants pinned here:
//!
//! 1. **Kill-k completes over the survivors** — with `k ∈ {1, 2}` ranks
//!    silently killed mid-plan, every survivor finishes with the payload
//!    the collective defines over the shrunken group, and the agreed
//!    survivor list and dead mask are identical on every rank.
//! 2. **Killed ranks fail typed** — a dead rank (and every rank, when
//!    the root dies or quorum is lost) gets a typed `CommError`, never a
//!    hang and never a panic.
//! 3. **Pinned recovery paths** — for the fixed kill schedules the whole
//!    recovery path (virtual end time, per-rank outcomes, payloads) is
//!    pinned bit for bit to the values captured while a second,
//!    thread-based simulator engine agreed with this one on them.
//! 4. **Zero cost when clean** — a fault-free survivable run reports a
//!    clean `MembershipReport` and a clean `RecoveryReport`.
//! 5. **Shrink remapping is sound** — remapped plans are a bijection
//!    onto the survivor list and their retagged sub-tags never collide
//!    with any pre-shrink epoch (property-based).
//! 6. **Bad calls fail before any traffic** — the plain entries' argument
//!    check runs on the epoch-0 key, so undersized or missing buffers and
//!    a bad ring stride fail typed at virtual time 0 on every rank.
//!
//! Every failure message includes the plan seed. Set `KACC_CHAOS_SEED`
//! to add one extra seed to the fixed corpus (the CI membership-chaos
//! step passes a fresh random one and echoes it).

use kacc_collectives::schedule::{compile_allgather, compile_bcast};
use kacc_collectives::verify::{
    alltoall_sendbuf, contribution, diff, scatter_expected, scatter_sendbuf,
};
use kacc_collectives::{
    remap_for_members, run_survivable_polled, AllgatherAlgo, AlltoallAlgo, BcastAlgo, Dtype,
    GatherAlgo, MembershipPolicy, MembershipReport, RecoveryPolicy, ScatterAlgo, Schedule, Step,
    SurvivableOp,
};
use kacc_collectives::{ReduceAlgo, ReduceOp};
use kacc_comm::{block_on, AsyncComm, Blocking, BufId, CommError, Tag};
use kacc_fault::{FaultHook, FaultPlan};
use kacc_machine::{run_polled_team, run_polled_team_faulty, PolledComm, TeamRun};
use kacc_model::ArchProfile;
use kacc_native::run_threads;
use proptest::prelude::*;

fn small_arch() -> ArchProfile {
    let mut a = ArchProfile::broadwell();
    a.name = "MembershipNode".into();
    a.cores_per_socket = 8;
    a
}

/// The fixed reproduction corpus.
const SEEDS: [u64; 4] = [1, 0xC0FFEE, 0xDEAD_BEEF, 0x9E37_79B9_7F4A_7C15];

/// [`SEEDS`] plus an optional fresh seed from the environment (printed in
/// every assertion message on failure).
fn seed_corpus() -> Vec<u64> {
    let mut seeds = SEEDS.to_vec();
    if let Ok(v) = std::env::var("KACC_CHAOS_SEED") {
        match v.parse::<u64>() {
            Ok(s) => seeds.push(s),
            Err(_) => panic!("KACC_CHAOS_SEED must be a u64, got {v:?}"),
        }
    }
    seeds
}

/// Silently kill each listed rank after its `after`-th transport
/// operation: every op from then on fails with `ESRCH`, which is
/// exactly what a peer observes of a process that died without a
/// goodbye.
fn silent_kill(seed: u64, dead: &[(usize, u64)]) -> FaultHook {
    let mut plan = FaultPlan::new(seed);
    for &(d, after) in dead {
        plan = plan.silent_kill(d, after);
    }
    plan.hook()
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

const PICK_NAMES: [&str; 6] = [
    "scatter",
    "gather",
    "bcast",
    "allgather",
    "alltoall",
    "reduce",
];

fn op_for(pick: usize, count: usize, root: usize) -> SurvivableOp {
    match pick {
        0 => SurvivableOp::Scatter {
            algo: ScatterAlgo::ThrottledRead { k: 2 },
            count,
            root,
        },
        1 => SurvivableOp::Gather {
            algo: GatherAlgo::ParallelWrite,
            count,
            root,
        },
        2 => SurvivableOp::Bcast {
            algo: BcastAlgo::KNomial { radix: 2 },
            count,
            root,
        },
        3 => SurvivableOp::Allgather {
            algo: AllgatherAlgo::Bruck,
            count,
        },
        4 => SurvivableOp::Alltoall {
            algo: AlltoallAlgo::Pairwise,
            count,
        },
        5 => SurvivableOp::Reduce {
            algo: ReduceAlgo::KNomialTree { radix: 2 },
            count,
            dtype: Dtype::U64,
            op: ReduceOp::Sum,
            root,
        },
        _ => unreachable!("pick out of range"),
    }
}

/// What one rank's survivable run produced: the agreed survivor list,
/// the membership loop's report, whether the final execution's
/// `RecoveryReport` was clean, and the observed payload bytes.
type RankOutcome = std::result::Result<(Vec<usize>, MembershipReport, bool, Vec<u8>), String>;

/// A buffer holding `data`.
fn alloc_with<C: AsyncComm>(comm: &mut C, data: &[u8]) -> BufId {
    let buf = comm.alloc(data.len());
    comm.write_local(buf, 0, data).expect("write");
    buf
}

/// A whole buffer's bytes.
fn read_all<C: AsyncComm>(comm: &C, buf: BufId) -> Vec<u8> {
    let mut out = vec![0u8; comm.buf_len(buf).expect("buffer")];
    comm.read_local(buf, 0, &mut out).expect("read");
    out
}

/// Run survivable collective `pick` under `policy`. Buffers are
/// parent-sized; a shrunken result occupies their prefix.
async fn survivable<C: AsyncComm>(
    comm: &mut C,
    pick: usize,
    count: usize,
    root: usize,
    policy: &RecoveryPolicy,
) -> RankOutcome {
    let p = comm.size();
    let me = comm.rank();
    let op = op_for(pick, count, root);
    let (sb, rb, out) = match pick {
        0 => {
            let sb = (me == root).then(|| alloc_with(comm, &scatter_sendbuf(p, count)));
            let rb = comm.alloc(count);
            (sb, Some(rb), Some(rb))
        }
        1 => {
            let sb = alloc_with(comm, &contribution(me, count));
            let rb = (me == root).then(|| comm.alloc(p * count));
            (Some(sb), rb, rb)
        }
        2 => {
            let buf = if me == root {
                alloc_with(comm, &contribution(root, count))
            } else {
                comm.alloc(count)
            };
            (Some(buf), None, Some(buf))
        }
        3 => {
            let sb = alloc_with(comm, &contribution(me, count));
            let rb = comm.alloc(p * count);
            (Some(sb), Some(rb), Some(rb))
        }
        4 => {
            let sb = alloc_with(comm, &alltoall_sendbuf(me, p, count));
            let rb = comm.alloc(p * count);
            (Some(sb), Some(rb), Some(rb))
        }
        5 => {
            let sb = alloc_with(comm, &reduce_fill(me, count / 8));
            let rb = (me == root).then(|| comm.alloc(count));
            (Some(sb), rb, rb)
        }
        _ => unreachable!("pick out of range"),
    };
    match run_survivable_polled(comm, &op, sb, rb, policy).await {
        Ok(o) => {
            let payload = out.map(|b| read_all(comm, b)).unwrap_or_default();
            Ok((
                o.members,
                o.membership,
                o.report.recovery.is_clean(),
                payload,
            ))
        }
        Err(e) => Err(format!("{e:?}")),
    }
}

/// The payload survivor `members[idx]` must observe (only the shrunken
/// prefix of its parent-sized buffer is defined).
fn expected_survivor(
    pick: usize,
    idx: usize,
    members: &[usize],
    parent_p: usize,
    count: usize,
    root: usize,
) -> Vec<u8> {
    let me = members[idx];
    let l = members.len();
    match pick {
        0 => scatter_expected(idx, count),
        1 if me == root => members
            .iter()
            .flat_map(|&m| contribution(m, count))
            .collect(),
        1 => Vec::new(),
        2 => contribution(root, count),
        3 => members
            .iter()
            .flat_map(|&m| contribution(m, count))
            .collect(),
        4 => (0..l)
            .flat_map(|i| {
                let sb = alltoall_sendbuf(members[i], parent_p, count);
                sb[idx * count..(idx + 1) * count].to_vec()
            })
            .collect(),
        5 if me == root => (0..count / 8)
            .flat_map(|lane| {
                members
                    .iter()
                    .fold(0u64, |acc, &m| acc.wrapping_add(reduce_value(m, lane)))
                    .to_le_bytes()
            })
            .collect(),
        5 => Vec::new(),
        _ => unreachable!("pick out of range"),
    }
}

/// A dead or exiled rank must end with a typed error, not a panic or a
/// stringified hang.
fn assert_dead_typed(msg: &str, ctx: &str) {
    assert!(
        msg.contains("PeerDead")
            || msg.contains("Os(3)")
            || msg.contains("Timeout")
            || msg.contains("quorum")
            || msg.contains("shrinks"),
        "{ctx}: expected a typed membership error, got {msg}"
    );
}

/// Low-64 diagnostic mask of a dead set — `MembershipReport::dead_mask`
/// mirrors only ranks 0..64 (gen-2 membership is unbounded; wider ranks
/// are visible through the agreed `members` list instead).
fn mask_of(ranks: &[usize]) -> u64 {
    ranks
        .iter()
        .filter(|&&r| r < 64)
        .fold(0u64, |m, &r| m | 1u64 << r)
}

/// Strict postcondition for a kill-k run: every survivor completed over
/// the agreed shrunken group with the exact payload; every killed rank
/// failed typed.
#[allow(clippy::too_many_arguments)]
fn assert_kill_outcomes(
    pick: usize,
    p: usize,
    count: usize,
    root: usize,
    deadset: &[usize],
    seed: u64,
    results: &[RankOutcome],
) {
    let survivors: Vec<usize> = (0..p).filter(|r| !deadset.contains(r)).collect();
    for (r, res) in results.iter().enumerate() {
        let ctx = format!(
            "{} seed={seed} p={p} count={count} root={root} dead={deadset:?} rank {r}",
            PICK_NAMES[pick]
        );
        if deadset.contains(&r) {
            match res {
                Ok(_) => panic!("{ctx}: a killed rank cannot complete"),
                Err(msg) => assert_dead_typed(msg, &ctx),
            }
            continue;
        }
        match res {
            Ok((members, mrep, _, payload)) => {
                assert_eq!(members, &survivors, "{ctx}: wrong agreed survivor list");
                assert_eq!(
                    mrep.dead_mask,
                    mask_of(deadset),
                    "{ctx}: wrong agreed dead mask"
                );
                assert!(
                    mrep.epochs >= 1 && mrep.reexecs >= 1,
                    "{ctx}: recovery must shrink and re-execute, got {mrep:?}"
                );
                let idx = members
                    .iter()
                    .position(|&m| m == r)
                    .expect("survivor in members");
                let want = expected_survivor(pick, idx, members, p, count, root);
                assert!(
                    payload.len() >= want.len(),
                    "{ctx}: payload shorter than the shrunken result"
                );
                if let Some(d) = diff(&payload[..want.len()], &want) {
                    panic!("{ctx}: {d}");
                }
            }
            Err(msg) => panic!("{ctx}: survivor must complete after the shrink, got {msg}"),
        }
    }
}

/// The node profile a group size belongs on: the 16-place
/// `small_arch` keeps contention realistic for p ≤ 64, while wide
/// groups run on a KNL-class many-core node (272 hardware places) —
/// oversubscribing 128 ranks 8-to-1 onto 16 places serializes the
/// agreement sweep far past anything the analytic deadline model (one
/// rank per place, like a real MPI pinning) is meant to cover.
fn arch_for_p(p: usize) -> ArchProfile {
    if p <= 64 {
        small_arch()
    } else {
        ArchProfile::knl()
    }
}

fn run_kill(
    pick: usize,
    p: usize,
    count: usize,
    root: usize,
    dead: Vec<(usize, u64)>,
    seed: u64,
) -> (TeamRun, Vec<RankOutcome>) {
    let arch = arch_for_p(p);
    run_polled_team_faulty(&arch, p, silent_kill(seed, &dead), move |rank| async move {
        let policy = RecoveryPolicy::survivable();
        survivable(&mut PolledComm::new(rank), pick, count, root, &policy).await
    })
}

/// `(end_ns, digest)` of a run: 64-bit FNV-1a over the `Debug` rendering
/// of every rank's outcome.
fn pin_of(run: &TeamRun, outcomes: &[RankOutcome]) -> (u64, u64) {
    let digest = format!("{outcomes:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    (run.end_ns, digest)
}

/// Kill-k with strict survivor verification, and the whole recovery
/// path against its pin.
fn check_kill(
    pick: usize,
    p: usize,
    count: usize,
    root: usize,
    dead: &[(usize, u64)],
    seed: u64,
    pin: (u64, u64),
) {
    let deadset: Vec<usize> = dead.iter().map(|d| d.0).collect();
    let (run, res) = run_kill(pick, p, count, root, dead.to_vec(), seed);
    assert_kill_outcomes(pick, p, count, root, &deadset, seed, &res);
    assert_eq!(
        pin_of(&run, &res),
        pin,
        "{} seed={seed} dead={deadset:?}: the recovery path moved",
        PICK_NAMES[pick]
    );
}

/// Relaxed postcondition for kills landing at *arbitrary* virtual
/// times — possibly inside the membership agreement itself, inside a
/// shrink re-execution, or even after the victim's last own operation
/// (in which case nobody observes the death and the run stays clean).
///
/// Pinned here, for any kill point:
///  * every completing rank reports the *same* agreed membership — no
///    split-brain;
///  * a failing rank is either genuinely killed or *consistently
///    exiled*: unanimously dropped from every completer's agreed group
///    and handed a typed membership error itself. A kill landing
///    mid-agreement can cost a live straggler both refutation windows
///    (it is burning dead-slot timeouts while everyone else votes);
///    ULFM semantics permit that exile as long as it is unanimous and
///    typed — what is *never* permitted is a rank completing while the
///    group thinks it left, or two survivors disagreeing on the group;
///  * a killed rank may complete only by staying in the agreed group
///    (it died strictly after its last own operation);
///  * every completing rank's payload is exactly the collective's
///    result over the agreed group — never torn, never stale.
///
/// Returns the observed-dead set so sweeps can check which recovery
/// window a kill point actually landed in.
#[allow(clippy::too_many_arguments)]
fn assert_anywhere_outcomes(
    pick: usize,
    p: usize,
    count: usize,
    root: usize,
    deadset: &[usize],
    seed: u64,
    results: &[RankOutcome],
) -> Vec<usize> {
    let ctx_of = |r: usize| {
        format!(
            "{} seed={seed} p={p} count={count} root={root} dead={deadset:?} rank {r}",
            PICK_NAMES[pick]
        )
    };
    let mut agreed: Option<&Vec<usize>> = None;
    for (r, res) in results.iter().enumerate() {
        if let Ok((members, ..)) = res {
            match agreed {
                None => agreed = Some(members),
                Some(m) => assert_eq!(members, m, "{}: membership split-brain", ctx_of(r)),
            }
        }
    }
    let members = agreed.expect("the live ranks must complete");
    let observed_dead: Vec<usize> = (0..p).filter(|r| !members.contains(r)).collect();
    for (r, res) in results.iter().enumerate() {
        if let Err(msg) = res {
            // A failing rank was either killed or consistently exiled:
            // out of *every* completer's agreed group AND handed a
            // typed error. A failure outside both sets would be a live
            // rank dying for no agreed reason.
            assert!(
                deadset.contains(&r) || observed_dead.contains(&r),
                "{}: live rank failed without being exiled: {msg}",
                ctx_of(r)
            );
            assert_dead_typed(msg, &ctx_of(r));
        }
    }
    for &d in &observed_dead {
        // Dropped ranks were killed, or (false suspicion under extreme
        // skew) live but failed with a typed error — never silently
        // dropped while appearing to succeed.
        assert!(
            deadset.contains(&d) || results[d].is_err(),
            "rank {d} dropped from the group but completed as if live"
        );
    }
    for (r, res) in results.iter().enumerate() {
        if let Ok((ms, mrep, _, payload)) = res {
            let ctx = ctx_of(r);
            assert!(
                ms.contains(&r),
                "{ctx}: completed while outside the agreed group"
            );
            assert_eq!(
                mrep.dead_mask,
                mask_of(&observed_dead),
                "{ctx}: wrong agreed dead mask"
            );
            if observed_dead.is_empty() {
                assert!(
                    mrep.is_clean(),
                    "{ctx}: nobody observed a death, yet the run is dirty: {mrep:?}"
                );
            } else {
                assert!(
                    mrep.epochs >= 1 && mrep.reexecs >= 1,
                    "{ctx}: an observed death must shrink and re-execute, got {mrep:?}"
                );
            }
            let idx = ms.iter().position(|&m| m == r).expect("rank in members");
            let want = expected_survivor(pick, idx, ms, p, count, root);
            assert!(
                payload.len() >= want.len(),
                "{ctx}: payload shorter than the agreed-group result"
            );
            if let Some(d) = diff(&payload[..want.len()], &want) {
                panic!("{ctx}: {d}");
            }
        }
    }
    observed_dead
}

/// Kill-anywhere with relaxed per-rank verification, returning the
/// observed-dead set; the run must match `pin` when one is given.
fn check_anywhere(
    pick: usize,
    p: usize,
    count: usize,
    root: usize,
    dead: &[(usize, u64)],
    seed: u64,
    pin: Option<(u64, u64)>,
) -> Vec<usize> {
    let deadset: Vec<usize> = dead.iter().map(|d| d.0).collect();
    let (run, res) = run_kill(pick, p, count, root, dead.to_vec(), seed);
    let observed = assert_anywhere_outcomes(pick, p, count, root, &deadset, seed, &res);
    if let Some(pin) = pin {
        assert_eq!(
            pin_of(&run, &res),
            pin,
            "{} seed={seed} dead={dead:?}: the recovery path moved",
            PICK_NAMES[pick]
        );
    }
    observed
}

// ---- 1. Kill-k completes over the survivors -------------------------------

#[test]
fn membership_kill_one_all_collectives() {
    // `(end_ns, outcome digest)` per collective.
    let pins = [
        (6822019, 0xe5c6_a6ec_b88e_7034),
        (4818349, 0xc9ac_a8cb_5b5f_dd36),
        (6817271, 0x2866_8eb5_78df_e53a),
        (6822101, 0xc234_fd3a_b1ad_dd8d),
        (6831288, 0x6edf_90ba_be80_a202),
        (6821872, 0x9bd0_392f_4a49_a854),
    ];
    for (pick, pin) in pins.into_iter().enumerate() {
        // Rank 5 dies after a few ops; root 2 survives.
        check_kill(pick, 8, 256, 2, &[(5, 3)], 1, pin);
    }
}

#[test]
fn membership_kill_one_moves_payloads_of_several_pages() {
    // Each block spans whole pages plus a tail, so the simulated heap
    // shares runs between buffers instead of copying bytes; the shrunken
    // re-execution lands in parent buffers the torn epoch partly filled,
    // where a stale shared run would show in the survivors' bytes.
    let count = 3 * 4096 + 8;
    for pick in 0..6 {
        let (_, res) = run_kill(pick, 8, count, 2, vec![(5, 3)], 1);
        assert_kill_outcomes(pick, 8, count, 2, &[5], 1, &res);
    }
}

#[test]
fn membership_kill_one_immediately() {
    for &seed in &seed_corpus() {
        for pick in 0..6 {
            let (_, res) = run_kill(pick, 8, 256, 0, vec![(6, 0)], seed);
            assert_kill_outcomes(pick, 8, 256, 0, &[6], seed, &res);
        }
    }
}

#[test]
fn membership_kill_two_all_collectives() {
    for pick in 0..6 {
        // Two ranks die at different points; quorum (6/8) holds.
        let dead = vec![(3, 2), (7, 5)];
        let (_, res) = run_kill(pick, 8, 256, 0, dead, 0xC0FFEE);
        assert_kill_outcomes(pick, 8, 256, 0, &[3, 7], 0xC0FFEE, &res);
    }
}

// ---- 2. Dead roots and lost quorums fail typed on every rank --------------

#[test]
fn membership_dead_root_fails_typed_everywhere() {
    for pick in [0usize, 1, 2, 5] {
        let (_, res) = run_kill(pick, 8, 256, 4, vec![(4, 0)], 7);
        for (r, out) in res.iter().enumerate() {
            let ctx = format!("{} dead-root rank {r}", PICK_NAMES[pick]);
            let msg = out
                .as_ref()
                .err()
                .unwrap_or_else(|| panic!("{ctx}: no rank may complete without the root"));
            assert_dead_typed(msg, &ctx);
        }
    }
}

#[test]
fn membership_quorum_loss_is_a_typed_protocol_error() {
    // p = 4, two dead: 2 survivors cannot hold a majority of 4.
    let (_, res) = run_kill(3, 4, 256, 0, vec![(1, 0), (3, 0)], 11);
    for (r, out) in res.iter().enumerate() {
        let msg = out
            .as_ref()
            .err()
            .unwrap_or_else(|| panic!("rank {r}: completed without quorum"));
        if r == 0 || r == 2 {
            assert!(
                msg.contains("quorum"),
                "survivor {r}: expected a quorum error, got {msg}"
            );
        } else {
            assert_dead_typed(msg, &format!("dead rank {r}"));
        }
    }
}

// ---- 3. Determinism: same seed, same run, bitwise ------------------------

#[test]
fn membership_recovery_is_deterministic_per_seed() {
    for &seed in &seed_corpus()[..2] {
        let a = run_kill(3, 8, 512, 0, vec![(5, 3)], seed);
        let b = run_kill(3, 8, 512, 0, vec![(5, 3)], seed);
        assert_eq!(a.0.end_ns, b.0.end_ns, "seed={seed}: end time drifted");
        assert_eq!(
            a.0.finish_ns, b.0.finish_ns,
            "seed={seed}: finish times drifted"
        );
        assert_eq!(a.1, b.1, "seed={seed}: outcomes drifted");
    }
}

// ---- 4. Zero cost when clean ---------------------------------------------

#[test]
fn membership_fault_free_is_clean() {
    let p = 8;
    let count = 256;
    let all: Vec<usize> = (0..p).collect();
    // `(end_ns, outcome digest)` per collective.
    let pins = [
        (7419, 0x5127_bef6_97c0_52cd),
        (4504, 0x322b_eb64_8eaa_cec9),
        (6558, 0xf015_54a8_1605_eca0),
        (10945, 0x0f9b_f804_89c5_35f7),
        (12582, 0x8322_384a_df2d_ddfc),
        (10623, 0x64bb_1bc0_3845_d93e),
    ];
    for (pick, pin) in pins.into_iter().enumerate() {
        let (run, res) = run_kill(pick, p, count, 1, vec![], 0);
        for (r, out) in res.iter().enumerate() {
            let (members, mrep, recovery_clean, payload) = out
                .as_ref()
                .unwrap_or_else(|e| panic!("sim rank {r} pick {pick}: {e}"));
            assert_eq!(members, &all, "rank {r}: fault-free run shrank");
            assert!(mrep.is_clean(), "rank {r}: dirty membership {mrep:?}");
            assert!(*recovery_clean, "rank {r}: dirty recovery report");
            let want = expected_survivor(pick, r, &all, p, count, 1);
            if let Some(d) = diff(&payload[..want.len()], &want) {
                panic!("rank {r} pick {pick}: {d}");
            }
        }
        assert_eq!(pin_of(&run, &res), pin, "pick {pick}: the clean run moved");
    }
}

#[test]
fn membership_fault_free_native_threads_smoke() {
    // Wall-clock engine: only the fault-free path is timing-safe to pin.
    let p = 4;
    let count = 128;
    let all: Vec<usize> = (0..p).collect();
    // `survivable()`'s 200 µs liveness timeout is virtual time; here it is
    // measured on the wall clock, where a rank thread that loses its CPU
    // to the rest of the suite for that long would be declared dead.
    let policy = RecoveryPolicy {
        membership: MembershipPolicy {
            liveness_timeout_ns: 2_000_000_000,
            ..MembershipPolicy::survivable()
        },
        ..RecoveryPolicy::survivable()
    };
    for pick in 0..6 {
        let results = run_threads(p, |comm| {
            block_on(survivable(&mut Blocking(comm), pick, count, 0, &policy))
        });
        for (r, out) in results.iter().enumerate() {
            let (members, mrep, _, payload) = out
                .as_ref()
                .unwrap_or_else(|e| panic!("native rank {r} pick {pick}: {e}"));
            assert_eq!(members, &all, "native rank {r} pick {pick}: shrank");
            assert!(mrep.is_clean(), "native rank {r} pick {pick}: {mrep:?}");
            let want = expected_survivor(pick, r, &all, p, count, 0);
            if let Some(d) = diff(&payload[..want.len()], &want) {
                panic!("native rank {r} pick {pick}: {d}");
            }
        }
    }
}

/// A survivable call takes the plain entries' argument check on its
/// epoch-0 key. An Allgather whose receive buffers hold one block
/// instead of `p` fails `OutOfRange` on every rank at virtual time 0,
/// before any message or CMA step — not part-way through its plan, with
/// the others waiting on the failed ranks until the watchdog and shrink
/// rounds end the call with some other error.
#[test]
fn membership_short_buffers_fail_before_any_traffic() {
    let (p, count) = (8, 256);
    let (run, res) = run_polled_team(&small_arch(), p, move |rank| async move {
        let comm = &mut PolledComm::new(rank);
        let sb = alloc_with(comm, &contribution(rank, count));
        let rb = comm.alloc(count);
        let policy = RecoveryPolicy::survivable();
        run_survivable_polled(comm, &op_for(3, count, 0), Some(sb), Some(rb), &policy)
            .await
            .map(drop)
    });
    for (r, out) in res.iter().enumerate() {
        assert!(
            matches!(out, Err(CommError::OutOfRange { len, cap, .. }) if *len == p * count && *cap == count),
            "rank {r}: {out:?}"
        );
    }
    assert_no_traffic(&run, "short allgather buffers");
}

/// A rank that leaves out the buffer its role needs fails with that
/// role's `Protocol` message at virtual time 0. Every rank of each call
/// leaves one out, so no rank runs a plan the others abandoned.
#[test]
fn membership_missing_buffers_fail_before_any_traffic() {
    let (p, count, root) = (4, 64, 1);
    // (op, root's (send, recv), its error, a leaf's (send, recv), its error)
    let cases = [
        (
            0,
            (false, true),
            "root scatter needs sendbuf",
            (true, false),
            "non-root scatter needs recvbuf",
        ),
        (
            1,
            (true, false),
            "root gather needs recvbuf",
            (false, true),
            "non-root gather needs sendbuf",
        ),
        (
            2,
            (false, true),
            "bcast binds its data buffer as send",
            (false, true),
            "bcast binds its data buffer as send",
        ),
        (
            5,
            (true, false),
            "root reduce needs recvbuf",
            (false, true),
            "reduce needs sendbuf",
        ),
    ];
    for (pick, root_binds, root_msg, leaf_binds, leaf_msg) in cases {
        let (run, res) = run_polled_team(&small_arch(), p, move |rank| async move {
            let comm = &mut PolledComm::new(rank);
            let (send, recv) = if rank == root { root_binds } else { leaf_binds };
            let send = send.then(|| comm.alloc(p * count));
            let recv = recv.then(|| comm.alloc(p * count));
            let policy = RecoveryPolicy::survivable();
            run_survivable_polled(comm, &op_for(pick, count, root), send, recv, &policy)
                .await
                .map(drop)
        });
        let what = PICK_NAMES[pick];
        for (r, out) in res.iter().enumerate() {
            let msg = if r == root { root_msg } else { leaf_msg };
            assert!(
                matches!(out, Err(CommError::Protocol(m)) if m == msg),
                "{what} rank {r}: {out:?}"
            );
        }
        assert_no_traffic(&run, what);
    }
}

/// A survivable Allgather's ring stride is checked against the whole
/// team before any traffic; the message names the caller's stride, not
/// the stride mod p.
#[test]
fn membership_bad_ring_stride_names_the_callers_stride() {
    let (p, count) = (8, 16);
    let (run, res) = run_polled_team(&small_arch(), p, move |rank| async move {
        let comm = &mut PolledComm::new(rank);
        let (sb, rb) = (comm.alloc(count), comm.alloc(p * count));
        let op = SurvivableOp::Allgather {
            algo: AllgatherAlgo::RingNeighbor { j: 10 },
            count,
        };
        let policy = RecoveryPolicy::survivable();
        run_survivable_polled(comm, &op, Some(sb), Some(rb), &policy)
            .await
            .map(drop)
    });
    let msg = "ring-neighbor stride 10 shares a factor with the 8 survivors";
    for (r, out) in res.iter().enumerate() {
        assert!(
            matches!(out, Err(CommError::Protocol(m)) if m == msg),
            "rank {r}: {out:?}"
        );
    }
    assert_no_traffic(&run, "bad ring stride");
}

/// No virtual time passed and nothing moved, on either plane.
fn assert_no_traffic(run: &TeamRun, what: &str) {
    assert_eq!(
        (run.end_ns, run.mail_pending),
        (0, 0),
        "{what}: time passed"
    );
    assert_eq!(run.total_stats(), Default::default(), "{what}: traffic");
}

// ---- 5. Property: any kill point, never a hang, never a panic -------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Killing any non-root rank at any point in any collective either
    /// completes every survivor over the agreed group with the exact
    /// shrunken payload, or fails typed — the simulator run always
    /// terminates (a hang would deadlock the virtual clock and fail the
    /// harness, not this assertion).
    #[test]
    fn membership_any_kill_point_terminates(
        seed in any::<u64>(),
        pick in 0usize..6,
        deadsel in 1usize..8,
        after in 0u64..12,
    ) {
        let p = 8;
        let root = 0;
        let dead = deadsel; // 1..8: never the root
        let (_, res) = run_kill(pick, p, 256, root, vec![(dead, after)], seed);
        assert_kill_outcomes(pick, p, 256, root, &[dead], seed, &res);
    }
}

// ---- 5b. Kill-anywhere: agreement and shrink re-exec windows --------------

/// Sweep rank 6's kill point over `band` with rank 5 dying early, on
/// every corpus seed: rank 5's death must always be observed, rank 6's
/// at some point of the band, and each run on a fixed seed must match
/// its `(end_ns, outcome digest)` pin (the same for every fixed seed).
fn sweep_second_kill(band: [(u64, (u64, u64)); 5], what: &str) {
    for &seed in &seed_corpus() {
        let mut saw_second = false;
        for (after, pin) in band {
            let pin = SEEDS.contains(&seed).then_some(pin);
            let observed = check_anywhere(3, 8, 256, 0, &[(5, 2), (6, after)], seed, pin);
            assert!(
                observed.contains(&5),
                "seed={seed} after={after}: first kill unobserved"
            );
            saw_second |= observed.contains(&6);
        }
        assert!(
            saw_second,
            "seed={seed}: no kill point in the {what} band was ever observed"
        );
    }
}

/// Rank 5 dies early (forcing detection and a membership agreement),
/// then rank 6's kill point is swept across the op-index band where
/// that agreement runs — the second failure lands inside the protocol
/// trying to agree on the first, exercising the fold-in-and-restart
/// path. Across the sweep at least one kill point must be observed
/// (both ranks dropped), proving the band reaches past the data plan.
#[test]
fn membership_kill_during_agreement() {
    sweep_second_kill(
        [
            (7, (11621339, 0x68f9_297b_b965_1139)),
            (9, (11621339, 0x68f9_297b_b965_1139)),
            (11, (11621339, 0x68f9_297b_b965_1139)),
            (14, (15221908, 0x04c4_cde3_3ab0_05ee)),
            (18, (14022257, 0xe128_03fd_a091_3b8b)),
        ],
        "agreement",
    );
}

/// Same shape, but rank 6 survives the first agreement and dies in the
/// band where the shrunken plan re-executes — a second failure during
/// recovery's re-execution must trigger a nested detect → agree →
/// shrink round, never a hang and never a torn payload.
#[test]
fn membership_kill_during_shrink_reexec() {
    sweep_second_kill(
        [
            (24, (14022255, 0x3725_432a_ea30_4487)),
            (30, (24424335, 0xd92c_754b_522a_74d0)),
            (36, (41234604, 0x6c84_b128_2bbd_0c22)),
            (44, (41233624, 0x7cc7_318f_11bd_9600)),
            (52, (25634787, 0x718a_75fe_bd38_1c0c)),
        ],
        "re-exec",
    );
}

// ---- 5c. Wide groups: past the old 64-rank mask ceiling -------------------

/// p = 128 exercises the multi-word `MemberMask` end to end: rank 100
/// (past the old single-word ceiling) dies mid-plan, and recovery must
/// agree, shrink, and re-execute onto the pinned recovery path.
#[test]
fn membership_kill_wide_group() {
    let pins = [
        (2, (50801818, 0x80de_6652_032e_7786)),
        (3, (434466626, 0xd755_d1fb_0f79_7e48)),
    ];
    for (pick, pin) in pins {
        check_kill(pick, 128, 64, 0, &[(100, 3)], 1, pin);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// At p = 128, killing any non-root rank at any virtual time never
    /// hangs the group and never yields a wrong payload: every
    /// completing rank agrees on one membership and carries that
    /// membership's exact bytes.
    #[test]
    fn membership_wide_group_any_kill_point_terminates(
        seed in any::<u64>(),
        dead in 1usize..128,
        after in 0u64..80,
        pick in 2usize..4,
    ) {
        let (_, res) = run_kill(pick, 128, 64, 0, vec![(dead, after)], seed);
        assert_anywhere_outcomes(pick, 128, 64, 0, &[dead], seed, &res);
    }
}

// ---- 6. Property: shrink remapping is a bijection with fresh tags ---------

/// Collect (peer, tag) references from every step of a schedule.
fn step_refs(s: &Schedule) -> Vec<(Option<usize>, Option<Tag>)> {
    s.steps
        .iter()
        .map(|st| match *st {
            Step::CtrlSend { to, tag, .. } => (Some(to), Some(tag)),
            Step::CtrlRecv { from, tag, .. } => (Some(from), Some(tag)),
            Step::Notify { to, tag } => (Some(to), Some(tag)),
            Step::WaitNotify { from, tag } => (Some(from), Some(tag)),
            Step::ShmSend { to, tag, .. } => (Some(to), Some(tag)),
            Step::ShmRecv { from, tag, .. } => (Some(from), Some(tag)),
            _ => (None, None),
        })
        .collect()
}

fn sub_of(tag: Tag) -> u32 {
    tag.0 & 0xFFFF
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// For any survivor subset and shrink epoch, the remapped plan (a)
    /// maps subgroup peers bijectively onto the survivor list, (b)
    /// keeps every tag's class, and (c) retags sub-tags into an
    /// epoch-unique namespace disjoint from every earlier epoch.
    #[test]
    fn shrink_remap_is_a_bijection_with_unique_tags(
        parent_p in 3usize..12,
        keep_seed in any::<u64>(),
        epoch in 1u32..=15,
        variant in 0usize..2,
        count_lanes in 1usize..8,
    ) {
        // Deterministically pick a survivor subset of size >= 2.
        let mut members: Vec<usize> = (0..parent_p)
            .filter(|&r| (keep_seed >> (r % 64)) & 1 == 0)
            .collect();
        if members.len() < 2 {
            members = vec![0, parent_p - 1];
        }
        let l = members.len();
        let count = count_lanes * 64;
        for (idx, &me) in members.iter().enumerate() {
            let sub = match variant {
                0 => compile_bcast(BcastAlgo::KNomial { radix: 2 }, l, idx, count, 0),
                _ => compile_allgather(AllgatherAlgo::Bruck, l, idx, count, true),
            };
            let remapped = remap_for_members(&sub, &members, epoch, parent_p);
            prop_assert_eq!(remapped.p, parent_p);
            prop_assert_eq!(remapped.rank, me);
            let before = step_refs(&sub);
            let after = step_refs(&remapped);
            prop_assert_eq!(before.len(), after.len());
            for ((bp, bt), (ap, at)) in before.iter().zip(after.iter()) {
                // (a) peers map through the survivor list — a bijection
                // since `members` is sorted and duplicate-free.
                prop_assert_eq!(*ap, bp.map(|q| members[q]));
                if let (Some(bt), Some(at)) = (bt, at) {
                    // (b) the tag class survives the retag.
                    prop_assert_eq!(at.class(), bt.class());
                    // (c) sub-tags move into the epoch's namespace:
                    // epoch e stamps bits 12.. with e, so two different
                    // epochs (and epoch 0, which never sets them) can
                    // never collide.
                    prop_assert_eq!(sub_of(*at), (epoch << 12) | sub_of(*bt));
                    prop_assert!(sub_of(*bt) < 0x1000);
                }
            }
            // (c) continued: the retagged set is disjoint from every
            // earlier epoch's set for the same plan shape.
            for earlier in 0..epoch {
                let prior = if earlier == 0 {
                    sub.clone()
                } else {
                    remap_for_members(&sub, &members, earlier, parent_p)
                };
                let prior_tags: std::collections::HashSet<u32> = step_refs(&prior)
                    .iter()
                    .filter_map(|(_, t)| t.map(|t| t.0))
                    .collect();
                for (_, t) in step_refs(&remapped) {
                    if let Some(t) = t {
                        prop_assert!(
                            !prior_tags.contains(&t.0),
                            "epoch {} tag {:#x} collides with epoch {}",
                            epoch, t.0, earlier
                        );
                    }
                }
            }
        }
    }
}
