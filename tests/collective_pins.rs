//! Golden pins for the six collectives on the simulated machine.
//!
//! The values were captured on the last commit that still had the
//! blocking simulator transport (`SimComm` on the thread kernel) and the
//! six legacy direct collective bodies. There the two engines agreed
//! bitwise on every engine point below, and the compiled schedules
//! reached the legacy bodies' virtual end time on every schedule case, so
//! these pins carry both guarantees forward. Each point stores the team's
//! `(end_ns, events)` and a 64-bit digest of every rank's finish time,
//! step accounting, `ScheduleReport` and payload bytes (and, for traced
//! points, of the Chrome trace). A change to the compiler, the executor,
//! the recovery ladder or the machine model under them that moves a
//! virtual nanosecond, an event, a byte or a trace record fails here.
//! The event counts, and the traced digests, were refreshed once since,
//! when a control send stopped costing its sender an event: every end
//! time and untraced digest stood, and the traced points' Chrome traces
//! were equal with the scheduler's dispatch instants filtered out.
//! Every point runs under the tracer, since a rank's phase times are
//! read back from its spans ([`pinned_stats`]); only the traced points'
//! digests cover the Chrome trace itself.

use kacc::collectives::verify::{alltoall_sendbuf, contribution, pat2, scatter_sendbuf};
use kacc::collectives::{
    allgather_polled, alltoall_polled, bcast_polled, gatherv_polled, reduce_polled,
    scatterv_polled, AllgatherAlgo, AlltoallAlgo, BcastAlgo, Dtype, GatherAlgo, ReduceAlgo,
    ReduceOp, ScatterAlgo, ScheduleReport,
};
use kacc::machine::{
    run_polled_team, run_polled_team_faulty_traced, run_polled_team_traced, PolledComm, TeamRun,
};
use kacc::model::ArchProfile;
use kacc::trace::{chrome_trace_json, Event, EventKind, Track};
use kacc_fault::{FaultHook, FaultKind, FaultOp, FaultPlan, FaultRule};

/// `(end_ns, events, digest)` of one simulated team run.
type Pin = (u64, u64, u64);

/// What one rank reports: the executor's accounting and its payload.
type RankOut = (Option<ScheduleReport>, Vec<u8>);

/// The node of the engine corpus and the fixed schedule cases.
fn equiv_arch() -> ArchProfile {
    let mut a = ArchProfile::broadwell();
    a.name = "EquivNode".into();
    a.cores_per_socket = 8;
    a
}

/// The node of the randomly drawn schedule cases.
fn case_arch() -> ArchProfile {
    let mut a = ArchProfile::broadwell();
    a.cores_per_socket = 4;
    a
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn pin_of(run: &TeamRun, outs: &[RankOut], trace: &[Event], traced: bool) -> Pin {
    let mut h = Fnv::new();
    for (r, (report, payload)) in outs.iter().enumerate() {
        let head = format!(
            "{} {} {report:?} {}",
            run.finish_ns[r],
            pinned_stats(run, trace, r),
            payload.len()
        );
        h.write(head.as_bytes());
        h.write(payload);
    }
    if traced {
        h.write(chrome_trace_json(trace).as_bytes());
    }
    (run.end_ns, run.events, h.0)
}

/// Rank `r`'s step accounting as `{:?}` printed it when the pins were
/// captured: `RankStats` then also carried the phase times, which are
/// the sums, in emission order, of the rank's phase spans in `trace`.
fn pinned_stats(run: &TeamRun, trace: &[Event], r: usize) -> String {
    let [sys, chk, lock, pin, copy] = ["syscall", "check", "lock", "pin", "copy"].map(|phase| {
        (trace.iter())
            .filter(|e| e.track == Track::Rank(r) && e.name == phase)
            .fold(0.0, |sum, e| match e.kind {
                EventKind::Span { dur, .. } => sum + dur,
                _ => sum,
            })
    });
    let s = &run.stats[r];
    format!(
        "RankStats {{ syscall_ns: {sys:?}, check_ns: {chk:?}, lock_ns: {lock:?}, \
         pin_ns: {pin:?}, copy_ns: {copy:?}, cma_ops: {}, bytes_read: {}, bytes_written: {} }}",
        s.cma_ops, s.bytes_read, s.bytes_written
    )
}

/// Pins that moved, reported together so one run names all of them.
#[derive(Default)]
struct Moved(Vec<String>);

impl Moved {
    fn check(&mut self, what: String, got: Pin, want: Pin) {
        if got != want {
            self.0.push(format!("{what}: want {want:?}, got {got:?}"));
        }
    }

    fn assert_none(self) {
        assert!(
            self.0.is_empty(),
            "{} pin(s) moved:\n{}",
            self.0.len(),
            self.0.join("\n")
        );
    }
}

// ---- The engine corpus: six collectives, clean, faulty and traced --------

const PICK_NAMES: [&str; 6] = [
    "scatter",
    "gather",
    "bcast",
    "allgather",
    "alltoall",
    "reduce",
];

/// The chaos suite's fixed seeds.
const SEEDS: [u64; 4] = [1, 0xC0FFEE, 0xDEAD_BEEF, 0x9E37_79B9_7F4A_7C15];

/// Short CMA transfers, bounded transient EAGAINs and small delays: the
/// recovery ladder takes every rung and still completes.
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

fn reduce_fill(rank: usize, lanes: usize) -> Vec<u8> {
    (0..lanes)
        .flat_map(|l| {
            (rank as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(l as u64 * 31)
                .to_le_bytes()
        })
        .collect()
}

/// Collective `pick` (0..6) with one fixed algorithm each.
async fn run_pick(comm: &mut PolledComm, pick: usize, count: usize, root: usize) -> RankOut {
    let p = comm.size();
    let me = comm.rank();
    match pick {
        0 => {
            let counts = vec![count; p];
            let sb =
                (me == root).then(|| comm.alloc_with(&scatter_sendbuf(p, count)).expect("alloc"));
            let rb = comm.alloc(count);
            let algo = ScatterAlgo::ThrottledRead { k: 2 };
            let rep = scatterv_polled(comm, algo, sb, Some(rb), &counts, None, root).await;
            (rep.expect("scatter"), comm.read_all(rb).expect("read"))
        }
        1 => {
            let counts = vec![count; p];
            let sb = comm.alloc_with(&contribution(me, count)).expect("alloc");
            let rb = (me == root).then(|| comm.alloc(p * count));
            let algo = GatherAlgo::ParallelWrite;
            let rep = gatherv_polled(comm, algo, Some(sb), rb, &counts, None, root).await;
            let payload = rb.map(|b| comm.read_all(b).expect("read"));
            (rep.expect("gather"), payload.unwrap_or_default())
        }
        2 => {
            let buf = if me == root {
                comm.alloc_with(&contribution(root, count)).expect("alloc")
            } else {
                comm.alloc(count)
            };
            let rep = bcast_polled(comm, BcastAlgo::KNomial { radix: 2 }, buf, count, root).await;
            (rep.expect("bcast"), comm.read_all(buf).expect("read"))
        }
        3 => {
            let sb = comm.alloc_with(&contribution(me, count)).expect("alloc");
            let rb = comm.alloc(p * count);
            let rep = allgather_polled(comm, AllgatherAlgo::Bruck, Some(sb), rb, count).await;
            (rep.expect("allgather"), comm.read_all(rb).expect("read"))
        }
        4 => {
            let sb = comm
                .alloc_with(&alltoall_sendbuf(me, p, count))
                .expect("alloc");
            let rb = comm.alloc(p * count);
            let rep = alltoall_polled(comm, AlltoallAlgo::Pairwise, Some(sb), rb, count).await;
            (rep.expect("alltoall"), comm.read_all(rb).expect("read"))
        }
        5 => reduce_rank(comm, ReduceAlgo::KNomialTree { radix: 2 }, count / 8, root).await,
        _ => unreachable!("pick out of range"),
    }
}

/// A `lanes`-lane u64 sum to `root`.
async fn reduce_rank(
    comm: &mut PolledComm,
    algo: ReduceAlgo,
    lanes: usize,
    root: usize,
) -> RankOut {
    let me = comm.rank();
    let sb = comm.alloc_with(&reduce_fill(me, lanes)).expect("alloc");
    let rb = (me == root).then(|| comm.alloc(lanes * 8));
    let (dtype, op) = (Dtype::U64, ReduceOp::Sum);
    let rep = reduce_polled(comm, algo, sb, rb, lanes * 8, dtype, op, root).await;
    let payload = rb.map(|b| comm.read_all(b).expect("read"));
    (rep.expect("reduce"), payload.unwrap_or_default())
}

#[test]
fn clean_runs_match_the_captured_engine_runs() {
    let mut moved = Moved::default();
    for (&(p, count, root), pins) in [(8, 4096, 2), (7, 1024, 0)].iter().zip(CLEAN) {
        for (pick, want) in pins.into_iter().enumerate() {
            let (run, outs, trace) =
                run_polled_team_traced(&equiv_arch(), p, move |rank| async move {
                    run_pick(&mut PolledComm::new(rank), pick, count, root).await
                });
            let what = format!("clean {} p={p} count={count}", PICK_NAMES[pick]);
            moved.check(what, pin_of(&run, &outs, &trace, false), want);
        }
    }
    moved.assert_none();
}

#[test]
fn faulty_runs_match_the_captured_engine_runs() {
    let (p, count, root) = (8, 1024, 2);
    let mut moved = Moved::default();
    for (seed, pins) in SEEDS.into_iter().zip(FAULTY) {
        for (pick, want) in pins.into_iter().enumerate() {
            let hook = recoverable_hook(seed);
            let (run, outs, trace) =
                run_polled_team_faulty_traced(&equiv_arch(), p, hook, move |rank| async move {
                    run_pick(&mut PolledComm::new(rank), pick, count, root).await
                });
            let what = format!("faulty {} seed={seed:#x}", PICK_NAMES[pick]);
            moved.check(what, pin_of(&run, &outs, &trace, false), want);
        }
    }
    moved.assert_none();
}

#[test]
fn traced_runs_match_the_captured_engine_runs() {
    let (p, count) = (6, 2048);
    let mut moved = Moved::default();
    for (pick, want) in TRACED_CLEAN.into_iter().enumerate() {
        let (run, outs, trace) = run_polled_team_traced(&equiv_arch(), p, move |rank| async move {
            run_pick(&mut PolledComm::new(rank), pick, count, 1).await
        });
        let what = format!("traced {}", PICK_NAMES[pick]);
        moved.check(what, pin_of(&run, &outs, &trace, true), want);
    }
    for (pick, want) in TRACED_FAULTY.into_iter().enumerate() {
        let hook = recoverable_hook(0xC0FFEE);
        let (run, outs, trace) =
            run_polled_team_faulty_traced(&equiv_arch(), p, hook, move |rank| async move {
                run_pick(&mut PolledComm::new(rank), pick, count, 0).await
            });
        let what = format!("faulty-traced {}", PICK_NAMES[pick]);
        moved.check(what, pin_of(&run, &outs, &trace, true), want);
    }
    moved.assert_none();
}

// ---- Schedule cases: the compiled plans at the legacy end times ----------

#[test]
fn scatterv_cases_match_the_captured_runs() {
    let mut moved = Moved::default();
    for (p, counts, root, algo, want) in SCATTERV {
        let (run, outs, trace) = run_polled_team_traced(&case_arch(), p, move |rank| async move {
            let comm = &mut PolledComm::new(rank);
            let total: usize = counts.iter().sum();
            let payload: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
            let sb = (rank == root).then(|| comm.alloc_with(&payload).expect("alloc"));
            let rb = comm.alloc(counts[rank]);
            let rep = scatterv_polled(comm, algo, sb, Some(rb), counts, None, root).await;
            (rep.expect("scatterv"), comm.read_all(rb).expect("read"))
        });
        let what = format!("scatterv {algo:?} p={p} counts={counts:?} root={root}");
        moved.check(what, pin_of(&run, &outs, &trace, false), want);
    }
    moved.assert_none();
}

#[test]
fn gatherv_cases_match_the_captured_runs() {
    let mut moved = Moved::default();
    for (p, counts, gap, root, algo, want) in GATHERV {
        let displs: Vec<usize> = counts
            .iter()
            .scan(0, |at, c| {
                let here = *at;
                *at += c + gap;
                Some(here)
            })
            .collect();
        let cap = displs[p - 1] + counts[p - 1] + gap;
        let (run, outs, trace) = run_polled_team_traced(&case_arch(), p, move |rank| {
            let displs = displs.clone();
            async move {
                let comm = &mut PolledComm::new(rank);
                let sb = comm
                    .alloc_with(&contribution(rank, counts[rank]))
                    .expect("alloc");
                let rb = (rank == root).then(|| comm.alloc(cap));
                let d = (gap > 0).then_some(displs.as_slice());
                let rep = gatherv_polled(comm, algo, Some(sb), rb, counts, d, root).await;
                let payload = rb.map(|b| comm.read_all(b).expect("read"));
                (rep.expect("gatherv"), payload.unwrap_or_default())
            }
        });
        let what = format!("gatherv {algo:?} p={p} counts={counts:?} gap={gap} root={root}");
        moved.check(what, pin_of(&run, &outs, &trace, false), want);
    }
    moved.assert_none();
}

#[test]
fn bcast_cases_match_the_captured_runs() {
    let mut moved = Moved::default();
    for (p, count, root, algo, want) in BCAST {
        let (run, outs, trace) = run_polled_team_traced(&case_arch(), p, move |rank| async move {
            let comm = &mut PolledComm::new(rank);
            let init: Vec<u8> = if rank == root {
                (0..count).map(|i| pat2(root, i)).collect()
            } else {
                vec![0; count]
            };
            let buf = comm.alloc_with(&init).expect("alloc");
            let rep = bcast_polled(comm, algo, buf, count, root).await;
            (rep.expect("bcast"), comm.read_all(buf).expect("read"))
        });
        let what = format!("bcast {algo:?} p={p} count={count} root={root}");
        moved.check(what, pin_of(&run, &outs, &trace, false), want);
    }
    moved.assert_none();
}

#[test]
fn allgather_cases_match_the_captured_runs() {
    let mut moved = Moved::default();
    for (p, count, in_place, j, pins) in ALLGATHER {
        let algos = [
            AllgatherAlgo::RingNeighbor { j },
            AllgatherAlgo::RingSourceRead,
            AllgatherAlgo::RingSourceWrite,
            AllgatherAlgo::RecursiveDoubling,
            AllgatherAlgo::Bruck,
        ];
        for (algo, want) in algos.into_iter().zip(pins) {
            let (run, outs, trace) =
                run_polled_team_traced(&case_arch(), p, move |rank| async move {
                    let comm = &mut PolledComm::new(rank);
                    let mine = contribution(rank, count);
                    let (sb, rb) = if in_place {
                        let mut init = vec![0u8; p * count];
                        init[rank * count..(rank + 1) * count].copy_from_slice(&mine);
                        (None, comm.alloc_with(&init).expect("alloc"))
                    } else {
                        let sb = comm.alloc_with(&mine).expect("alloc");
                        (Some(sb), comm.alloc(p * count))
                    };
                    let rep = allgather_polled(comm, algo, sb, rb, count).await;
                    (rep.expect("allgather"), comm.read_all(rb).expect("read"))
                });
            let what = format!("allgather {algo:?} p={p} count={count} in_place={in_place}");
            moved.check(what, pin_of(&run, &outs, &trace, false), want);
        }
    }
    moved.assert_none();
}

#[test]
fn fixed_cases_match_the_captured_runs() {
    let mut moved = Moved::default();
    for (p, algo, want) in ALLTOALL {
        let count = 96;
        let (run, outs, trace) = run_polled_team_traced(&equiv_arch(), p, move |rank| async move {
            let comm = &mut PolledComm::new(rank);
            let sb = comm
                .alloc_with(&alltoall_sendbuf(rank, p, count))
                .expect("alloc");
            let rb = comm.alloc(p * count);
            let rep = alltoall_polled(comm, algo, Some(sb), rb, count).await;
            (rep.expect("alltoall"), comm.read_all(rb).expect("read"))
        });
        moved.check(
            format!("alltoall {algo:?} p={p}"),
            pin_of(&run, &outs, &trace, false),
            want,
        );
    }
    let (p, count) = (5, 64);
    let (run, outs, trace) = run_polled_team_traced(&equiv_arch(), p, move |rank| async move {
        let comm = &mut PolledComm::new(rank);
        let rb = comm
            .alloc_with(&alltoall_sendbuf(rank, p, count))
            .expect("alloc");
        let rep = alltoall_polled(comm, AlltoallAlgo::Pairwise, None, rb, count).await;
        (rep.expect("alltoall"), comm.read_all(rb).expect("read"))
    });
    moved.check(
        "alltoall in place".into(),
        pin_of(&run, &outs, &trace, false),
        ALLTOALL_IN_PLACE,
    );
    for (p, root, algo, want) in REDUCE {
        let (run, outs, trace) = run_polled_team_traced(&equiv_arch(), p, move |rank| async move {
            reduce_rank(&mut PolledComm::new(rank), algo, 129, root).await
        });
        let what = format!("reduce {algo:?} p={p} root={root}");
        moved.check(what, pin_of(&run, &outs, &trace, false), want);
    }
    for (algo, want) in SCATTER {
        let (p, count) = (7, 128);
        let (run, outs, trace) = run_polled_team_traced(&equiv_arch(), p, move |rank| async move {
            let comm = &mut PolledComm::new(rank);
            let counts = vec![count; p];
            let sb =
                (rank == 0).then(|| comm.alloc_with(&scatter_sendbuf(p, count)).expect("alloc"));
            let rb = comm.alloc(count);
            let rep = scatterv_polled(comm, algo, sb, Some(rb), &counts, None, 0).await;
            (rep.expect("scatter"), comm.read_all(rb).expect("read"))
        });
        moved.check(
            format!("scatter {algo:?} p={p}"),
            pin_of(&run, &outs, &trace, false),
            want,
        );
    }
    moved.assert_none();
}

/// The executor's `ScheduleReport` agrees with the simulator's own step
/// accounting. Parallel-read scatter on 6 ranks: every non-root rank
/// performs exactly one kernel-assisted read of its `count`-byte slice,
/// and the root performs none.
#[test]
fn schedule_report_matches_simulator_accounting() {
    let (p, count, root) = (6, 4096, 2);
    let (run, reports) = run_polled_team(&case_arch(), p, move |rank| async move {
        let comm = &mut PolledComm::new(rank);
        let sb =
            (rank == root).then(|| comm.alloc_with(&scatter_sendbuf(p, count)).expect("alloc"));
        let rb = comm.alloc(count);
        let counts = vec![count; p];
        let algo = ScatterAlgo::ParallelRead;
        scatterv_polled(comm, algo, sb, Some(rb), &counts, None, root)
            .await
            .expect("scatter")
            .expect("non-degenerate call must produce a report")
    });
    for (r, rep) in reports.iter().enumerate() {
        assert!(rep.steps > 0, "rank {r} executed an empty schedule");
        assert!(rep.total_ns > 0, "rank {r} spent no virtual time");
        if r == root {
            assert_eq!(
                rep.cma_read.count, 0,
                "root reads nothing in parallel-read scatter"
            );
            assert_eq!(
                run.stats[r].cma_ops, 0,
                "simulator saw a CMA op at the root"
            );
            assert_eq!(
                rep.copy_local.bytes, count as u64,
                "root self-copies its slice"
            );
        } else {
            assert_eq!(rep.cma_read.count, 1, "rank {r} must read exactly once");
            assert_eq!(
                rep.cma_read.count, run.stats[r].cma_ops,
                "rank {r} op count drifts"
            );
            assert_eq!(
                rep.cma_read.bytes, count as u64,
                "rank {r} read the wrong size"
            );
            assert_eq!(
                rep.cma_read.bytes, run.stats[r].bytes_read,
                "rank {r} byte count drifts"
            );
        }
    }
    assert_eq!(
        run.mail_pending, 0,
        "protocol left undelivered control messages"
    );
}

// ---- The pins ---------------------------------------------------------------
/// `[pick]` at `(p, count, root)` = (8, 4096, 2), then (7, 1024, 0).
#[rustfmt::skip]
const CLEAN: [[Pin; 6]; 2] = [
    [
        (11153, 45, 0x98886bea00130279), // scatter
        (5780, 49, 0x113100dda7a5489d), // gather
        (9401, 44, 0x9a658461cc835fd7), // bcast
        (64723, 236, 0x59c99231efe817a5), // allgather
        (38615, 240, 0xbeb0dbb831692bcf), // alltoall
        (27710, 59, 0x4e275aace7b2034e), // reduce
    ],
    [
        (5652, 39, 0x507ce0e09c10af59), // scatter
        (3140, 43, 0x6ac3ad174581a048), // gather
        (6082, 38, 0x82180449ef33ab08), // bcast
        (17175, 200, 0xdfdb55235b0c33c8), // allgather
        (13968, 189, 0x4d2ae4b1eeecd646), // alltoall
        (10827, 51, 0x790ab51340f04e5b), // reduce
    ],
];

/// `[seed][pick]` at `(p, count, root)` = (8, 1024, 2), `SEEDS` order.
#[rustfmt::skip]
const FAULTY: [[Pin; 6]; 4] = [
    [
        (7190, 47, 0xb618ace21d6772f1), // scatter
        (4919, 49, 0xbc43a8d0458625c8), // gather
        (7080, 49, 0x98e894c06324a980), // bcast
        (23012, 318, 0x2f37a7b53140fcf2), // allgather
        (18473, 289, 0xb3bdf36758f7e798), // alltoall
        (15788, 62, 0x9d001ae6a0486cf9), // reduce
    ],
    [
        (10970, 54, 0xaa38444e9475b312), // scatter
        (5809, 57, 0x73e5001fc76c25ad), // gather
        (11249, 55, 0x8549fb147be8defc), // bcast
        (21447, 316, 0xbfaf769d67fe593d), // allgather
        (19366, 298, 0x8358c60775fd3a9c), // alltoall
        (17569, 70, 0xd0b5556b6ac81210), // reduce
    ],
    [
        (8589, 48, 0x3eb2fd56610335f9), // scatter
        (4654, 55, 0xa267d76bcf955aa2), // gather
        (8149, 51, 0x849792b2521f70e8), // bcast
        (25295, 320, 0x9bf554b00c4c3d07), // allgather
        (21912, 310, 0xfc34528201afcaf3), // alltoall
        (16974, 64, 0x0daca717a1b6d14b), // reduce
    ],
    [
        (8789, 52, 0x6d3abf9c75fbf604), // scatter
        (5315, 57, 0x5bbd1fcfc117c797), // gather
        (7959, 53, 0xb553c529d6fd746a), // bcast
        (23401, 321, 0x52b9d0e1fe7c2ac4), // allgather
        (20596, 310, 0x0ed8c58d4d906206), // alltoall
        (15088, 65, 0x874a1cbd3e5e3138), // reduce
    ],
];

/// `[pick]` at `(p, count, root)` = (6, 2048, 1), traced.
#[rustfmt::skip]
const TRACED_CLEAN: [Pin; 6] = [
    (6458, 33, 0xb838f3494d5e3d9d), // scatter
    (3387, 37, 0x1fd6184fe25e491e), // gather
    (7068, 31, 0xaa044475b3913245), // bcast
    (22400, 166, 0xb94f748dab232eb8), // allgather
    (15486, 144, 0xe5fb87c927863378), // alltoall
    (14696, 43, 0x207379563b61ddce), // reduce
];

/// `[pick]` at `(p, count, root)` = (6, 2048, 0), traced, seed 0xC0FFEE.
#[rustfmt::skip]
const TRACED_FAULTY: [Pin; 6] = [
    (9149, 50, 0xa49202610139e573), // scatter
    (6991, 52, 0x087a8a89eb41103a), // gather
    (10640, 39, 0xe983cb31ed1b74da), // bcast
    (23772, 213, 0x3fdbe361e29971a6), // allgather
    (18966, 184, 0x6818aa546a5e094c), // alltoall
    (14696, 44, 0xbbacb2cb004edfe9), // reduce
];

/// `(p, counts, root, algo, pin)`: payload byte `i` is `i % 251`.
#[rustfmt::skip]
const SCATTERV: [(usize, &[usize], usize, ScatterAlgo, Pin); 12] = [
    (2, &[138, 460], 0, ScatterAlgo::ThrottledRead { k: 2 }, (1844, 9, 0x832ef6b89649d908)),
    (6, &[7, 428, 173, 234, 192, 4], 4, ScatterAlgo::ThrottledRead { k: 6 }, (2328, 35, 0x173acfe963af83aa)),
    (4, &[66, 52, 467, 150], 0, ScatterAlgo::ParallelRead, (2448, 21, 0xb042895d3ee3be67)),
    (2, &[64, 219], 0, ScatterAlgo::ThrottledRead { k: 1 }, (1766, 9, 0x6d36f98eac2d523b)),
    (6, &[47, 231, 417, 445, 511, 484], 5, ScatterAlgo::ThrottledRead { k: 6 }, (2402, 36, 0x7c83f9fb0dbab80d)),
    (2, &[584, 387], 1, ScatterAlgo::ThrottledRead { k: 4 }, (1884, 9, 0xd9d76003484ba5f4)),
    (2, &[500, 98], 1, ScatterAlgo::ThrottledRead { k: 1 }, (1857, 9, 0x5cec47adb1dc46b2)),
    (6, &[473, 380, 269, 145, 556, 89], 0, ScatterAlgo::ParallelRead, (2601, 36, 0xf5a3aff4e9cfeb42)),
    (3, &[115, 420, 228], 0, ScatterAlgo::ThrottledRead { k: 2 }, (1883, 16, 0x7290d69d50b4ff70)),
    (2, &[290, 442], 0, ScatterAlgo::ThrottledRead { k: 7 }, (1838, 9, 0xbe1a0bf08aa24e67)),
    (2, &[312, 74], 0, ScatterAlgo::ParallelRead, (1721, 9, 0xf3a88a48832a5549)),
    (6, &[221, 176, 184, 432, 180, 105], 3, ScatterAlgo::ParallelRead, (2598, 36, 0xf928d687e6c909be)),
];

/// `(p, counts, gap, root, algo, pin)`: with a gap, slice `r` lands at
/// `Σ_{q<r} (counts[q] + gap)`; without one, packed.
type GathervCase = (usize, &'static [usize], usize, usize, GatherAlgo, Pin);

#[rustfmt::skip]
const GATHERV: [GathervCase; 12] = [
    (6, &[496, 38, 538, 486, 156, 512], 2, 4, GatherAlgo::ThrottledWrite { k: 1 }, (8075, 33, 0xd4ac468d98fd0081)),
    (4, &[318, 181, 312, 516], 2, 3, GatherAlgo::SequentialRead, (5014, 20, 0x3f63013ebf648987)),
    (5, &[301, 280, 597, 194, 395], 2, 2, GatherAlgo::SequentialRead, (6285, 25, 0xd048e05dad36e700)),
    (3, &[259, 498, 479], 0, 0, GatherAlgo::ParallelWrite, (1966, 16, 0xbee1071be1a28351)),
    (6, &[473, 133, 119, 421, 244, 204], 2, 5, GatherAlgo::ThrottledWrite { k: 4 }, (3363, 36, 0xcb668e3ab5d21e23)),
    (5, &[534, 214, 112, 145, 27], 0, 4, GatherAlgo::SequentialRead, (6105, 25, 0x105eb6348202fb38)),
    (3, &[459, 435, 591], 2, 0, GatherAlgo::ParallelWrite, (2002, 16, 0xe5c502abd4bdfec1)),
    (4, &[43, 34, 233, 468], 0, 3, GatherAlgo::ThrottledWrite { k: 1 }, (4576, 21, 0x5d259688e15aa899)),
    (4, &[521, 392, 14, 65], 2, 2, GatherAlgo::SequentialRead, (4906, 20, 0x50b77edfd2f0b06b)),
    (4, &[142, 143, 345, 329], 2, 1, GatherAlgo::SequentialRead, (4896, 20, 0xcf8854f229015603)),
    (5, &[406, 75, 259, 424, 391], 2, 0, GatherAlgo::ThrottledWrite { k: 7 }, (2332, 30, 0x0271023236e0d7c0)),
    (6, &[95, 110, 262, 106, 263, 188], 1, 0, GatherAlgo::SequentialRead, (7231, 31, 0xd5f4a98db01ff8f1)),
];

/// `(p, count, root, algo, pin)`.
#[rustfmt::skip]
const BCAST: [(usize, usize, usize, BcastAlgo, Pin); 12] = [
    (6, 1116, 4, BcastAlgo::DirectRead, (3292, 36, 0x9e7b1160de7399ca)),
    (5, 3284, 1, BcastAlgo::DirectWrite, (10232, 24, 0x90f2a4ca79a0cb99)),
    (2, 1262, 1, BcastAlgo::ScatterAllgather, (3496, 13, 0x5019ecad3099652c)),
    (6, 2862, 0, BcastAlgo::KNomial { radix: 5 }, (6421, 35, 0x85e7173c76fc0997)),
    (2, 3747, 1, BcastAlgo::ScatterAllgather, (4298, 13, 0x83abb3c1c46e728d)),
    (5, 416, 1, BcastAlgo::ScatterAllgather, (11998, 111, 0xb3b4bb22be27421c)),
    (2, 3958, 0, BcastAlgo::DirectWrite, (2975, 7, 0xcea34f3840175f38)),
    (5, 2772, 0, BcastAlgo::DirectWrite, (9522, 24, 0xd0a958d6f2215926)),
    (3, 206, 2, BcastAlgo::DirectWrite, (3012, 12, 0x7e80c0e123ef9af4)),
    (6, 694, 2, BcastAlgo::DirectWrite, (8110, 30, 0x2f1b4526289ccc37)),
    (3, 793, 2, BcastAlgo::DirectRead, (2067, 14, 0x33b60dd082ced4e1)),
    (6, 348, 1, BcastAlgo::DirectRead, (2668, 34, 0x4eda86a21fe441ca)),
];

/// `(p, count, in_place, j, pins)`: one pin per algorithm, in the order
/// `RingNeighbor { j }`, `RingSourceRead`, `RingSourceWrite`,
/// `RecursiveDoubling`, `Bruck`.
#[rustfmt::skip]
const ALLGATHER: [(usize, usize, bool, usize, [Pin; 5]); 12] = [
    (5, 1880, false, 1, [
        (14289, 125, 0x5621b0551a01ce58),
        (13089, 106, 0xcb975a7d2aba4129),
        (13089, 106, 0x1390fd55dc848aa1),
        (18181, 116, 0xedb902ca333145f3),
        (18123, 134, 0x49eca353d9cfd631),
    ]),
    (5, 1383, false, 2, [
        (12465, 125, 0x34cd9547a7268831),
        (11265, 106, 0x21d508262b932c60),
        (11265, 106, 0x1fa0c7be1cac7ca8),
        (16063, 116, 0xacacf7e6bd23f6c5),
        (14920, 134, 0x93c9623012a3179b),
    ]),
    (4, 1701, true, 1, [
        (7662, 71, 0x1de48d01d500718d),
        (6762, 59, 0xcc116f94292f35dd),
        (6762, 59, 0x2e91ff5ad532486d),
        (7364, 67, 0xb8e3283f0bf64365),
        (10052, 79, 0xaea436b147a17d91),
    ]),
    (3, 1415, true, 2, [
        (4940, 41, 0x6c3b2ecf6d453bdb),
        (4340, 35, 0x57fe49191ba06c09),
        (4340, 35, 0x3d187d2a2ea048e9),
        (6465, 39, 0x3d69434ed732125a),
        (6828, 57, 0xaec5bdefb0cf5a45),
    ]),
    (4, 1742, true, 1, [
        (7719, 71, 0xcef1baa0541e40f5),
        (6819, 59, 0x0658a3d8848c24a5),
        (6819, 59, 0x74a57fbaeb13a065),
        (7421, 67, 0x3e89d4f644b98d45),
        (10203, 79, 0x151aa42321db8ed5),
    ]),
    (5, 399, true, 3, [
        (8636, 119, 0x5b58568b9d79dd2c),
        (7436, 100, 0x47c5a40b4953de63),
        (7436, 100, 0x0c10f3b65ae1a791),
        (11654, 110, 0xdb859ca85da25946),
        (8577, 134, 0xdaebf7cb3c579067),
    ]),
    (4, 830, false, 3, [
        (6870, 76, 0x611dc8fa4d8e7ae5),
        (5970, 64, 0xc1173c2277e3551d),
        (5970, 64, 0x9b98c781dfffacbd),
        (6572, 72, 0xa5799f33997d0de5),
        (6956, 79, 0xf518ca1666906965),
    ]),
    (6, 1913, true, 5, [
        (17295, 167, 0xfdd2408eb3dd49e5),
        (17070, 139, 0xc40eaade56b3e4b5),
        (17070, 139, 0x5071c13a810e0dd5),
        (19747, 155, 0xf1d931565cc7c09d),
        (25147, 166, 0xefe68891ff53f4c7),
    ]),
    (3, 370, false, 1, [
        (4368, 45, 0xcba7f1645042dea2),
        (3768, 39, 0x9de913b47d3c132e),
        (3768, 39, 0x4b8b89ba1a5230b6),
        (5572, 42, 0x2008583fd997db95),
        (4740, 57, 0x0bcbd8bb1d7d29ae),
    ]),
    (6, 1193, false, 5, [
        (14891, 174, 0xe6fdeefb3121c6fd),
        (14186, 146, 0xa81548c23e899fcd),
        (14186, 146, 0x36386f117fed600d),
        (16863, 162, 0x07a9aa46e7bd2c8a),
        (17947, 166, 0xecbfa5ccd4d43e2d),
    ]),
    (6, 587, true, 1, [
        (11400, 172, 0x4d0f6efb3f53b7ab),
        (10293, 139, 0x6177c043d0bf1b4d),
        (10293, 139, 0xcc8e777a5e0444d9),
        (13044, 155, 0xa5ac1cfa0764c2b5),
        (11886, 166, 0xa74726d3b597141f),
    ]),
    (6, 126, true, 1, [
        (9350, 172, 0x073d6aaf3f6658d3),
        (7934, 139, 0x50869d1e59d1b05d),
        (7934, 139, 0x4b2b0507800c26d9),
        (10845, 157, 0xda7be62f5f6da7a1),
        (7270, 166, 0x33dd441658831faf),
    ]),
];

/// `(p, algo, pin)` at 96 bytes per block.
#[rustfmt::skip]
const ALLTOALL: [(usize, AlltoallAlgo, Pin); 9] = [
    (4, AlltoallAlgo::Pairwise, (4666, 64, 0x8bc5d8bbc33dcfd1)),
    (4, AlltoallAlgo::PairwiseWrite, (4666, 64, 0xde14b90c1dc635c1)),
    (4, AlltoallAlgo::Bruck, (8672, 164, 0xe968f3a95bb3da27)),
    (6, AlltoallAlgo::Pairwise, (7674, 144, 0x98947d18871fa1cd)),
    (6, AlltoallAlgo::PairwiseWrite, (7674, 144, 0xb2f6bf6019421b25)),
    (6, AlltoallAlgo::Bruck, (16534, 416, 0xca1049a1c4ab70ab)),
    (8, AlltoallAlgo::Pairwise, (10175, 240, 0x5ed5effa842a43dd)),
    (8, AlltoallAlgo::PairwiseWrite, (10175, 240, 0xe19c4daa61ad2f2d)),
    (8, AlltoallAlgo::Bruck, (23777, 752, 0xd202956fe4a723e1)),
];

/// Pairwise in place, p = 5, 64 bytes per block.
const ALLTOALL_IN_PLACE: Pin = (6550, 111, 0xe8978c0e893e8936);

/// `(p, root, algo, pin)`: a 129-lane u64 sum.
#[rustfmt::skip]
const REDUCE: [(usize, usize, ReduceAlgo, Pin); 9] = [
    (4, 0, ReduceAlgo::SequentialRead, (6081, 22, 0x9124358be565bdd9)),
    (4, 0, ReduceAlgo::KNomialTree { radix: 2 }, (6817, 27, 0x375d91ee4ae9bc4f)),
    (4, 0, ReduceAlgo::KNomialTree { radix: 3 }, (6512, 27, 0xe1b87aef1fb67185)),
    (7, 0, ReduceAlgo::SequentialRead, (11619, 43, 0x899ee41f35f2e554)),
    (7, 0, ReduceAlgo::KNomialTree { radix: 2 }, (10853, 51, 0x15ac603991ffb52d)),
    (7, 0, ReduceAlgo::KNomialTree { radix: 3 }, (10853, 51, 0x1a70255a3ccae642)),
    (8, 3, ReduceAlgo::SequentialRead, (13465, 50, 0xb0397bb00defcde6)),
    (8, 3, ReduceAlgo::KNomialTree { radix: 2 }, (13119, 59, 0xe334d6ad001a7123)),
    (8, 3, ReduceAlgo::KNomialTree { radix: 3 }, (12814, 59, 0x4f013fade14ca2ee)),
];

/// `(algo, pin)` at p = 7, 128 bytes, root 0.
#[rustfmt::skip]
const SCATTER: [(ScatterAlgo, Pin); 3] = [
    (ScatterAlgo::ParallelRead, (2806, 42, 0xe5a716b89f08c506)),
    (ScatterAlgo::SequentialWrite, (8337, 37, 0xc3197e7cd2661827)),
    (ScatterAlgo::ThrottledRead { k: 2 }, (4785, 39, 0x46c07450241cc984)),
];
