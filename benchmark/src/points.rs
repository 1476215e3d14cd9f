//! The four simulated workloads as fixed point lists, and the runner for
//! one point. A point is one simulated collective (or microbenchmark) on
//! one machine; its result is a virtual latency in ns. The seed moves
//! every message size by a few per cent, picks the kill victims of the
//! survivable workload and shuffles the execution order; the *set* of
//! (collective, algorithm, machine, p, nominal size) is the same for
//! every seed.

use crate::api::{
    cluster_gather, library_ns, predict, run_polled_machine_full, run_polled_team_phantom,
    run_survivable_polled, sm_barrier_polled, AllgatherAlgo, AlltoallAlgo, ArchProfile, BcastAlgo,
    Coll, FaultPlan, GatherAlgo, Library, MachineState, ModelParams, MultiNodeStrategy, PolledComm,
    RecoveryPolicy, ReduceAlgo, RemoteToken, ScatterAlgo, Tag, TeamRun,
};
use crate::cases::Case;
use crate::stats::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The names later issues cite; `BENCHMARK.json` must list exactly these.
#[cfg(test)]
pub const WORKLOADS: [&str; 5] = [
    "allgather_storm",
    "one_to_all",
    "survivable",
    "persona_sweep",
    "native_cma",
];

const KIB: usize = 1 << 10;
const MIB: usize = 1 << 20;

#[derive(Debug, Clone)]
pub enum Kind {
    /// One collective on the polled simulator with phantom buffers.
    Polled { case: Case },
    /// Fig 2/3: `p − 1` ranks read `eta` bytes from rank 0 at once.
    OneToAllRead { same_region: bool },
    /// `run_survivable_polled` under seeded silent kills `(rank, after)`.
    /// `clean` is the id of the same operation with no kill.
    Survivable {
        case: Case,
        kills: Vec<(usize, u64)>,
        clean: Option<usize>,
    },
    /// A library persona through `measure::library_ns`.
    Persona { coll: Coll, lib: Library },
    /// Two-level gather over `nodes` nodes of `p` ranks each.
    Netsim { nodes: usize },
}

#[derive(Debug, Clone)]
pub struct Point {
    /// Position in the canonical (unshuffled) list.
    pub id: usize,
    pub kind: Kind,
    pub arch: ArchProfile,
    pub p: usize,
    pub eta: usize,
    /// Closed-form prediction, where `model::predict` has one.
    pub model_ns: Option<f64>,
}

impl Point {
    /// `coll/algo/arch/p/eta`, the name of the point's span.
    pub fn name(&self) -> String {
        let head = match &self.kind {
            Kind::Polled { case } => case.label(),
            Kind::OneToAllRead { same_region: true } => "one_to_all_read/same".into(),
            Kind::OneToAllRead { same_region: false } => "one_to_all_read/distinct".into(),
            Kind::Survivable { case, kills, .. } => {
                format!("survivable-{}/k{}", case.label(), kills.len())
            }
            Kind::Persona { coll, lib } => format!("{}/{}", coll.label(), lib.label()),
            Kind::Netsim { nodes } => format!("gather/two-level-{nodes}nodes"),
        };
        format!("{head}/{}/{}/{}", self.arch.name, self.p, self.eta)
    }
}

/// What one execution of a point produced.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PointOut {
    pub virtual_ns: u64,
    /// Executor steps over all ranks (0 where the body reports none).
    pub steps: u64,
    /// Peak concurrency at any page-lock server (0 where not exposed).
    pub lock_peak: u64,
}

fn archs() -> [(ArchProfile, usize); 3] {
    [
        (ArchProfile::knl(), 64),
        (ArchProfile::broadwell(), 28),
        (ArchProfile::power8(), 160),
    ]
}

fn model_ns(case: Case, m: &ModelParams, p: usize, eta: usize) -> Option<f64> {
    Some(match case {
        Case::Scatter(ScatterAlgo::ParallelRead) => predict::scatter_parallel_read(m, p, eta),
        Case::Scatter(ScatterAlgo::ThrottledRead { k }) => {
            predict::scatter_throttled_read(m, p, eta, k)
        }
        Case::Gather(GatherAlgo::ParallelWrite) => predict::gather_parallel_write(m, p, eta),
        Case::Gather(GatherAlgo::ThrottledWrite { k }) => {
            predict::gather_throttled_write(m, p, eta, k)
        }
        Case::Bcast(BcastAlgo::DirectRead) => predict::bcast_direct_read(m, p, eta),
        Case::Bcast(BcastAlgo::KNomial { radix }) => predict::bcast_knomial(m, p, eta, radix),
        Case::Bcast(BcastAlgo::ScatterAllgather) => predict::bcast_scatter_allgather(m, p, eta),
        Case::Allgather(AllgatherAlgo::RingSourceRead | AllgatherAlgo::RingNeighbor { .. }) => {
            predict::allgather_ring(m, p, eta)
        }
        Case::Allgather(AllgatherAlgo::Bruck) => predict::allgather_bruck(m, p, eta),
        Case::Alltoall(AlltoallAlgo::Pairwise) => predict::alltoall_pairwise(m, p, eta),
        _ => return None,
    })
}

/// Collects points, moving each nominal size with the seed.
struct Builder {
    rng: Rng,
    points: Vec<Point>,
}

impl Builder {
    fn push(&mut self, kind: Kind, arch: &ArchProfile, p: usize, nominal_eta: usize) -> usize {
        let eta = self.rng.jitter(nominal_eta);
        let m = arch.nominal_model();
        let model_ns = match &kind {
            Kind::Polled { case } => model_ns(*case, &m, p, eta),
            Kind::OneToAllRead { .. } => Some(m.t_cma(eta, p - 1)),
            _ => None,
        };
        let id = self.points.len();
        self.points.push(Point {
            id,
            kind,
            arch: arch.clone(),
            p,
            eta,
            model_ns,
        });
        id
    }
}

/// The six survivable operations, with the algorithms the chaos suites
/// and the `failures` artifact pin.
fn survivable_cases() -> [Case; 6] {
    [
        Case::Scatter(ScatterAlgo::ThrottledRead { k: 2 }),
        Case::Gather(GatherAlgo::ParallelWrite),
        Case::Bcast(BcastAlgo::KNomial { radix: 2 }),
        Case::Allgather(AllgatherAlgo::Bruck),
        Case::Alltoall(AlltoallAlgo::Pairwise),
        Case::Reduce(ReduceAlgo::KNomialTree { radix: 2 }),
    ]
}

/// The canonical point list of a simulated workload for `seed`.
pub fn build(workload: &str, seed: u64) -> Vec<Point> {
    let mut b = Builder {
        rng: Rng::new(seed ^ 0x6b61_6363),
        points: Vec::new(),
    };
    match workload {
        "allgather_storm" => {
            for (arch, p) in archs() {
                // A Power8 point (p = 160) costs as much host time as six
                // KNL points, so it gets one size, not the ladder.
                let sizes: &[usize] = if p == 160 {
                    &[256 * KIB]
                } else {
                    &[16 * KIB, 64 * KIB, 256 * KIB, MIB]
                };
                for algo in [
                    AllgatherAlgo::RingSourceRead,
                    AllgatherAlgo::RingNeighbor { j: 1 },
                    AllgatherAlgo::Bruck,
                ] {
                    for &eta in sizes {
                        let case = Case::Allgather(algo);
                        b.push(Kind::Polled { case }, &arch, p, eta);
                    }
                }
                let case = Case::Alltoall(AlltoallAlgo::Pairwise);
                b.push(Kind::Polled { case }, &arch, p, 64 * KIB);
            }
        }
        "one_to_all" => {
            for (arch, p) in archs() {
                let mut cases = vec![
                    Case::Scatter(ScatterAlgo::ParallelRead),
                    Case::Gather(GatherAlgo::ParallelWrite),
                    Case::Bcast(BcastAlgo::DirectRead),
                    Case::Bcast(BcastAlgo::KNomial { radix: 4 }),
                    Case::Bcast(BcastAlgo::ScatterAllgather),
                ];
                for k in [1, 4, 16] {
                    cases.push(Case::Scatter(ScatterAlgo::ThrottledRead { k }));
                    cases.push(Case::Gather(GatherAlgo::ThrottledWrite { k }));
                }
                for case in cases {
                    // Scatter-allgather's ring phase is an allgather storm
                    // (150 ms of host time at p = 160): one size there.
                    let ring_at_160 = p == 160 && case == Case::Bcast(BcastAlgo::ScatterAllgather);
                    let sizes: &[usize] = if ring_at_160 {
                        &[512 * KIB]
                    } else {
                        &[64 * KIB, 512 * KIB, 4 * MIB]
                    };
                    for &eta in sizes {
                        b.push(Kind::Polled { case }, &arch, p, eta);
                    }
                }
                for same_region in [true, false] {
                    for eta in [64 * KIB, MIB] {
                        b.push(Kind::OneToAllRead { same_region }, &arch, p, eta);
                    }
                }
            }
        }
        "survivable" => {
            let arch = ArchProfile::knl();
            // All six operations with 0, 1 and 2 kills at p = 16; at
            // p = 64 (13x the events) one rooted tree and one unrooted
            // operation with 0 and 1 kill.
            let wide = [
                Case::Bcast(BcastAlgo::KNomial { radix: 2 }),
                Case::Allgather(AllgatherAlgo::Bruck),
            ];
            for (p, cases, max_kills) in [
                (16usize, &survivable_cases()[..], 2usize),
                (64, &wide[..], 1),
            ] {
                // Real (not phantom) parent-sized buffers: keep p·p·count
                // bounded as the `failures` artifact does.
                let count = if p > 16 { 4 * KIB } else { 32 * KIB };
                // The artifact's victims: they avoid the root, and every
                // operation is known to recover from them. (Victims drawn
                // from the seed make some reduce trees fail by design:
                // survivors that lose their path to the root give up.)
                let victims = [(p / 2, 2), (p - 1, 5)];
                for &case in cases {
                    // A reduce whose tree loses a rank fails at the root
                    // with EPERM today (the `failures` artifact counts
                    // that run as a zero breakdown); only its clean path
                    // is a workload on which no operation fails.
                    let max_kills = if matches!(case, Case::Reduce(_)) {
                        0
                    } else {
                        max_kills
                    };
                    let mut clean = None;
                    for k in 0..=max_kills {
                        let kills = victims[..k].to_vec();
                        let id = b.push(Kind::Survivable { case, kills, clean }, &arch, p, count);
                        if k == 0 {
                            clean = Some(id);
                        } else {
                            // Recovery time is chaotic in the size (the
                            // adaptive deadlines turn a 0.8 % size change
                            // into 1.7 % of virtual time), so the kill
                            // points keep the artifact's exact size and
                            // the seed moves only the clean ones.
                            b.points[id].eta = count;
                        }
                    }
                }
            }
        }
        "persona_sweep" => {
            let libs = [
                Library::Kacc,
                Library::Mvapich2,
                Library::IntelMpi,
                Library::OpenMpi,
            ];
            let rooted = [Coll::Bcast, Coll::Scatter, Coll::Gather];
            // The unrooted collectives at 1 MiB (and at any size on KNL's
            // 64 ranks) cost seconds of host time per point under the
            // two-copy persona; the sweep keeps what fits a pass.
            let bdw = ArchProfile::broadwell();
            let knl = ArchProfile::knl();
            let mut groups: Vec<(&ArchProfile, usize, Coll, usize)> = Vec::new();
            for coll in Coll::all() {
                groups.push((&bdw, 28, coll, 4 * KIB));
                groups.push((&bdw, 28, coll, 64 * KIB));
            }
            for coll in rooted {
                groups.push((&bdw, 28, coll, MIB));
                groups.push((&knl, 64, coll, 64 * KIB));
            }
            for (arch, p, coll, eta) in groups {
                // One jittered size per group, so its four personas are
                // compared like for like.
                let first = b.push(Kind::Persona { coll, lib: libs[0] }, arch, p, eta);
                let eta = b.points[first].eta;
                for &lib in &libs[1..] {
                    let id = b.push(Kind::Persona { coll, lib }, arch, p, eta);
                    b.points[id].eta = eta;
                }
            }
            for nodes in [2, 4] {
                b.push(Kind::Netsim { nodes }, &knl, 16, 64 * KIB);
            }
        }
        other => panic!("no simulated workload named {other}"),
    }
    b.points
}

/// One collective on a phantom team of the polled simulator: barrier,
/// bind buffers, run; the slowest rank's elapsed virtual time (buffer
/// binding included, as in `kacc_bench::measure`) is the latency.
pub fn polled_case(arch: &ArchProfile, p: usize, case: Case, eta: usize) -> PointOut {
    let (run, outs) = run_polled_team_phantom(arch, p, move |rank| async move {
        let mut comm = PolledComm::new(rank);
        sm_barrier_polled(&mut comm).await.expect("barrier");
        let t0 = comm.time_ns();
        let (la, lb) = case.buf_lens(rank, p, eta);
        let a = la.map(|n| comm.alloc(n));
        let b = lb.map(|n| comm.alloc(n));
        let steps = case.polled(&mut comm, a, b, eta).await.expect("collective");
        (comm.time_ns() - t0, steps)
    });
    PointOut {
        virtual_ns: outs.iter().map(|o| o.0).max().unwrap_or(0),
        steps: outs.iter().map(|o| o.1).sum(),
        lock_peak: lock_peak(&run),
    }
}

fn lock_peak(run: &TeamRun) -> u64 {
    run.lock_peak_concurrency.iter().copied().max().unwrap_or(0) as u64
}

fn run_inner(pt: &Point) -> PointOut {
    let (p, eta) = (pt.p, pt.eta);
    match &pt.kind {
        Kind::Polled { case } => polled_case(&pt.arch, p, *case, eta),
        Kind::OneToAllRead { same_region } => {
            let same = *same_region;
            let readers = p - 1;
            let (run, durs) = run_polled_team_phantom(&pt.arch, p, move |rank| async move {
                let mut comm = PolledComm::new(rank);
                if rank == 0 {
                    let buf = comm.alloc(if same { eta } else { eta * readers });
                    let tok = comm.expose(buf).await.expect("expose");
                    for r in 1..=readers {
                        comm.ctrl_send(r, Tag::user(1), &tok.to_bytes())
                            .await
                            .expect("send");
                    }
                    for r in 1..=readers {
                        comm.wait_notify(r, Tag::user(2)).await.expect("done");
                    }
                    0
                } else {
                    let raw = comm.ctrl_recv(0, Tag::user(1)).await.expect("token");
                    let tok = RemoteToken::from_bytes(&raw).expect("token bytes");
                    let dst = comm.alloc(eta);
                    let off = if same { 0 } else { (rank - 1) * eta };
                    let t0 = comm.time_ns();
                    comm.cma_read(tok, off, dst, 0, eta).await.expect("read");
                    let d = comm.time_ns() - t0;
                    comm.notify(0, Tag::user(2)).await.expect("notify");
                    d
                }
            });
            PointOut {
                virtual_ns: durs.into_iter().max().unwrap_or(0),
                steps: 0,
                lock_peak: lock_peak(&run),
            }
        }
        Kind::Survivable { case, kills, .. } => {
            let case = *case;
            let mut plan = FaultPlan::new(0xC0FFEE);
            for &(rank, after) in kills {
                plan = plan.silent_kill(rank, after);
            }
            // Real buffers: the agreement rounds carry their masks in them.
            let mut state = MachineState::new(pt.arch.clone(), p);
            state.fault = plan.hook();
            let dead: Vec<usize> = kills.iter().map(|k| k.0).collect();
            let (run, outs, _) = run_polled_machine_full(state, false, true, move |rank| {
                let dead = dead.clone();
                async move {
                    let mut comm = PolledComm::new(rank);
                    // Parent-sized buffers on every rank, as the survivable
                    // API asks (a shrunken re-execution reuses them).
                    let sb = comm.alloc_with(&vec![rank as u8; p * eta]).expect("alloc");
                    let rb = comm.alloc(p * eta);
                    let (la, lb) = case.buf_lens(rank, p, eta);
                    let op = case.survivable(eta);
                    let policy = RecoveryPolicy::survivable();
                    let res = run_survivable_polled(
                        &mut comm,
                        &op,
                        la.map(|_| sb),
                        lb.map(|_| rb),
                        &policy,
                    )
                    .await;
                    match res {
                        Ok(o) => o.report.steps,
                        // A killed rank fails by design; a survivor must not.
                        Err(_) if dead.contains(&rank) => 0,
                        Err(e) => panic!("survivor {rank} failed: {e}"),
                    }
                }
            });
            PointOut {
                virtual_ns: run.end_ns,
                steps: outs.iter().sum(),
                lock_peak: lock_peak(&run),
            }
        }
        Kind::Persona { coll, lib } => PointOut {
            virtual_ns: library_ns(&pt.arch, p, eta, *coll, *lib) as u64,
            ..PointOut::default()
        },
        Kind::Netsim { nodes } => {
            let run = cluster_gather(
                &pt.arch,
                *nodes,
                p,
                pt.arch.default_fabric(),
                eta,
                MultiNodeStrategy::TwoLevel { k: 4 },
            );
            PointOut {
                virtual_ns: run.end_ns,
                steps: 0,
                lock_peak: lock_peak(&run),
            }
        }
    }
}

/// Run one point. A typed error or a panic anywhere under it is a failed
/// operation, reported as the panic message.
pub fn run_point(pt: &Point) -> Result<PointOut, String> {
    catch_unwind(AssertUnwindSafe(|| run_inner(pt))).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "panic".into())
    })
}
