//! Simulated-latency measurement helpers shared by every figure.
//!
//! Every helper runs one async body per rank on the polled engine
//! (`run_polled_team` / `PolledComm`): the native collectives
//! through their `*_polled` entries, the library personas through
//! `kacc_mpi::baseline::*_async`, the microbenchmarks straight on the
//! endpoint. All reported quantities are virtual time or counts, and no
//! body writes its buffers, so however large a point's buffers are they
//! stay lengths and cost no memory.

use kacc_collectives::{
    allgather_polled, alltoall_polled, bcast_polled, gatherv_polled, scatter_polled, AllgatherAlgo,
    AlltoallAlgo, BcastAlgo, GatherAlgo, ScatterAlgo, Tuner,
};
use kacc_comm::{RemoteToken, Tag};
use kacc_machine::polled::sm_barrier_polled;
use kacc_machine::{run_polled_machine_full, run_polled_team, MachineState, PolledComm, TeamRun};
use kacc_model::ArchProfile;
use kacc_mpi::baseline::{self, Library};
use kacc_numerics::stats;
use kacc_trace::{EventKind, Track};

use crate::tracedemo::PHASES;

/// Run `f` on a simulated team and return the collective latency in
/// nanoseconds: ranks synchronize over the dissemination barrier, then
/// `f` runs on the rank's endpoint, and the slowest rank's elapsed
/// virtual time is reported (the standard `MPI_Barrier` + max-time
/// measurement loop of collective benchmarks).
pub fn timed_team_polled<F>(arch: &ArchProfile, p: usize, f: F) -> f64
where
    F: AsyncFn(&mut PolledComm) + Clone + 'static,
{
    let (_, durs) = run_polled_team(arch, p, move |rank| {
        let f = f.clone();
        async move {
            let mut comm = PolledComm::new(rank);
            sm_barrier_polled(&mut comm).await.expect("barrier");
            let t0 = comm.time_ns();
            f(&mut comm).await;
            comm.time_ns() - t0
        }
    });
    durs.into_iter().max().expect("nonempty team") as f64
}

/// Scatter latency (root 0), ns.
pub fn scatter_ns(arch: &ArchProfile, p: usize, eta: usize, algo: ScatterAlgo) -> f64 {
    timed_team_polled(arch, p, async move |comm: &mut PolledComm| {
        let sb = (comm.rank() == 0).then(|| comm.alloc(p * eta));
        let rb = comm.alloc(eta);
        scatter_polled(comm, algo, sb, Some(rb), eta, 0)
            .await
            .expect("scatter");
    })
}

/// Gather latency (root 0), ns.
pub fn gather_ns(arch: &ArchProfile, p: usize, eta: usize, algo: GatherAlgo) -> f64 {
    timed_team_polled(arch, p, async move |comm: &mut PolledComm| {
        let sb = comm.alloc(eta);
        let rb = (comm.rank() == 0).then(|| comm.alloc(p * eta));
        gatherv_polled(comm, algo, Some(sb), rb, &vec![eta; p], None, 0)
            .await
            .expect("gather");
    })
}

/// Allgather latency, ns.
pub fn allgather_ns(arch: &ArchProfile, p: usize, eta: usize, algo: AllgatherAlgo) -> f64 {
    timed_team_polled(arch, p, async move |comm: &mut PolledComm| {
        let sb = comm.alloc(eta);
        let rb = comm.alloc(p * eta);
        allgather_polled(comm, algo, Some(sb), rb, eta)
            .await
            .expect("allgather");
    })
}

/// Alltoall latency, ns.
pub fn alltoall_ns(arch: &ArchProfile, p: usize, eta: usize, algo: AlltoallAlgo) -> f64 {
    timed_team_polled(arch, p, async move |comm: &mut PolledComm| {
        let sb = comm.alloc(p * eta);
        let rb = comm.alloc(p * eta);
        alltoall_polled(comm, algo, Some(sb), rb, eta)
            .await
            .expect("alltoall");
    })
}

/// Bcast latency (root 0), ns.
pub fn bcast_ns(arch: &ArchProfile, p: usize, eta: usize, algo: BcastAlgo) -> f64 {
    timed_team_polled(arch, p, async move |comm: &mut PolledComm| {
        let buf = comm.alloc(eta);
        bcast_polled(comm, algo, buf, eta, 0).await.expect("bcast");
    })
}

/// Which collective a library persona runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coll {
    /// MPI_Bcast.
    Bcast,
    /// MPI_Scatter.
    Scatter,
    /// MPI_Gather.
    Gather,
    /// MPI_Allgather.
    Allgather,
    /// MPI_Alltoall.
    Alltoall,
}

impl Coll {
    /// All five evaluated collectives, in Table VI order.
    pub fn all() -> [Coll; 5] {
        [
            Coll::Bcast,
            Coll::Scatter,
            Coll::Gather,
            Coll::Allgather,
            Coll::Alltoall,
        ]
    }

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            Coll::Bcast => "Bcast",
            Coll::Scatter => "Scatter",
            Coll::Gather => "Gather",
            Coll::Allgather => "Allgather",
            Coll::Alltoall => "Alltoall",
        }
    }
}

/// Latency of `coll` under a library persona, ns.
pub fn library_ns(arch: &ArchProfile, p: usize, eta: usize, coll: Coll, lib: Library) -> f64 {
    let tuner_arch = arch.clone();
    timed_team_polled(arch, p, async move |comm: &mut PolledComm| {
        let tuner = &Tuner::new(&tuner_arch);
        let me = comm.rank();
        match coll {
            Coll::Bcast => {
                let buf = comm.alloc(eta);
                baseline::bcast_async(comm, lib, tuner, buf, eta, 0).await
            }
            Coll::Scatter => {
                let sb = (me == 0).then(|| comm.alloc(p * eta));
                let rb = comm.alloc(eta);
                baseline::scatter_async(comm, lib, tuner, sb, Some(rb), eta, 0).await
            }
            Coll::Gather => {
                let sb = comm.alloc(eta);
                let rb = (me == 0).then(|| comm.alloc(p * eta));
                baseline::gather_async(comm, lib, tuner, Some(sb), rb, eta, 0).await
            }
            Coll::Allgather => {
                let sb = comm.alloc(eta);
                let rb = comm.alloc(p * eta);
                baseline::allgather_async(comm, lib, tuner, Some(sb), rb, eta).await
            }
            Coll::Alltoall => {
                let sb = comm.alloc(p * eta);
                let rb = comm.alloc(p * eta);
                baseline::alltoall_async(comm, lib, tuner, Some(sb), rb, eta).await
            }
        }
        .unwrap_or_else(|e| panic!("{} {}: {e}", lib.label(), coll.label()));
    })
}

/// The contention microbenchmark body shared by Figs 2–4: a source
/// exposes its buffer, hands the token to its readers and waits for
/// their completion notes; a reader reads `eta` bytes once the token
/// arrives. Returns the read's duration (0 on a source).
async fn serve_or_read(comm: &mut PolledComm, role: Role, eta: usize) -> u64 {
    match role {
        Role::Source { readers, len } => {
            let buf = comm.alloc(len);
            let tok = comm.expose(buf).await.expect("expose");
            for r in readers.clone() {
                comm.ctrl_send(r, Tag::user(1), &tok.to_bytes())
                    .await
                    .expect("send");
            }
            for r in readers {
                comm.wait_notify(r, Tag::user(2)).await.expect("done");
            }
            0
        }
        Role::Reader { source, off } => {
            let raw = comm.ctrl_recv(source, Tag::user(1)).await.expect("token");
            let tok = RemoteToken::from_bytes(&raw).expect("token bytes");
            let dst = comm.alloc(eta);
            let t0 = comm.time_ns();
            comm.cma_read(tok, off, dst, 0, eta).await.expect("read");
            let d = comm.time_ns() - t0;
            comm.notify(source, Tag::user(2)).await.expect("notify");
            d
        }
    }
}

/// What one rank does in [`serve_or_read`].
enum Role {
    /// Expose `len` bytes and serve the ranks in `readers`.
    Source {
        readers: std::ops::Range<usize>,
        len: usize,
    },
    /// Read from `source`'s buffer at `off`.
    Reader { source: usize, off: usize },
}

/// Run [`serve_or_read`] on `p` ranks with `role(rank)` deciding who
/// serves and who reads.
fn contention_team(
    arch: &ArchProfile,
    p: usize,
    eta: usize,
    role: impl Fn(usize) -> Role + 'static,
) -> (TeamRun, Vec<u64>) {
    run_polled_team(arch, p, move |rank| {
        let role = role(rank);
        async move { serve_or_read(&mut PolledComm::new(rank), role, eta).await }
    })
}

/// Ranks `1..=readers` each read their own (or the same) `eta`-byte
/// region of rank 0's buffer.
fn one_to_all_role(rank: usize, readers: usize, eta: usize, same_region: bool) -> Role {
    if rank == 0 {
        Role::Source {
            readers: 1..readers + 1,
            len: if same_region { eta } else { eta * readers },
        }
    } else {
        Role::Reader {
            source: 0,
            off: if same_region { 0 } else { (rank - 1) * eta },
        }
    }
}

/// Per-reader latency of the One-to-all access pattern: `readers` ranks
/// concurrently read `eta` bytes from rank 0 (same buffer region or
/// per-reader regions), ns (mean over readers). The Fig 2(b)/(c) and
/// Fig 3 microbenchmark.
pub fn one_to_all_read_ns(
    arch: &ArchProfile,
    readers: usize,
    eta: usize,
    same_region: bool,
) -> f64 {
    let lats = one_to_all_read_lats(arch, readers, eta, same_region);
    stats::mean(&lats).expect("nonempty reader set")
}

/// Per-reader latencies behind [`one_to_all_read_ns`], one entry per
/// reader in rank order, ns. Exposed so summaries can report percentile
/// spread (p50/p95/p99) on top of the mean.
pub fn one_to_all_read_lats(
    arch: &ArchProfile,
    readers: usize,
    eta: usize,
    same_region: bool,
) -> Vec<f64> {
    let (_, durs) = contention_team(arch, readers + 1, eta, move |rank| {
        one_to_all_role(rank, readers, eta, same_region)
    });
    durs.iter().skip(1).map(|&d| d as f64).collect()
}

/// Per-reader latency of the All-to-all access pattern: `pairs`
/// disjoint (reader, source) pairs, ns (mean). Fig 2(a).
pub fn pairs_read_ns(arch: &ArchProfile, pairs: usize, eta: usize) -> f64 {
    let (_, durs) = contention_team(arch, 2 * pairs, eta, move |me| {
        if me % 2 == 0 {
            Role::Source {
                readers: me + 1..me + 2,
                len: eta,
            }
        } else {
            Role::Reader {
                source: me - 1,
                off: 0,
            }
        }
    });
    let lats: Vec<f64> = durs.iter().skip(1).step_by(2).map(|&d| d as f64).collect();
    stats::mean(&lats).expect("nonempty pair set")
}

/// Wake-storm diagnostics from one instrumented barrier+allgather run —
/// the broadcast-wake pressure the coalescing work in PR 6 targets. All
/// fields are virtual-time/count quantities, so a probe repeats exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct WakeStorm {
    /// Barrier+allgather iterations executed.
    pub iterations: u64,
    /// Kernel events dispatched by the run.
    pub events: u64,
    /// `events / iterations`: DES cost of one barrier+allgather round.
    pub events_per_barrier: f64,
    /// Event-queue length high-water mark.
    pub peak_queue_len: u64,
    /// Largest single `wake_at` flush fan-out (threads woken at once).
    pub wake_fanout_max: u64,
    /// Mean `wake_at` flush fan-out.
    pub wake_fanout_mean: f64,
    /// Wake requests before coalescing.
    pub wakes_raw: u64,
    /// Wake requests dropped as already-pending duplicates.
    pub wakes_coalesced: u64,
}

/// Run `iters` rounds of dissemination barrier + Bruck allgather on a
/// `p`-rank team (`eta` bytes per rank) and report the wake-storm
/// diagnostics carried back on the `TeamRun`.
pub fn wake_storm_probe(arch: &ArchProfile, p: usize, eta: usize, iters: usize) -> WakeStorm {
    let (run, _) = run_polled_team(arch, p, move |rank| async move {
        let mut comm = PolledComm::new(rank);
        let sb = comm.alloc(eta);
        let rb = comm.alloc(p * eta);
        for _ in 0..iters {
            sm_barrier_polled(&mut comm).await.expect("barrier");
            allgather_polled(&mut comm, AllgatherAlgo::Bruck, Some(sb), rb, eta)
                .await
                .expect("allgather");
        }
    });
    let fanout = &run.sim.wake_fanout;
    WakeStorm {
        iterations: iters as u64,
        events: run.events,
        events_per_barrier: run.events as f64 / (iters as f64).max(1.0),
        peak_queue_len: run.sim.queue_len_hwm,
        wake_fanout_max: fanout.max(),
        wake_fanout_mean: fanout.mean().unwrap_or(0.0),
        wakes_raw: run.sim.wakes_raw,
        wakes_coalesced: run.sim.wakes_coalesced,
    }
}

/// Aggregate step breakdown of `readers` concurrent reads of `pages`
/// pages each from rank 0, the Fig 4 experiment: per-reader mean time in
/// each of [`PHASES`], ns. Read off the run's phase spans — each
/// reader's summed in emission order, the readers' sums added in rank
/// order.
pub fn breakdown(arch: &ArchProfile, readers: usize, pages: usize) -> [f64; 5] {
    let eta = pages * arch.page_size;
    let state = MachineState::new(arch.clone(), readers + 1);
    let (_, _, trace) = run_polled_machine_full(state, true, true, move |rank| {
        let role = one_to_all_role(rank, readers, eta, false);
        async move { serve_or_read(&mut PolledComm::new(rank), role, eta).await }
    });
    let mut per_rank = vec![[0.0f64; 5]; readers + 1];
    for e in &trace {
        let phase = PHASES.iter().position(|&name| name == e.name);
        if let (Track::Rank(r), EventKind::Span { dur, .. }, Some(i)) = (e.track, e.kind, phase) {
            per_rank[r][i] += dur;
        }
    }
    let mut total = [0.0f64; 5];
    for sums in &per_rank[1..] {
        for (t, x) in total.iter_mut().zip(sums) {
            *t += x;
        }
    }
    total.map(|t| t / readers as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_team_reports_positive_latency() {
        let arch = ArchProfile::broadwell();
        let t = scatter_ns(&arch, 8, 64 << 10, ScatterAlgo::SequentialWrite);
        assert!(t > 0.0);
    }

    /// The wake-storm probe carries only virtual-time/count diagnostics,
    /// so it repeats exactly and every counter moves.
    #[test]
    fn wake_storm_probe_is_deterministic() {
        let arch = ArchProfile::broadwell();
        let a = wake_storm_probe(&arch, 6, 4 << 10, 3);
        assert_eq!(a, wake_storm_probe(&arch, 6, 4 << 10, 3));
        assert!(a.events > 0, "probe dispatched no events");
        assert!(a.peak_queue_len > 0, "queue high-water never moved");
        assert!(a.wake_fanout_max >= 1, "no wake flushes observed");
    }

    #[test]
    fn one_to_all_contention_visible() {
        let arch = ArchProfile::knl();
        let t1 = one_to_all_read_ns(&arch, 1, 256 << 10, false);
        let t16 = one_to_all_read_ns(&arch, 16, 256 << 10, false);
        assert!(t16 > 3.0 * t1, "t16 {t16} vs t1 {t1}");
        // Same-region reads contend at least as much.
        let t16s = one_to_all_read_ns(&arch, 16, 256 << 10, true);
        assert!(t16s > 3.0 * t1);
    }

    #[test]
    fn pairs_scale_flat() {
        let arch = ArchProfile::knl();
        let t1 = pairs_read_ns(&arch, 1, 64 << 10);
        let t8 = pairs_read_ns(&arch, 8, 64 << 10);
        assert!(t8 < 2.5 * t1, "t8 {t8} vs t1 {t1}");
    }

    #[test]
    fn breakdown_is_lock_dominated_under_contention() {
        // Fig 4's message: with concurrency, lock time dominates.
        let arch = ArchProfile::broadwell();
        let [_, _, solo_lock, _, _] = breakdown(&arch, 1, 128);
        let [_, _, lock, _, copy] = breakdown(&arch, 27, 128);
        assert!(lock > solo_lock * 5.0);
        assert!(lock > copy, "lock {lock} should dominate copy {copy}");
    }

    #[test]
    fn library_dispatch_runs_all_collectives() {
        let arch = ArchProfile::broadwell();
        for coll in Coll::all() {
            let t = library_ns(&arch, 6, 32 << 10, coll, Library::Kacc);
            assert!(t > 0.0, "{coll:?}");
        }
        let t = library_ns(&arch, 6, 32 << 10, Coll::Gather, Library::IntelMpi);
        assert!(t > 0.0);
    }
}
