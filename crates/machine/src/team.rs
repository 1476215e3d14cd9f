//! Team harness: run one closure per simulated rank and collect results.

use crate::simcomm::SimComm;
use crate::state::{MachineState, RankStats, TransportCounters};
use kacc_fault::FaultHook;
use kacc_metrics::LocalHist;
use kacc_model::{ArchProfile, FabricParams};
use kacc_sim_core::{Sim, SimRunMetrics};
use kacc_trace::{Event, Tracer};
use std::sync::{Arc, Mutex, OnceLock};

/// Timing and accounting from a completed team run.
///
/// `PartialEq` compares every field, so the determinism suite can assert
/// whole runs bitwise-identical across repeats and job counts.
#[derive(Debug, Clone, PartialEq)]
pub struct TeamRun {
    /// Virtual time when the last rank finished, ns.
    pub end_ns: u64,
    /// Per-rank finish times, ns.
    pub finish_ns: Vec<u64>,
    /// Per-rank step accounting.
    pub stats: Vec<RankStats>,
    /// Peak concurrent flows each node's memory system saw.
    pub mem_peak_concurrency: Vec<usize>,
    /// Peak concurrency each page-lock server saw, indexed by rank.
    pub lock_peak_concurrency: Vec<usize>,
    /// Undelivered control and bulk messages left behind (should be 0 for
    /// clean protocols).
    pub mail_pending: usize,
    /// Simulated events the kernel dispatched for this run (fast-path
    /// hand-offs included) — the numerator of the events/sec metric.
    pub events: u64,
    /// Engine-level run metrics (queue traffic, wake fan-out). Identical
    /// between the threads and polled engines by construction; `PartialEq`
    /// on this struct makes the equivalence suite pin that.
    pub sim: SimRunMetrics,
    /// Queue-depth histogram merged across every page-lock server: one
    /// sample per pinning request, recording the active set it joined.
    pub lock_depth: LocalHist,
    /// Grant-time recomputations summed across all page-lock servers.
    pub lock_recaches: u64,
    /// Rate recomputations summed across all memory systems (node DRAM
    /// plus fabric egress/ingress links).
    pub mem_recaches: u64,
    /// Machine-wide per-transport traffic totals (shm + fallback paths;
    /// CMA traffic is in [`RankStats`]).
    pub transport: TransportCounters,
}

impl TeamRun {
    /// Aggregate step accounting across all ranks.
    pub fn total_stats(&self) -> RankStats {
        let mut total = RankStats::default();
        for s in &self.stats {
            total.merge(s);
        }
        total
    }
}

/// Cached global-registry handles for the machine-layer metrics.
struct MachineHandles {
    lock_depth: kacc_metrics::Hist,
    lock_recaches: kacc_metrics::Counter,
    mem_recaches: kacc_metrics::Counter,
    shm_ops: kacc_metrics::Counter,
    shm_bytes: kacc_metrics::Counter,
    fallback_ops: kacc_metrics::Counter,
    fallback_bytes: kacc_metrics::Counter,
    cma_ops: kacc_metrics::Counter,
    cma_bytes: kacc_metrics::Counter,
}

fn machine_handles() -> &'static MachineHandles {
    static H: OnceLock<MachineHandles> = OnceLock::new();
    H.get_or_init(|| MachineHandles {
        lock_depth: kacc_metrics::hist("machine.lock.queue_depth"),
        lock_recaches: kacc_metrics::counter("machine.lock.recaches"),
        mem_recaches: kacc_metrics::counter("machine.mem.recaches"),
        shm_ops: kacc_metrics::counter("machine.transport.shm.ops"),
        shm_bytes: kacc_metrics::counter("machine.transport.shm.bytes"),
        fallback_ops: kacc_metrics::counter("machine.transport.fallback.ops"),
        fallback_bytes: kacc_metrics::counter("machine.transport.fallback.bytes"),
        cma_ops: kacc_metrics::counter("machine.transport.cma.ops"),
        cma_bytes: kacc_metrics::counter("machine.transport.cma.bytes"),
    })
}

/// Assemble a [`TeamRun`] from the final machine state and flush the
/// machine-layer metrics into the global registry. Shared by the threads
/// harness below and the polled harness in [`crate::polled`], so both
/// engines account identically by construction.
pub(crate) fn finish_team_run(
    st: &MachineState,
    end_ns: u64,
    finish_ns: Vec<u64>,
    events: u64,
    sim: SimRunMetrics,
) -> TeamRun {
    let mut lock_depth = LocalHist::default();
    let mut lock_recaches = 0u64;
    for l in &st.locks {
        lock_depth.merge(&l.depth);
        lock_recaches += l.recaches;
    }
    let mut mem_recaches: u64 = st.mems.iter().map(|m| m.recaches).sum();
    if let Some(net) = &st.net {
        mem_recaches += net
            .egress
            .iter()
            .chain(net.ingress.iter())
            .map(|m| m.recaches)
            .sum::<u64>();
    }
    let run = TeamRun {
        end_ns,
        finish_ns,
        stats: st.stats.clone(),
        mem_peak_concurrency: st.mems.iter().map(|m| m.peak_concurrency).collect(),
        lock_peak_concurrency: st.locks.iter().map(|l| l.peak_concurrency).collect(),
        mail_pending: st.mail.pending() + st.bulk.pending(),
        events,
        sim,
        lock_depth,
        lock_recaches,
        mem_recaches,
        transport: st.transport,
    };
    let h = machine_handles();
    h.lock_depth.merge_local(&run.lock_depth);
    h.lock_recaches.add(run.lock_recaches);
    h.mem_recaches.add(run.mem_recaches);
    h.shm_ops.add(run.transport.shm_ops);
    h.shm_bytes.add(run.transport.shm_bytes);
    h.fallback_ops.add(run.transport.fallback_ops);
    h.fallback_bytes.add(run.transport.fallback_bytes);
    let total = run.total_stats();
    h.cma_ops.add(total.cma_ops);
    h.cma_bytes.add(total.bytes_read + total.bytes_written);
    run
}

/// Run `f` on every rank of a simulated `nranks`-process node and return
/// the timing report plus each rank's return value (indexed by rank).
///
/// The closure runs inside the deterministic simulator: any `Comm` call
/// advances virtual time according to the machine model. Wall-clock
/// determinism holds for a fixed (arch, nranks, f).
pub fn run_team<R, F>(arch: &ArchProfile, nranks: usize, f: F) -> (TeamRun, Vec<R>)
where
    F: Fn(&mut SimComm) -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    run_machine(MachineState::new(arch.clone(), nranks), f)
}

/// [`run_team`] with phantom (length-only) buffers: identical virtual
/// timing, no data plane — the memory-safe choice for large measurement
/// sweeps where correctness is covered elsewhere.
pub fn run_team_phantom<R, F>(arch: &ArchProfile, nranks: usize, f: F) -> (TeamRun, Vec<R>)
where
    F: Fn(&mut SimComm) -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    run_machine(
        MachineState::cluster_opts(arch.clone(), 1, nranks, None, true),
        f,
    )
}

/// [`run_team`] with tracing enabled: additionally returns the full
/// structured event stream — scheduler dispatches, copy-path phase spans
/// (syscall/check/lock/pin/copy), transport spans with tag-class
/// attribution, and lock-server queue-depth counters. Export with
/// [`kacc_trace::chrome_trace_json`] for a Perfetto timeline or aggregate
/// with [`kacc_trace::Breakdown`] for the Fig 2–4 tables.
pub fn run_team_traced<R, F>(
    arch: &ArchProfile,
    nranks: usize,
    f: F,
) -> (TeamRun, Vec<R>, Vec<Event>)
where
    F: Fn(&mut SimComm) -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    run_machine_opts(MachineState::new(arch.clone(), nranks), true, f)
}

/// [`run_team`] with a fault injector installed: every transport
/// operation consults `hook` before executing. With
/// `FaultHook::off()` the run is bitwise-identical (virtual times and
/// payloads) to [`run_team`] — the zero-cost guard test pins this.
pub fn run_team_faulty<R, F>(
    arch: &ArchProfile,
    nranks: usize,
    hook: FaultHook,
    f: F,
) -> (TeamRun, Vec<R>)
where
    F: Fn(&mut SimComm) -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    let mut state = MachineState::new(arch.clone(), nranks);
    state.fault = hook;
    let (run, results, _) = run_machine_opts(state, false, f);
    (run, results)
}

/// [`run_team_faulty`] with tracing enabled, for observing `fault:*` /
/// `retry:*` / `fallback:*` recovery spans alongside the machine phases.
pub fn run_team_faulty_traced<R, F>(
    arch: &ArchProfile,
    nranks: usize,
    hook: FaultHook,
    f: F,
) -> (TeamRun, Vec<R>, Vec<Event>)
where
    F: Fn(&mut SimComm) -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    let mut state = MachineState::new(arch.clone(), nranks);
    state.fault = hook;
    run_machine_opts(state, true, f)
}

/// Run `f` on every rank of a simulated cluster of `nodes` identical
/// nodes with `ranks_per_node` processes each (see
/// [`MachineState::cluster`] for the rank placement).
pub fn run_cluster<R, F>(
    arch: &ArchProfile,
    nodes: usize,
    ranks_per_node: usize,
    fabric: FabricParams,
    f: F,
) -> (TeamRun, Vec<R>)
where
    F: Fn(&mut SimComm) -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    run_machine(
        MachineState::cluster(arch.clone(), nodes, ranks_per_node, Some(fabric)),
        f,
    )
}

/// [`run_team`] with the kernel's direct-handoff fast path disabled:
/// every wake goes through the event queue and a condvar floor transfer.
///
/// Virtual-time behavior is identical by construction — the fast-path
/// equivalence suite compares this against [`run_team`] across all
/// collectives; it exists only for that comparison and for debugging.
pub fn run_team_no_fastpath<R, F>(arch: &ArchProfile, nranks: usize, f: F) -> (TeamRun, Vec<R>)
where
    F: Fn(&mut SimComm) -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    let (run, results, _) =
        run_machine_full(MachineState::new(arch.clone(), nranks), false, false, f);
    (run, results)
}

fn run_machine<R, F>(state: MachineState, f: F) -> (TeamRun, Vec<R>)
where
    F: Fn(&mut SimComm) -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    let (run, results, _) = run_machine_opts(state, false, f);
    (run, results)
}

fn run_machine_opts<R, F>(state: MachineState, trace: bool, f: F) -> (TeamRun, Vec<R>, Vec<Event>)
where
    F: Fn(&mut SimComm) -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    run_machine_full(state, trace, true, f)
}

fn run_machine_full<R, F>(
    mut state: MachineState,
    trace: bool,
    fast_path: bool,
    f: F,
) -> (TeamRun, Vec<R>, Vec<Event>)
where
    F: Fn(&mut SimComm) -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    // One buffered tracer shared by the scheduler (dispatch instants) and
    // the machine model (phase spans, queue-depth counters), so all layers
    // land in a single correlated event stream.
    let capture = trace.then(|| {
        let (tracer, buf) = Tracer::buffered();
        state.tracer = tracer.clone();
        (tracer, buf)
    });
    let nranks = state.nranks;
    let mut sim = Sim::new(state);
    sim.set_fast_path(fast_path);
    if let Some((tracer, _)) = &capture {
        sim.set_tracer(tracer.clone());
    }
    let f = Arc::new(f);
    let results: Arc<Mutex<Vec<Option<R>>>> =
        Arc::new(Mutex::new((0..nranks).map(|_| None).collect()));
    for rank in 0..nranks {
        let f = Arc::clone(&f);
        let results = Arc::clone(&results);
        sim.spawn(move |ctx| {
            let mut comm = SimComm::new(ctx, rank);
            let r = f(&mut comm);
            debug_assert!(
                !comm.ctx().with_state(|s, _| s.owns_live_flow(rank)),
                "rank {rank} finished while it owns a live flow"
            );
            results
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)[rank] = Some(r);
        });
    }
    let report = sim.run();
    let trace = capture.map(|(_, buf)| buf.take()).unwrap_or_default();
    let st = report.state;
    let run = finish_team_run(
        &st,
        report.end_time,
        report.finish_times.clone(),
        report.events,
        report.metrics,
    );
    let results = Arc::try_unwrap(results)
        .unwrap_or_else(|_| panic!("rank closures done"))
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    (
        run,
        results
            .into_iter()
            .map(|r| r.expect("every rank returned"))
            .collect(),
        trace,
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use kacc_comm::{Comm, CommExt, Tag};

    #[test]
    fn two_rank_cma_read_moves_data_and_time() {
        let arch = ArchProfile::broadwell();
        let (run, results) = run_team(&arch, 2, |comm| {
            if comm.rank() == 0 {
                // Expose a 2-page buffer of 0xAB and send the token.
                let buf = comm.alloc(8192);
                comm.write_local(buf, 0, &[0xAB; 8192]).unwrap();
                let tok = comm.expose(buf).unwrap();
                comm.ctrl_send(1, Tag::user(1), &tok.to_bytes()).unwrap();
                // Wait for the reader's completion notification.
                comm.wait_notify(1, Tag::user(2)).unwrap();
                Vec::new()
            } else {
                let raw = comm.ctrl_recv(0, Tag::user(1)).unwrap();
                let tok = kacc_comm::RemoteToken::from_bytes(&raw).unwrap();
                let dst = comm.alloc(8192);
                comm.cma_read(tok, 0, dst, 0, 8192).unwrap();
                comm.notify(0, Tag::user(2)).unwrap();
                comm.read_all(dst).unwrap()
            }
        });
        assert_eq!(results[1], vec![0xAB; 8192]);
        assert_eq!(run.mail_pending, 0);
        // Cost sanity: at least syscall + check + 2 pages + copy.
        let a = &arch;
        let floor =
            (a.t_syscall_ns + a.t_permcheck_ns + 2.0 * a.l_ns() + 8192.0 * a.beta_ns_per_byte())
                as u64;
        assert!(run.end_ns >= floor, "end {} < floor {}", run.end_ns, floor);
        let s = &run.stats[1];
        assert!(s.lock_ns > 0.0 && s.pin_ns > 0.0 && s.copy_ns > 0.0);
        assert_eq!(s.bytes_read, 8192);
    }

    #[test]
    fn contention_inflates_one_to_all_reads() {
        // One-to-all: many ranks read *different* offsets of rank 0's
        // buffer concurrently — the Fig 2(c) pattern. Compare against a
        // single reader: per-reader latency must inflate superlinearly.
        let arch = ArchProfile::knl();
        let eta = 64 * 1024;
        let latency = |readers: usize| {
            let (_, durs) = run_team(&arch, readers + 1, move |comm| {
                if comm.rank() == 0 {
                    let buf = comm.alloc(eta * readers);
                    let tok = comm.expose(buf).unwrap();
                    for r in 1..=readers {
                        comm.ctrl_send(r, Tag::user(1), &tok.to_bytes()).unwrap();
                    }
                    for r in 1..=readers {
                        comm.wait_notify(r, Tag::user(2)).unwrap();
                    }
                    0u64
                } else {
                    let raw = comm.ctrl_recv(0, Tag::user(1)).unwrap();
                    let tok = kacc_comm::RemoteToken::from_bytes(&raw).unwrap();
                    let dst = comm.alloc(eta);
                    let t0 = comm.time_ns();
                    comm.cma_read(tok, (comm.rank() - 1) * eta, dst, 0, eta)
                        .unwrap();
                    let d = comm.time_ns() - t0;
                    comm.notify(0, Tag::user(2)).unwrap();
                    d
                }
            });
            *durs.iter().skip(1).max().unwrap()
        };
        let t1 = latency(1);
        let t8 = latency(8);
        let t32 = latency(32);
        assert!(t8 > 2 * t1, "8 readers should contend: {t8} vs {t1}");
        assert!(t32 > 2 * t8, "32 readers superlinear: {t32} vs {t8}");
    }

    #[test]
    fn all_to_all_pattern_scales_without_lock_contention() {
        // Fig 2(a): distinct (reader, source) pairs — per-op latency
        // should stay nearly flat as pairs are added (only the shared
        // memory bandwidth saturates). Use a small message so bandwidth
        // sharing stays mild.
        let arch = ArchProfile::knl();
        let eta = 16 * 1024;
        let latency = |pairs: usize| {
            let p = 2 * pairs;
            let (_, durs) = run_team(&arch, p, move |comm| {
                let me = comm.rank();
                if me % 2 == 0 {
                    // Source: expose and wait.
                    let buf = comm.alloc(eta);
                    let tok = comm.expose(buf).unwrap();
                    comm.ctrl_send(me + 1, Tag::user(1), &tok.to_bytes())
                        .unwrap();
                    comm.wait_notify(me + 1, Tag::user(2)).unwrap();
                    0u64
                } else {
                    let raw = comm.ctrl_recv(me - 1, Tag::user(1)).unwrap();
                    let tok = kacc_comm::RemoteToken::from_bytes(&raw).unwrap();
                    let dst = comm.alloc(eta);
                    let t0 = comm.time_ns();
                    comm.cma_read(tok, 0, dst, 0, eta).unwrap();
                    let d = comm.time_ns() - t0;
                    comm.notify(me - 1, Tag::user(2)).unwrap();
                    d
                }
            });
            durs.iter().skip(1).step_by(2).copied().max().unwrap()
        };
        let t1 = latency(1);
        let t4 = latency(4);
        assert!(
            (t4 as f64) < 2.0 * t1 as f64,
            "independent pairs should not contend much: {t4} vs {t1}"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rank 1 finished while it owns a live flow")]
    fn finishing_with_a_live_flow_is_caught() {
        run_team(&ArchProfile::broadwell(), 2, |comm| {
            if comm.rank() == 1 {
                comm.ctx().with_state(|s, now| {
                    s.mems[0].update(now);
                    s.mems[0].add(1, 4096, 1.0);
                });
            }
        });
    }

    #[test]
    fn runs_are_deterministic() {
        let arch = ArchProfile::power8();
        let go = || {
            run_team(&arch, 16, |comm| {
                let me = comm.rank();
                let p = comm.size();
                let buf = comm.alloc(4096);
                comm.write_local(buf, 0, &[me as u8; 4096]).unwrap();
                let tok = comm.expose(buf).unwrap();
                let toks = kacc_comm::smcoll::sm_allgather(comm, &tok.to_bytes()).unwrap();
                let dst = comm.alloc(4096);
                let peer = (me + 1) % p;
                let t = kacc_comm::RemoteToken::from_bytes(&toks[peer]).unwrap();
                comm.cma_read(t, 0, dst, 0, 4096).unwrap();
                (comm.time_ns(), comm.read_all(dst).unwrap()[0])
            })
        };
        let (r1, v1) = go();
        let (r2, v2) = go();
        assert_eq!(v1, v2);
        assert_eq!(r1.end_ns, r2.end_ns);
        assert_eq!(r1.finish_ns, r2.finish_ns);
        // Data correctness: everyone read its ring neighbor's fill.
        for (me, (_, byte)) in v1.iter().enumerate() {
            assert_eq!(*byte as usize, (me + 1) % 16);
        }
    }

    #[test]
    fn traced_run_captures_timeline() {
        let arch = ArchProfile::broadwell();
        let (run, _, trace) = run_team_traced(&arch, 3, |comm| {
            let b = comm.alloc(8192);
            let tok = comm.expose(b).unwrap();
            let toks = kacc_comm::smcoll::sm_allgather(comm, &tok.to_bytes()).unwrap();
            let peer = (comm.rank() + 1) % 3;
            let t = kacc_comm::RemoteToken::from_bytes(&toks[peer]).unwrap();
            let dst = comm.alloc(8192);
            comm.cma_read(t, 0, dst, 0, 8192).unwrap();
        });
        assert!(run.end_ns > 0);
        assert!(!trace.is_empty());
        // Scheduler dispatch instants arrive in virtual-time order.
        let instants: Vec<&kacc_trace::Event> = trace
            .iter()
            .filter(|e| matches!(e.kind, kacc_trace::EventKind::Instant { .. }))
            .collect();
        assert!(!instants.is_empty());
        assert!(instants.windows(2).all(|w| w[0].ts() <= w[1].ts()));
        // The pin/copy dispatch labels of the CMA path must appear...
        assert!(trace.iter().any(|e| e.name == "pin:wait"));
        assert!(trace.iter().any(|e| e.name == "flow:wait"));
        // ...alongside the machine's phase spans and queue-depth counters.
        for phase in ["syscall", "check", "lock", "pin", "copy"] {
            assert!(
                trace.iter().any(
                    |e| e.name == phase && matches!(e.kind, kacc_trace::EventKind::Span { .. })
                ),
                "missing phase span {phase}"
            );
        }
        assert!(trace
            .iter()
            .any(|e| matches!(e.track, kacc_trace::Track::LockServer(_))
                && matches!(e.kind, kacc_trace::EventKind::Counter { .. })));
        // Transport spans carry the sm-collective tag class.
        assert!(trace
            .iter()
            .any(|e| e.name == "ctrl_send" && e.class.is_some()));
        let json = kacc_trace::chrome_trace_json(&trace);
        assert!(json.contains("pin:wait"));
        kacc_trace::validate::validate_chrome_json(&json).expect("trace export validates");
    }

    #[test]
    fn permission_denied_without_expose() {
        let (_, results) = run_team(&ArchProfile::broadwell(), 2, |comm| {
            if comm.rank() == 0 {
                let buf = comm.alloc(4096);
                // NOT exposed; ship a forged token anyway.
                let forged = kacc_comm::RemoteToken {
                    rank: 0,
                    token: buf.0,
                };
                comm.ctrl_send(1, Tag::user(1), &forged.to_bytes()).unwrap();
                comm.wait_notify(1, Tag::user(2)).unwrap();
                true
            } else {
                let raw = comm.ctrl_recv(0, Tag::user(1)).unwrap();
                let tok = kacc_comm::RemoteToken::from_bytes(&raw).unwrap();
                let dst = comm.alloc(4096);
                let err = comm.cma_read(tok, 0, dst, 0, 4096).unwrap_err();
                comm.notify(0, Tag::user(2)).unwrap();
                err == kacc_comm::CommError::PermissionDenied
            }
        });
        assert!(results[1]);
    }

    #[test]
    fn out_of_range_cma_is_rejected() {
        let (_, results) = run_team(&ArchProfile::broadwell(), 2, |comm| {
            if comm.rank() == 0 {
                let buf = comm.alloc(4096);
                let tok = comm.expose(buf).unwrap();
                comm.ctrl_send(1, Tag::user(1), &tok.to_bytes()).unwrap();
                comm.wait_notify(1, Tag::user(2)).unwrap();
                true
            } else {
                let raw = comm.ctrl_recv(0, Tag::user(1)).unwrap();
                let tok = kacc_comm::RemoteToken::from_bytes(&raw).unwrap();
                let dst = comm.alloc(8192);
                let err = comm.cma_read(tok, 4000, dst, 0, 8192).unwrap_err();
                comm.notify(0, Tag::user(2)).unwrap();
                matches!(err, kacc_comm::CommError::OutOfRange { .. })
            }
        });
        assert!(results[1]);
    }
}
