//! What a simulated team run reports: [`TeamRun`], assembled from the
//! final machine state by the harness in [`crate::polled`].

use crate::state::{MachineState, RankStats};
use kacc_metrics::LocalHist;
use kacc_sim_core::SimRunMetrics;
use std::sync::OnceLock;

/// Timing and counts from a completed team run. Phase times (syscall,
/// check, lock, pin, copy) are not here: a traced run's phase spans carry
/// them (see [`RankStats`]).
///
/// `PartialEq` compares every field, so the determinism suite can assert
/// whole runs bitwise-identical across repeats and job counts.
#[derive(Debug, Clone, PartialEq)]
pub struct TeamRun {
    /// Virtual time when the last rank finished, ns.
    pub end_ns: u64,
    /// Per-rank finish times, ns.
    pub finish_ns: Vec<u64>,
    /// Per-rank operation counts, on every path.
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
    /// Engine-level run metrics (queue traffic, wake fan-out).
    pub sim: SimRunMetrics,
    /// Queue-depth histogram merged across every page-lock server: one
    /// sample per pinning request, recording the active set it joined.
    pub lock_depth: LocalHist,
    /// Grant-time recomputations summed across all page-lock servers.
    pub lock_recaches: u64,
    /// Rate recomputations summed across all memory systems (node DRAM
    /// plus fabric egress/ingress links).
    pub mem_recaches: u64,
}

impl TeamRun {
    /// Operation counts summed across all ranks.
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
/// machine-layer metrics into the global registry.
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
    };
    let h = machine_handles();
    h.lock_depth.merge_local(&run.lock_depth);
    h.lock_recaches.add(run.lock_recaches);
    h.mem_recaches.add(run.mem_recaches);
    let total = run.total_stats();
    h.shm_ops.add(total.shm_ops);
    h.shm_bytes.add(total.shm_bytes);
    h.fallback_ops.add(total.fallback_ops);
    h.fallback_bytes.add(total.fallback_bytes);
    h.cma_ops.add(total.cma_ops);
    h.cma_bytes.add(total.bytes_read + total.bytes_written);
    run
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use crate::polled::{run_polled_team, run_polled_team_traced, PolledComm};
    use kacc_comm::{smcoll, CommError, RemoteToken, Tag};
    use kacc_model::ArchProfile;

    #[test]
    fn two_rank_cma_read_moves_data_and_time() {
        let arch = ArchProfile::broadwell();
        let (run, results, trace) = run_polled_team_traced(&arch, 2, |rank| async move {
            let comm = &mut PolledComm::new(rank);
            if rank == 0 {
                // Expose a 2-page buffer of 0xAB and send the token.
                let buf = comm.alloc(8192);
                comm.write_local(buf, 0, &[0xAB; 8192]).unwrap();
                let tok = comm.expose(buf).await.unwrap();
                comm.ctrl_send(1, Tag::user(1), &tok.to_bytes())
                    .await
                    .unwrap();
                // Wait for the reader's completion notification.
                comm.wait_notify(1, Tag::user(2)).await.unwrap();
                Vec::new()
            } else {
                let raw = comm.ctrl_recv(0, Tag::user(1)).await.unwrap();
                let tok = RemoteToken::from_bytes(&raw).unwrap();
                let dst = comm.alloc(8192);
                comm.cma_read(tok, 0, dst, 0, 8192).await.unwrap();
                comm.notify(0, Tag::user(2)).await.unwrap();
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
        for phase in ["lock", "pin", "copy"] {
            assert!(
                trace.iter().any(|e| e.track == kacc_trace::Track::Rank(1)
                    && e.name == phase
                    && matches!(e.kind, kacc_trace::EventKind::Span { dur, .. } if dur > 0.0)),
                "no {phase} time on the reader"
            );
        }
        assert_eq!(run.stats[1].bytes_read, 8192);
    }

    /// Per-reader latency of `readers` ranks each reading its own
    /// `eta`-byte slice of one exposed buffer on rank 0, or — with
    /// `pairs` — of `readers` distinct (reader, source) pairs.
    fn read_latency(arch: &ArchProfile, readers: usize, eta: usize, pairs: bool) -> u64 {
        let p = if pairs { 2 * readers } else { readers + 1 };
        let (_, durs) = run_polled_team(arch, p, move |rank| async move {
            let comm = &mut PolledComm::new(rank);
            let (source, slot) = if pairs {
                (rank - rank % 2, 0)
            } else {
                (0, rank.saturating_sub(1))
            };
            if rank == source {
                let buf = comm.alloc(if pairs { eta } else { eta * readers });
                let tok = comm.expose(buf).await.unwrap();
                let mine: Vec<usize> = if pairs {
                    vec![rank + 1]
                } else {
                    (1..=readers).collect()
                };
                for &r in &mine {
                    comm.ctrl_send(r, Tag::user(1), &tok.to_bytes())
                        .await
                        .unwrap();
                }
                for &r in &mine {
                    comm.wait_notify(r, Tag::user(2)).await.unwrap();
                }
                0u64
            } else {
                let raw = comm.ctrl_recv(source, Tag::user(1)).await.unwrap();
                let tok = RemoteToken::from_bytes(&raw).unwrap();
                let dst = comm.alloc(eta);
                let t0 = comm.time_ns();
                comm.cma_read(tok, slot * eta, dst, 0, eta).await.unwrap();
                let d = comm.time_ns() - t0;
                comm.notify(source, Tag::user(2)).await.unwrap();
                d
            }
        });
        durs.into_iter().max().unwrap()
    }

    #[test]
    fn contention_inflates_one_to_all_reads() {
        // One-to-all: many ranks read *different* offsets of rank 0's
        // buffer concurrently — the Fig 2(c) pattern. Compare against a
        // single reader: per-reader latency must inflate superlinearly.
        let arch = ArchProfile::knl();
        let latency = |readers| read_latency(&arch, readers, 64 * 1024, false);
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
        let latency = |pairs| read_latency(&arch, pairs, 16 * 1024, true);
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
        // The traced harness keeps the finish-time check: a rank that
        // leaves a flow on its node's memory system is reported.
        run_polled_team_traced(&ArchProfile::broadwell(), 2, |rank| async move {
            if rank == 1 {
                kacc_sim_core::polled::sim_with_state(|s: &mut crate::MachineState, now| {
                    s.mems[0].update(now);
                    s.mems[0].add(1, 4096, 1.0);
                });
            }
        });
    }

    /// Every rank exposes a buffer filled with its rank, hands the token
    /// to its left neighbour and reads its right neighbour's buffer.
    async fn ring_read(comm: &mut PolledComm, len: usize) -> (u64, u8) {
        let me = comm.rank();
        let p = comm.size();
        let buf = comm.alloc(len);
        comm.write_local(buf, 0, &vec![me as u8; len]).unwrap();
        let tok = comm.expose(buf).await.unwrap();
        let tag = Tag::internal(smcoll::class::ALLGATHER, 0);
        comm.ctrl_send((me + p - 1) % p, tag, &tok.to_bytes())
            .await
            .unwrap();
        let right = comm.ctrl_recv((me + 1) % p, tag).await.unwrap();
        let dst = comm.alloc(len);
        let t = RemoteToken::from_bytes(&right).unwrap();
        comm.cma_read(t, 0, dst, 0, len).await.unwrap();
        (comm.time_ns(), comm.read_all(dst).unwrap()[0])
    }

    #[test]
    fn runs_are_deterministic() {
        let arch = ArchProfile::power8();
        let go = || {
            run_polled_team(&arch, 16, |rank| async move {
                ring_read(&mut PolledComm::new(rank), 4096).await
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
        let (run, _, trace) = run_polled_team_traced(&arch, 3, |rank| async move {
            ring_read(&mut PolledComm::new(rank), 8192).await
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

    /// Rank 0 hands rank 1 `token` for a 4 KiB buffer (exposed or not);
    /// rank 1 reads `len` bytes at `off` from it and returns the error.
    fn refused_read(expose: bool, off: usize, len: usize) -> CommError {
        let (_, results) = run_polled_team(&ArchProfile::broadwell(), 2, move |rank| async move {
            let comm = &mut PolledComm::new(rank);
            if rank == 0 {
                let buf = comm.alloc(4096);
                let tok = if expose {
                    comm.expose(buf).await.unwrap()
                } else {
                    // NOT exposed; ship a forged token anyway.
                    RemoteToken {
                        rank: 0,
                        token: buf.0,
                    }
                };
                comm.ctrl_send(1, Tag::user(1), &tok.to_bytes())
                    .await
                    .unwrap();
                comm.wait_notify(1, Tag::user(2)).await.unwrap();
                None
            } else {
                let raw = comm.ctrl_recv(0, Tag::user(1)).await.unwrap();
                let tok = RemoteToken::from_bytes(&raw).unwrap();
                let dst = comm.alloc(len);
                let err = comm.cma_read(tok, off, dst, 0, len).await.unwrap_err();
                comm.notify(0, Tag::user(2)).await.unwrap();
                Some(err)
            }
        });
        results[1].clone().unwrap()
    }

    #[test]
    fn permission_denied_without_expose() {
        assert_eq!(refused_read(false, 0, 4096), CommError::PermissionDenied);
    }

    #[test]
    fn out_of_range_cma_is_rejected() {
        let err = refused_read(true, 4000, 8192);
        assert!(matches!(err, CommError::OutOfRange { .. }), "{err:?}");
    }
}
