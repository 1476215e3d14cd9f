//! Isolated probes: one layer's hot operation in a tight loop, timed from
//! outside, median of `REPS` repetitions. They run after the workload in
//! every traced run and do not depend on which workload that was; the
//! README says which end-to-end metric each should move, on which
//! workload.

use crate::api::{
    bcast, calibrate_native, compile_allgather, compile_scatter, execute, execute_traced,
    fit_gamma, levenberg_marquardt, metrics_snapshot, predict, ring_bytes, run_forked_collect,
    run_polled_team_phantom, run_threads, sim_advance, sim_poll, AllgatherAlgo, ArchProfile,
    BcastAlgo, Bindings, Chart, Comm, CommError, CommExt, GammaPoint, LmOptions, Mailboxes, MemSys,
    NullComm, PageLockServer, PlanCache, PlanKey, Poll, PolledComm, PolledSim, RemoteToken,
    ScatterAlgo, Schedule, Series, ShmRegion, Slot, SpscRing, Step, Tag, TokenReg, Tracer, Tuner,
};
use crate::{host, stats, Outcome};
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

const REPS: usize = 31;

/// The per-layer metrics [`run_all`] sets.
pub const NAMES: [&str; 26] = [
    "sim_core.pingpong_ns_per_event",
    "sim_core.advance_ns_per_event",
    "sim_core.mailbox_pair_ns",
    "machine.lock_cycle_ns_c1",
    "machine.lock_cycle_ns_c64",
    "machine.mem_cycle_ns_c1",
    "machine.mem_cycle_ns_c64",
    "machine.team_spawn_us_p64",
    "collectives.compile_us_scatter_p64",
    "collectives.compile_us_allgather_rd_p64",
    "collectives.plan_hit_ns",
    "collectives.plan_miss_evict_us",
    "collectives.exec_step_ns",
    "collectives.tuner_new_us",
    "trace.buffered_step_ns",
    "model.predict_ns",
    "model.gamma_fit_ms",
    "numerics.lm_fit_ms",
    "metrics.snapshot_us",
    "bench.render_chart_us",
    "native.ring_push_pop_ns",
    "native.thread_bcast_us_1m",
    "native.cma_read_us_4k",
    "native.cma_read_us_1m",
    "native.alpha_us",
    "native.beta_gbps",
];

/// Median over `REPS` runs of `f`, which returns one measurement.
fn med(mut f: impl FnMut() -> f64) -> f64 {
    let xs: Vec<f64> = (0..REPS).map(|_| f()).collect();
    stats::median(&xs)
}

/// Median wall ns of one of `n` back-to-back calls of `f`.
fn per_call_ns<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    med(|| {
        let t = Instant::now();
        for _ in 0..n {
            black_box(f());
        }
        t.elapsed().as_nanos() as f64 / n as f64
    })
}

fn sim_core(out: &mut Outcome) {
    const ROUNDS: u64 = 4000;
    out.set(
        "sim_core.pingpong_ns_per_event",
        med(|| {
            let mut sim = PolledSim::new(0u64);
            for me in 0..2usize {
                sim.spawn(move |_tid| async move {
                    for _ in 0..ROUNDS {
                        sim_poll("turn", move |count: &mut u64, w, now| {
                            if *count as usize % 2 == me {
                                *count += 1;
                                w.wake_at(1 - me, now + 1);
                                Poll::Ready(())
                            } else {
                                Poll::Wait { wake_at: None }
                            }
                        })
                        .await;
                    }
                });
            }
            let t = Instant::now();
            let events = sim.run().events;
            t.elapsed().as_nanos() as f64 / events as f64
        }),
    );
    out.set(
        "sim_core.advance_ns_per_event",
        med(|| {
            let mut sim = PolledSim::new(());
            sim.spawn(move |_tid| async move {
                for _ in 0..2 * ROUNDS {
                    sim_advance::<()>(3).await;
                }
            });
            let t = Instant::now();
            let events = sim.run().events;
            t.elapsed().as_nanos() as f64 / events as f64
        }),
    );
    // A `Waker` only exists inside a poll evaluation, so the pair runs
    // there: one deposit and one take per evaluation, no queue traffic.
    out.set(
        "sim_core.mailbox_pair_ns",
        med(|| {
            let mut sim = PolledSim::new(Mailboxes::new());
            sim.spawn(move |tid| async move {
                for _ in 0..2 * ROUNDS {
                    sim_poll("pair", move |mb: &mut Mailboxes, w, now| {
                        mb.deposit(w, 0, 0, 7, now, Vec::new());
                        mb.take(tid, 0, 0, 7, now)
                    })
                    .await;
                }
            });
            let t = Instant::now();
            sim.run();
            t.elapsed().as_nanos() as f64 / (2 * ROUNDS) as f64
        }),
    );
}

fn machine(out: &mut Outcome) {
    const CYCLES: usize = 2000;
    let knl = ArchProfile::knl();
    for (name, live) in [
        ("machine.lock_cycle_ns_c1", 1),
        ("machine.lock_cycle_ns_c64", 64),
    ] {
        out.set(
            name,
            med(|| {
                let mut srv =
                    PageLockServer::new(knl.l_lock_ns, knl.l_pin_ns, knl.k_bounce, knl.x_socket);
                for tid in 1..live {
                    srv.add(tid, 0, usize::MAX >> 16);
                }
                let mut now = 0u64;
                let t = Instant::now();
                for _ in 0..CYCLES {
                    srv.update(now);
                    let id = srv.add(0, 0, 16);
                    now = srv.eta(id, now);
                    srv.update(now);
                    srv.remove_with(id, now, |tid, at| {
                        black_box((tid, at));
                    });
                }
                t.elapsed().as_nanos() as f64 / CYCLES as f64
            }),
        );
    }
    for (name, live) in [
        ("machine.mem_cycle_ns_c1", 1),
        ("machine.mem_cycle_ns_c64", 64),
    ] {
        out.set(
            name,
            med(|| {
                let mut mem = MemSys::new(knl.bw_total);
                for tid in 1..live {
                    mem.add(tid, usize::MAX >> 16, knl.bw_core);
                }
                let mut now = 0u64;
                let t = Instant::now();
                for _ in 0..CYCLES {
                    mem.update(now);
                    let id = mem.add(0, 64 << 10, knl.bw_core);
                    now = mem.eta(id, now);
                    mem.update(now);
                    mem.remove_with(id, now, |tid, at| {
                        black_box((tid, at));
                    });
                }
                t.elapsed().as_nanos() as f64 / CYCLES as f64
            }),
        );
    }
    out.set(
        "machine.team_spawn_us_p64",
        per_call_ns(1, || {
            run_polled_team_phantom(&knl, 64, |rank| async move {
                black_box(PolledComm::new(rank).rank());
            })
        }) / 1e3,
    );
}

/// The 513-step single-rank plan of the `trace_overhead` bench: expose
/// once, then bounce a 64-byte block Send → Temp → Recv 256 times, so
/// the time is executor bookkeeping, not copying.
fn step_dense_schedule() -> Schedule {
    const BLOCK: usize = 64;
    let mut steps = vec![Step::Expose {
        slot: Slot::Send,
        reg: TokenReg(0),
    }];
    for _ in 0..256 {
        for (src, dst) in [(Slot::Send, Slot::Temp(0)), (Slot::Temp(0), Slot::Recv)] {
            steps.push(Step::CopyLocal {
                src,
                src_off: 0,
                dst,
                dst_off: 0,
                len: BLOCK,
            });
        }
    }
    Schedule {
        p: 1,
        rank: 0,
        token_regs: 1,
        temps: vec![BLOCK],
        steps,
        class: None,
    }
}

fn collectives(out: &mut Outcome) {
    let p = 64;
    let count = 64 << 10;
    let layout: Vec<(usize, usize)> = (0..p).map(|r| (r * count, count)).collect();
    let algo = ScatterAlgo::ThrottledRead { k: 8 };
    // Cold compiles of one whole team's plans (every rank's schedule).
    out.set(
        "collectives.compile_us_scatter_p64",
        per_call_ns(4, || {
            (0..p)
                .map(|rank| compile_scatter(algo, p, rank, &layout, 0, true).steps.len())
                .sum::<usize>()
        }) / 1e3,
    );
    out.set(
        "collectives.compile_us_allgather_rd_p64",
        per_call_ns(1, || {
            (0..p)
                .map(|rank| {
                    let algo = AllgatherAlgo::RecursiveDoubling;
                    compile_allgather(algo, p, rank, count, true).steps.len()
                })
                .sum::<usize>()
        }) / 1e3,
    );
    let key = |count: usize| PlanKey::Scatter {
        algo,
        p,
        rank: 0,
        counts: vec![count; p],
        displs: None,
        root: 0,
        has_recvbuf: true,
    };
    let cache = PlanCache::new(8);
    cache.get_or_compile(key(count), || compile_scatter(algo, p, 0, &layout, 0, true));
    out.set(
        "collectives.plan_hit_ns",
        per_call_ns(500, || {
            cache.get_or_compile(key(count), || unreachable!("the plan is cached"))
        }),
    );
    // A miss into a full cache of the global cache's capacity: the LRU
    // victim scan. The compiled plan is empty so only the cache is timed.
    let full = PlanCache::new(PlanCache::DEFAULT_CAPACITY);
    let empty_plan = || Schedule {
        p,
        rank: 0,
        token_regs: 0,
        temps: Vec::new(),
        steps: Vec::new(),
        class: None,
    };
    let mut next = 0;
    for _ in 0..PlanCache::DEFAULT_CAPACITY {
        next += 1;
        full.get_or_compile(key(next), empty_plan);
    }
    out.set(
        "collectives.plan_miss_evict_us",
        per_call_ns(20, || {
            next += 1;
            full.get_or_compile(key(next), empty_plan)
        }) / 1e3,
    );

    let sched = step_dense_schedule();
    let mut comm = NullComm::new();
    let bind = Bindings {
        send: Some(comm.alloc(64)),
        recv: Some(comm.alloc(64)),
    };
    let steps = sched.steps.len() as f64;
    out.set(
        "collectives.exec_step_ns",
        per_call_ns(20, || {
            execute(&mut comm, &sched, &bind).expect("null transport")
        }) / steps,
    );
    let (tracer, buffer) = Tracer::buffered();
    out.set(
        "trace.buffered_step_ns",
        per_call_ns(20, || {
            let report = execute_traced(&mut comm, &sched, &bind, &tracer).expect("null transport");
            black_box(buffer.take());
            report
        }) / steps,
    );
    let knl = ArchProfile::knl();
    out.set(
        "collectives.tuner_new_us",
        per_call_ns(200, || Tuner::new(&knl)) / 1e3,
    );
}

fn model_and_rest(out: &mut Outcome) {
    let m = ArchProfile::knl().nominal_model();
    out.set(
        "model.predict_ns",
        per_call_ns(200, || {
            predict::scatter_throttled_read(&m, 64, 256 << 10, 4)
                + predict::allgather_bruck(&m, 64, 256 << 10)
                + predict::bcast_knomial(&m, 64, 256 << 10, 4)
                + predict::alltoall_pairwise(&m, 64, 256 << 10)
        }) / 4.0,
    );
    let gamma: Vec<GammaPoint> = (1..=64)
        .map(|c| GammaPoint {
            c,
            gamma: 0.02 * (c * c) as f64 + 1.5 * c as f64,
        })
        .collect();
    out.set(
        "model.gamma_fit_ms",
        per_call_ns(1, || fit_gamma(&gamma).expect("quadratic data fits")) / 1e6,
    );
    let xs: Vec<f64> = (0..60).map(|i| f64::from(i) * 0.1).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 2.5 * (-0.7 * x).exp() + 0.3).collect();
    out.set(
        "numerics.lm_fit_ms",
        per_call_ns(1, || {
            let model = |x: f64, p: &[f64]| p[0] * (p[1] * x).exp() + p[2];
            levenberg_marquardt(model, &xs, &ys, &[1.0, -0.1, 0.0], LmOptions::default())
                .expect("exponential data fits")
        }) / 1e6,
    );
    out.set(
        "metrics.snapshot_us",
        per_call_ns(50, metrics_snapshot) / 1e3,
    );
    let sizes: Vec<usize> = (10..=22).step_by(2).map(|s| 1 << s).collect();
    let mut chart = Chart::new(
        "probe",
        "render probe",
        "Message Size (Bytes)",
        "Latency (us)",
    );
    for s in 0..4 {
        let ys: Vec<f64> = sizes.iter().map(|&x| (x * (s + 1)) as f64 / 1e3).collect();
        chart
            .series
            .push(Series::new(format!("series {s}"), &sizes, &ys));
    }
    out.set(
        "bench.render_chart_us",
        per_call_ns(20, || {
            chart.to_text(|x| x.to_string()).len() + chart.to_csv(|x| x.to_string()).len()
        }) / 1e3,
    );
}

/// One forked pair: rank 1 reads `bytes` from rank 0 `REPS` times (after
/// one warming read) and reports the median, µs.
fn cma_read_us(bytes: usize, cpus: Arc<Vec<usize>>) -> Result<f64, String> {
    let slots = run_forked_collect(2, REPS, move |comm| {
        if !cpus.is_empty() {
            host::pin_to(cpus[comm.rank() % cpus.len()]);
        }
        if comm.rank() == 0 {
            let b = comm.alloc_with(&vec![0xA5u8; bytes]);
            let tok = comm.expose(b)?;
            comm.ctrl_send(1, Tag::user(1), &tok.to_bytes())?;
            comm.wait_notify(1, Tag::user(2))
        } else {
            let raw = comm.ctrl_recv(0, Tag::user(1))?;
            let tok =
                RemoteToken::from_bytes(&raw).ok_or(CommError::Protocol("bad token".into()))?;
            let dst = comm.alloc_with(&vec![0u8; bytes]);
            comm.cma_read(tok, 0, dst, 0, bytes)?;
            for i in 0..REPS {
                let t = Instant::now();
                comm.cma_read(tok, 0, dst, 0, bytes)?;
                let ns = t.elapsed().as_nanos() as u64;
                comm.result_slot(i).store(ns.max(1), Ordering::SeqCst);
            }
            comm.notify(0, Tag::user(2))
        }
    })
    .map_err(|e| e.to_string())?;
    let us: Vec<f64> = slots.iter().map(|&ns| ns as f64 / 1e3).collect();
    Ok(stats::median(&us))
}

fn native(out: &mut Outcome, cpus: &[usize]) {
    const FRAME: [u8; 64] = [0x5A; 64];
    const RING_CAP: usize = 4096;
    let shm = ShmRegion::new(ring_bytes(RING_CAP)).expect("4 KiB anonymous mapping");
    // SAFETY: the mapping is zeroed, `ring_bytes(RING_CAP)` long, outlives
    // `ring`, and this thread is the ring's only producer and consumer.
    let ring = unsafe { SpscRing::attach(shm.as_ptr(), RING_CAP) };
    out.set(
        "native.ring_push_pop_ns",
        per_call_ns(2000, || {
            ring.push(1, &FRAME);
            ring.try_pop()
        }),
    );

    const MIB: usize = 1 << 20;
    let per_rank: Vec<Vec<f64>> = run_threads(2, |comm| {
        let buf = comm.alloc_with(&vec![comm.rank() as u8 + 1; MIB]);
        (0..REPS)
            .map(|_| {
                let t = Instant::now();
                bcast(comm, BcastAlgo::KNomial { radix: 2 }, buf, MIB, 0).expect("thread bcast");
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect()
    });
    let slowest = per_rank
        .iter()
        .map(|r| stats::median(r))
        .fold(0.0, f64::max);
    out.set("native.thread_bcast_us_1m", slowest);

    // The forked probes want a CPU per rank; from here on the parent may
    // run anywhere the process was allowed to at start.
    host::allow(cpus);
    let cpus = Arc::new(cpus.to_vec());
    for (name, bytes) in [
        ("native.cma_read_us_4k", 4 << 10),
        ("native.cma_read_us_1m", MIB),
    ] {
        match cma_read_us(bytes, Arc::clone(&cpus)) {
            Ok(us) => out.set(name, us),
            Err(e) => {
                out.set(name, 0.0);
                out.fail(format!("{name}: {e}"));
            }
        }
    }
    match calibrate_native(5) {
        Ok(c) => {
            out.set("native.alpha_us", c.alpha_ns / 1e3);
            out.set("native.beta_gbps", c.bandwidth_gbps());
        }
        Err(e) => {
            out.set("native.alpha_us", 0.0);
            out.set("native.beta_gbps", 0.0);
            out.fail(format!("calibrate_native: {e}"));
        }
    }
}

/// Run every probe and add its metric to `out`. `cpus` is the set the
/// process could run on before it pinned itself.
pub fn run_all(out: &mut Outcome, cpus: &[usize]) {
    let t = Instant::now();
    sim_core(out);
    machine(out);
    collectives(out);
    model_and_rest(out);
    native(out, cpus);
    out.note(format!(
        "isolated probes: median of {REPS} repetitions each, {:.1} s in all",
        t.elapsed().as_secs_f64()
    ));
}
