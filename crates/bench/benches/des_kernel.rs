//! DES kernel throughput: wall-clock cost per simulated event.
//!
//! Every figure in the reproduction is a sweep of `run_polled_team`
//! points, so the kernel's per-event overhead (queue traffic, task polls,
//! wake delivery) multiplies into everything. This bench pins the cost:
//!
//! * `one_to_all_p64_polled` — the paper's contention microbenchmark at
//!   p=64 (65 simulated ranks, fluid-server wake storms): the PR-4/PR-6
//!   acceptance gates measure events/sec here.
//! * `advance_heavy_polled` — a single task burning timer self-wakes,
//!   the direct-handoff fast path's best case.
//! * `pingpong_polled` — two tasks strictly alternating via external
//!   wakes: every event is a queue pop.
//! * `cma_read_multibatch_polled` — 16 ranks each reading 1 MiB (four
//!   pin batches of 64 pages) from a distinct peer, eight times over: the
//!   per-operation path of a kernel-assisted transfer with no lock
//!   contention. One read is nine dispatches (entry timer, then a pin
//!   wait and a copy wait per batch) stepped by the machine, and two
//!   polls of the rank's future (one starts it, one collects it).
//! * `mailbox_pair_polled` — one `Mailboxes` deposit and the matching
//!   take per poll evaluation on one task, no queue traffic: the same
//!   loop as the benchmark's `sim_core.mailbox_pair_ns` probe, so the two
//!   numbers can be checked against each other (ns per iter / pairs).
//! * `shm_bulk_pingpong_polled_{phantom,real}` — two ranks bouncing a
//!   1 MiB `shm_send_data` / `shm_recv_data` message 32 times: the
//!   per-message cost of the bulk message plane. Same events and virtual
//!   time in both variants; a phantom team's message is a length (no
//!   allocation, no byte touched), a real team's is copied once out of
//!   the sender's heap and once into the receiver's.
//!
//! Simulated-event counts per iteration are deterministic, so
//! events/sec = events-per-iter / (ns-per-iter · 1e-9); each benchmark
//! prints its event count and a one-shot events/sec estimate once so the
//! conversion is mechanical.

use criterion::{criterion_group, criterion_main, Criterion};
use kacc_bench::measure::one_to_all_read_ns;
use kacc_comm::{RemoteToken, Tag};
use kacc_machine::polled::sm_barrier_polled;
use kacc_machine::{run_polled_team, run_polled_team_phantom, PolledComm};
use kacc_model::ArchProfile;
use kacc_sim_core::polled::{sim_advance, sim_poll, PolledSim};
use kacc_sim_core::{total_events, Mailboxes, Poll};
use std::hint::black_box;
use std::time::Duration;

/// Events processed by `f` (deterministic, so one probe run suffices),
/// plus a single-run events/sec estimate for the printed summary.
fn probe(f: impl Fn()) -> (u64, f64) {
    let before = total_events();
    let t0 = std::time::Instant::now();
    f();
    let secs = t0.elapsed().as_secs_f64();
    let events = total_events() - before;
    (events, events as f64 / secs.max(1e-9))
}

fn one_to_all(arch: &ArchProfile) -> f64 {
    one_to_all_read_ns(arch, 64, 64 << 10, false)
}

fn advance_heavy_polled(steps: u64) -> u64 {
    let mut sim = PolledSim::new(());
    sim.spawn(move |_tid| async move {
        for _ in 0..steps {
            sim_advance::<()>(3).await;
        }
    });
    sim.run().end_time
}

fn pingpong_polled(rounds: u64) -> u64 {
    let mut sim = PolledSim::new(0u64);
    for me in 0..2usize {
        sim.spawn(move |_tid| async move {
            let peer = 1 - me;
            for _ in 0..rounds {
                sim_poll("turn", move |count: &mut u64, w, now| {
                    if *count as usize % 2 == me {
                        *count += 1;
                        w.wake_at(peer, now + 1);
                        Poll::Ready(())
                    } else {
                        Poll::Wait { wake_at: None }
                    }
                })
                .await;
            }
        });
    }
    sim.run().end_time
}

fn mailbox_pairs_polled(pairs: u64) -> u64 {
    let mut sim = PolledSim::new(Mailboxes::new());
    sim.spawn(move |tid| async move {
        for _ in 0..pairs {
            // A `Waker` only exists inside a poll evaluation, so the pair
            // runs there.
            sim_poll("pair", move |mb: &mut Mailboxes, w, now| {
                mb.deposit(w, 0, 0, 7, now, Vec::new());
                mb.take(tid, 0, 0, 7, now)
            })
            .await;
        }
    });
    sim.run().state.delivered
}

fn cma_read_multibatch_polled(arch: &ArchProfile) -> u64 {
    const P: usize = 16;
    const LEN: usize = 1 << 20;
    const READS: usize = 8;
    let (run, _) = run_polled_team_phantom(arch, P, |rank| async move {
        let mut comm = PolledComm::new(rank);
        let src = comm.alloc(LEN);
        let own = comm.expose(src).await.expect("own buffer");
        let dst = comm.alloc(LEN);
        sm_barrier_polled(&mut comm).await.expect("barrier");
        // Every rank exposed its first allocation, so the peer's token
        // differs from ours in the rank alone.
        let peer = RemoteToken {
            rank: ((rank + 1) % P) as u64,
            ..own
        };
        for _ in 0..READS {
            comm.cma_read(peer, 0, dst, 0, LEN).await.expect("read");
        }
    });
    run.end_ns
}

fn shm_bulk_pingpong_polled(arch: &ArchProfile, phantom: bool) -> u64 {
    const LEN: usize = 1 << 20;
    const ROUNDS: u32 = 32;
    let body = |rank: usize| async move {
        let mut comm = PolledComm::new(rank);
        let buf = comm.alloc(LEN);
        let peer = 1 - rank;
        for round in 0..ROUNDS {
            let tag = Tag::user(round);
            if rank == 0 {
                comm.shm_send_data(peer, tag, buf, 0, LEN)
                    .await
                    .expect("ping");
                comm.shm_recv_data(peer, tag, buf, 0, LEN)
                    .await
                    .expect("pong");
            } else {
                comm.shm_recv_data(peer, tag, buf, 0, LEN)
                    .await
                    .expect("ping");
                comm.shm_send_data(peer, tag, buf, 0, LEN)
                    .await
                    .expect("pong");
            }
        }
    };
    let (run, _) = if phantom {
        run_polled_team_phantom(arch, 2, body)
    } else {
        run_polled_team(arch, 2, body)
    };
    run.end_ns
}

fn bench(c: &mut Criterion) {
    let knl = ArchProfile::knl();

    let mut g = c.benchmark_group("des_kernel");
    g.sample_size(12)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));

    let (events, eps) = probe(|| {
        one_to_all(&knl);
    });
    println!(
        "des_kernel/one_to_all_p64_polled: {events} simulated events per iter (~{eps:.0} events/sec)"
    );
    g.bench_function("one_to_all_p64_polled", |b| {
        b.iter(|| black_box(one_to_all(black_box(&knl))))
    });

    let steps = 20_000u64;
    assert_eq!(advance_heavy_polled(steps), 3 * steps);
    let (events, eps) = probe(|| {
        advance_heavy_polled(steps);
    });
    println!(
        "des_kernel/advance_heavy_polled: {events} simulated events per iter (~{eps:.0} events/sec)"
    );
    g.bench_function("advance_heavy_polled", |b| {
        b.iter(|| black_box(advance_heavy_polled(black_box(steps))))
    });

    let rounds = 5_000u64;
    let (events, eps) = probe(|| {
        pingpong_polled(rounds);
    });
    println!(
        "des_kernel/pingpong_polled: {events} simulated events per iter (~{eps:.0} events/sec)"
    );
    g.bench_function("pingpong_polled", |b| {
        b.iter(|| black_box(pingpong_polled(black_box(rounds))))
    });

    let (events, eps) = probe(|| {
        cma_read_multibatch_polled(&knl);
    });
    println!(
        "des_kernel/cma_read_multibatch_polled: {events} simulated events per iter (~{eps:.0} events/sec)"
    );
    g.bench_function("cma_read_multibatch_polled", |b| {
        b.iter(|| black_box(cma_read_multibatch_polled(black_box(&knl))))
    });

    let pairs = 10_000u64;
    assert_eq!(mailbox_pairs_polled(pairs), pairs);
    println!("des_kernel/mailbox_pair_polled: {pairs} deposit+take pairs per iter");
    g.bench_function("mailbox_pair_polled", |b| {
        b.iter(|| black_box(mailbox_pairs_polled(black_box(pairs))))
    });

    assert_eq!(
        shm_bulk_pingpong_polled(&knl, true),
        shm_bulk_pingpong_polled(&knl, false)
    );
    for (name, phantom) in [
        ("shm_bulk_pingpong_polled_phantom", true),
        ("shm_bulk_pingpong_polled_real", false),
    ] {
        let (events, eps) = probe(|| {
            shm_bulk_pingpong_polled(&knl, phantom);
        });
        println!(
            "des_kernel/{name}: {events} simulated events, 64 messages of 1 MiB per iter (~{eps:.0} events/sec)"
        );
        g.bench_function(name, |b| {
            b.iter(|| black_box(shm_bulk_pingpong_polled(black_box(&knl), phantom)))
        });
    }

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
