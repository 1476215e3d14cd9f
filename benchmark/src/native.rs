//! `native_cma`: the one workload in real nanoseconds. A forked
//! `NativeComm` team runs five collectives through compile → `PlanCache`
//! → blocking executor → SPSC rings → `process_vm_readv/writev`.
//!
//! p = 2 because the box has two CPUs: the ranks wait by spin-yield, and
//! an oversubscribed team measures the scheduler. Per call the ranks
//! barrier, run the collective, and the call's latency is the slowest
//! rank's time from barrier exit to completion. Sources are filled with
//! `verify` patterns and every destination is written once before timing
//! (reads of never-written pages are served from the zero page and
//! measure nothing). The last call of every block lands in a cleared
//! buffer and is checked byte for byte, every pass.

use crate::api::{
    cma_available, run_forked_collect, AllgatherAlgo, AlltoallAlgo, ArchProfile, BcastAlgo, BufId,
    Comm, CommError, CommExt, GatherAlgo, NativeComm, ScatterAlgo, ShmRegion,
};
use crate::cases::Case;
use crate::stats::{self, Fastest, Rng};
use crate::trace::Recorder;
use crate::{host, points, sim, smoke, Outcome};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const P: usize = 2;
const SMALL: usize = 4 << 10;
const LARGE: usize = 1 << 20;
const SMALL_CALLS: usize = 2000;
const LARGE_CALLS: usize = 100;
/// Room for this many passes in the shared record area.
const MAX_PASSES: usize = 400;
/// Passes of a traced run that get per-call spans.
const SPAN_PASSES: usize = 3;

const PTRACE_HINT: &str = "cross-process CMA is denied here: process_vm_readv needs same-UID \
     ptrace access (sysctl kernel.yama.ptrace_scope <= 1, or CAP_SYS_PTRACE)";

/// One (collective, size) block of a pass: `calls` back-to-back calls.
#[derive(Clone)]
struct Block {
    case: Case,
    eta: usize,
    calls: usize,
    large: bool,
}

impl Block {
    /// Payload bytes one call delivers into other ranks' buffers.
    fn payload(&self) -> usize {
        match self.case {
            Case::Allgather(_) | Case::Alltoall(_) => P * (P - 1) * self.eta,
            _ => (P - 1) * self.eta,
        }
    }
}

fn cases() -> [Case; 5] {
    [
        Case::Bcast(BcastAlgo::KNomial { radix: 2 }),
        Case::Scatter(ScatterAlgo::ParallelRead),
        Case::Gather(GatherAlgo::ParallelWrite),
        Case::Allgather(AllgatherAlgo::RingSourceRead),
        Case::Alltoall(AlltoallAlgo::Pairwise),
    ]
}

/// The pass for `seed`: sizes moved a few per cent, block order shuffled.
fn blocks(seed: u64) -> Vec<Block> {
    let mut rng = Rng::new(seed ^ 0x6e61_7469);
    let mut out = Vec::new();
    for case in cases() {
        for (eta, calls, large) in [(SMALL, SMALL_CALLS, false), (LARGE, LARGE_CALLS, true)] {
            out.push(Block {
                case,
                eta: rng.jitter(eta),
                calls,
                large,
            });
        }
    }
    rng.shuffle(&mut out);
    out
}

// Word offsets in the shared area.
const W_STOP: usize = 0;
const W_VERIFIED: usize = 1;
const W_MISMATCH: usize = 2;
const W_RSS_KB: usize = 4;
const W_SCRATCH: usize = 8;
const W_RECORDS: usize = 16;
/// Words per recorded call: start, latency, barrier (all ns).
const CALL_WORDS: usize = 3;

/// `u64` cells in an anonymous shared mapping made before the fork: the
/// channel from the ranks to the parent, and between the ranks.
struct Shared {
    region: ShmRegion,
    words: usize,
}

impl Shared {
    fn new(words: usize) -> Result<Shared, String> {
        let region = ShmRegion::new(words * 8).map_err(|e| format!("shared area: {e}"))?;
        Ok(Shared { region, words })
    }

    fn at(&self, i: usize) -> &AtomicU64 {
        assert!(i < self.words, "shared word {i} out of {}", self.words);
        // SAFETY: the mapping is page-aligned, zero-initialised, lives as
        // long as `self`, and word `i` lies inside it (asserted above);
        // every access from any process goes through this atomic view.
        unsafe { &*(self.region.at(i * 8, 8) as *const AtomicU64) }
    }
}

struct PassRec {
    start_ns: u64,
    wall_ns: u64,
    /// `(start_ns, latency_ns, barrier_ns)` per call, in execution order.
    calls: Vec<(u64, u64, u64)>,
}

struct TeamData {
    passes: Vec<PassRec>,
    verified: u64,
    mismatches: u64,
    rss_mb: f64,
}

/// Fork the team and run passes until `budget_s` has passed since the
/// end of the first pass (at least one more), or exactly one pass when
/// there is no budget.
fn team_run(
    blocks: &[Block],
    cpus: &[usize],
    origin: Instant,
    budget_s: Option<f64>,
) -> Result<TeamData, String> {
    let calls_per_pass: usize = blocks.iter().map(|b| b.calls).sum();
    let stride = 2 + CALL_WORDS * calls_per_pass;
    let max_passes = if budget_s.is_some() { MAX_PASSES } else { 1 };
    let shared = Shared::new(W_RECORDS + stride * max_passes)?;
    let now = move || origin.elapsed().as_nanos() as u64;

    let body = |comm: &mut NativeComm| -> Result<(), CommError> {
        let rank = comm.rank();
        if !cpus.is_empty() {
            host::pin_to(cpus[rank % cpus.len()]);
        }
        // Bind, fill and touch every buffer, and work out what each
        // block must deliver, before anything is timed.
        let mut bufs: Vec<(Option<BufId>, Option<BufId>)> = Vec::new();
        let mut checks: Vec<Option<(BufId, Vec<u8>, bool)>> = Vec::new();
        for blk in blocks {
            let (_, lb) = blk.case.buf_lens(rank, P, blk.eta);
            let a = blk
                .case
                .fill_a(rank, P, blk.eta)
                .map(|d| comm.alloc_with(&d));
            let b = lb.map(|n| comm.alloc_with(&vec![0xEE; n]));
            let is_source = matches!(blk.case, Case::Bcast(_)) && rank == 0;
            checks.push(blk.case.expected(rank, P, blk.eta).map(|(in_a, want)| {
                let buf = if in_a { a } else { b }.expect("result buffer is bound");
                (buf, want, !is_source)
            }));
            bufs.push((a, b));
        }
        let mut measure_start = None;
        for pass in 0..max_passes {
            comm.barrier_wait();
            let base = W_RECORDS + stride * pass;
            let pass_start = now();
            let mut call_no = 0;
            for (blk, (&(a, b), check)) in blocks.iter().zip(bufs.iter().zip(&checks)) {
                for call in 0..blk.calls {
                    if call + 1 == blk.calls {
                        if let Some((buf, want, true)) = check {
                            comm.write_local(*buf, 0, &vec![0; want.len()])?;
                        }
                    }
                    let arrive = now();
                    comm.barrier_wait();
                    let t0 = now();
                    blk.case.blocking(comm, a, b, blk.eta)?;
                    let dt = now() - t0;
                    shared.at(W_SCRATCH + rank).store(dt, Ordering::SeqCst);
                    comm.barrier_wait();
                    if rank == 0 {
                        // The other ranks cannot overwrite their scratch
                        // word before rank 0 joins the next barrier.
                        let lat = (0..P)
                            .map(|r| shared.at(W_SCRATCH + r).load(Ordering::SeqCst))
                            .max()
                            .unwrap_or(dt);
                        let at = base + 2 + CALL_WORDS * call_no;
                        shared.at(at).store(t0, Ordering::Relaxed);
                        shared.at(at + 1).store(lat.max(1), Ordering::Relaxed);
                        shared.at(at + 2).store(t0 - arrive, Ordering::Relaxed);
                    }
                    call_no += 1;
                }
                if let Some((buf, want, _)) = check {
                    let ok = comm.read_all(*buf)? == *want;
                    let word = if ok { W_VERIFIED } else { W_MISMATCH };
                    shared.at(word).fetch_add(1, Ordering::SeqCst);
                }
            }
            if rank == 0 {
                shared.at(base).store(pass_start, Ordering::Relaxed);
                shared
                    .at(base + 1)
                    .store(now() - pass_start, Ordering::Relaxed);
                let start = *measure_start.get_or_insert_with(Instant::now);
                let done = match budget_s {
                    None => true,
                    Some(s) => pass >= 1 && start.elapsed().as_secs_f64() >= s,
                };
                if done || pass + 1 == max_passes {
                    shared.at(W_STOP).store(pass as u64 + 1, Ordering::SeqCst);
                }
            }
            comm.barrier_wait();
            if shared.at(W_STOP).load(Ordering::SeqCst) != 0 {
                break;
            }
        }
        let kb = (host::peak_rss_mb() * 1024.0) as u64;
        shared.at(W_RSS_KB + rank).store(kb, Ordering::SeqCst);
        Ok(())
    };
    run_forked_collect(P, 0, body).map_err(|e| e.to_string())?;

    let word = |i: usize| shared.at(i).load(Ordering::SeqCst);
    let passes = (0..word(W_STOP) as usize)
        .map(|pass| {
            let base = W_RECORDS + stride * pass;
            PassRec {
                start_ns: word(base),
                wall_ns: word(base + 1),
                calls: (0..calls_per_pass)
                    .map(|c| {
                        let at = base + 2 + CALL_WORDS * c;
                        (word(at), word(at + 1), word(at + 2))
                    })
                    .collect(),
            }
        })
        .collect();
    Ok(TeamData {
        passes,
        verified: word(W_VERIFIED),
        mismatches: word(W_MISMATCH),
        rss_mb: (0..P).map(|r| word(W_RSS_KB + r)).max().unwrap_or(0) as f64 / 1024.0,
    })
}

/// What the polled simulator predicts for the same call list on a
/// two-rank Broadwell node, ns: this workload's `virtual_ms`, and the
/// number ROADMAP item 3 (sim vs real) starts from.
fn simulated_twin_ns(blocks: &[Block]) -> f64 {
    let arch = ArchProfile::broadwell();
    blocks
        .iter()
        .map(|blk| {
            let out = points::polled_case(&arch, P, blk.case, blk.eta);
            out.virtual_ns as f64 * blk.calls as f64
        })
        .sum()
}

struct Ready {
    blocks: Vec<Block>,
    twin_ns: f64,
    smoke_checks: u64,
}

/// Smoke checks, the simulated twin, and a forked team running the warm
/// pass (the page faults, plan compiles and ring set-up a user pays
/// once). Also returns the host ns of those three parts.
fn set_up(seed: u64, cpus: &[usize], origin: Instant) -> Result<(Ready, [u64; 3]), String> {
    let blocks = blocks(seed);
    let t0 = Instant::now();
    let smoke_checks = smoke::run(&cases(), &[])?;
    let t1 = Instant::now();
    let twin_ns = simulated_twin_ns(&blocks);
    let t2 = Instant::now();
    let warm = team_run(&blocks, cpus, origin, None)?;
    let t3 = Instant::now();
    if warm.mismatches > 0 {
        return Err(format!(
            "{} payload mismatches in the warm pass",
            warm.mismatches
        ));
    }
    let ready = Ready {
        blocks,
        twin_ns,
        smoke_checks,
    };
    let parts = [t1 - t0, t2 - t1, t3 - t2].map(|d| d.as_nanos() as u64);
    Ok((ready, parts))
}

/// Every op failed: CMA is denied. Never a silent skip.
fn denied(traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let calls: usize = blocks(1).iter().map(|b| b.calls).sum();
    out.attempted = calls as u64;
    out.failed = calls as u64;
    out.errors.push(PTRACE_HINT.into());
    if traced {
        sim::zero_layers(&mut out);
    } else {
        for name in sim::E2E_NAMES {
            out.set(name, 0.0);
        }
    }
    out
}

/// Timed passes only (the first pass of the measured team is its warm-up).
fn measure(
    ready: &Ready,
    cpus: &[usize],
    origin: Instant,
    seconds: f64,
    out: &mut Outcome,
) -> Result<TeamData, String> {
    let mut data = team_run(&ready.blocks, cpus, origin, Some(seconds))?;
    data.passes.remove(0);
    for p in &data.passes {
        out.attempted += p.calls.len() as u64;
    }
    for _ in 0..data.mismatches {
        out.fail("payload mismatch after the last call of a block".into());
    }
    Ok(data)
}

pub fn run_untraced(seed: u64, seconds: f64, cpus: &[usize]) -> Result<Outcome, String> {
    if !cma_available() {
        return Ok(denied(false));
    }
    let origin = Instant::now();
    let mut setup = Fastest::default();
    let mut ready = None;
    for _ in 0..sim::SETUP_REPS {
        let (r, parts) = set_up(seed, cpus, origin)?;
        for (i, ns) in parts.into_iter().enumerate() {
            setup.see(i, ns);
        }
        ready = Some(r);
    }
    let ready = ready.expect("SETUP_REPS > 0");
    let mut out = Outcome::default();
    let data = measure(&ready, cpus, origin, seconds, &mut out)?;
    let walls: Vec<f64> = data.passes.iter().map(|p| p.wall_ns as f64 / 1e9).collect();
    // Call `c` of every pass is the same operation: its fastest latency,
    // and its fastest latency + barrier, over the run's passes.
    let calls = data.passes.first().map_or(0, |p| p.calls.len());
    let (mut call, mut call_and_barrier) = (Fastest::default(), Fastest::default());
    for p in &data.passes {
        for (c, &(_, lat, barrier)) in p.calls.iter().enumerate() {
            call.see(c, lat);
            call_and_barrier.see(c, lat + barrier);
        }
    }
    out.set("setup_s", setup.sum_s());
    out.set("pass_s", call_and_barrier.sum_s());
    out.set("op_us_geomean", call.geomean_us());
    out.set("virtual_ms", ready.twin_ns / 1e6);
    out.note(format!(
        "{} passes of {} calls at p = {P}; median pass {:.4} s, iqr {:.4} s; {} payload checks passed; {} smoke checks per set-up",
        walls.len(),
        calls,
        stats::median(&walls),
        stats::iqr(&walls),
        data.verified,
        ready.smoke_checks
    ));
    Ok(out)
}

pub const LAYER_NAMES: [&str; 7] = [
    "native.lat_small_us_p50",
    "native.call_us_p99_small",
    "native.call_us_p50_large",
    "native.bw_large_gbps",
    "native.barrier_us_p50",
    "native.calls_per_pass",
    "native.payload_checks",
];

pub fn run_traced(
    seed: u64,
    seconds: f64,
    cpus: &[usize],
    rec: &mut Recorder,
) -> Result<Outcome, String> {
    if !cma_available() {
        return Ok(denied(true));
    }
    let origin = rec.origin();
    let (ready, _) = set_up(seed, cpus, origin)?;
    let mut out = Outcome::default();
    sim::zero_layers(&mut out);
    let run_start = rec.now_ns();
    let data = measure(
        &ready,
        cpus,
        origin,
        seconds * sim::TRACED_PASS_SHARE,
        &mut out,
    )?;

    // Which block each call of a pass belongs to.
    let block_of: Vec<usize> = ready
        .blocks
        .iter()
        .enumerate()
        .flat_map(|(i, b)| std::iter::repeat_n(i, b.calls))
        .collect();
    let (mut small, mut large, mut barrier) = (Vec::new(), Vec::new(), Vec::new());
    let (mut large_bytes, mut large_ns) = (0.0, 0.0);
    for p in &data.passes {
        for (c, &(_, lat, bar)) in p.calls.iter().enumerate() {
            let blk = &ready.blocks[block_of[c]];
            barrier.push(bar as f64 / 1e3);
            if blk.large {
                large.push(lat as f64 / 1e3);
                large_bytes += blk.payload() as f64;
                large_ns += lat as f64;
            } else {
                small.push(lat as f64 / 1e3);
            }
        }
    }
    out.set("native.lat_small_us_p50", stats::median(&small));
    out.set(
        "native.call_us_p99_small",
        stats::percentile_if_supported(&small, 99.0),
    );
    out.set("native.call_us_p50_large", stats::median(&large));
    out.set("native.bw_large_gbps", large_bytes / large_ns.max(1.0));
    out.set("native.barrier_us_p50", stats::median(&barrier));
    out.set("native.calls_per_pass", block_of.len() as f64);
    out.set("native.payload_checks", data.verified as f64);

    // Spans, rebuilt from what the ranks recorded on the recorder's clock.
    let run_span = rec.next_id();
    let run_end = data
        .passes
        .last()
        .map_or(run_start, |p| p.start_ns + p.wall_ns);
    rec.push_closed(
        format!("run native_cma seed {seed}"),
        0,
        0,
        run_start,
        run_end.saturating_sub(run_start),
        vec![("passes", data.passes.len() as f64)],
    );
    let mut call_ns = 0.0;
    for (n, p) in data.passes.iter().take(SPAN_PASSES).enumerate() {
        let pass_span = rec.next_id();
        rec.push_closed(
            format!("pass {n}"),
            0,
            run_span,
            p.start_ns,
            p.wall_ns,
            vec![("calls", p.calls.len() as f64)],
        );
        for (c, &(start, lat, bar)) in p.calls.iter().enumerate() {
            let blk = &ready.blocks[block_of[c]];
            rec.push_closed(
                format!("{}/native/{P}/{}", blk.case.label(), blk.eta),
                1,
                pass_span,
                start,
                lat,
                vec![("barrier_ns", bar as f64)],
            );
            call_ns += (lat + bar) as f64;
        }
    }
    let span_wall: f64 = data
        .passes
        .iter()
        .take(SPAN_PASSES)
        .map(|p| p.wall_ns as f64)
        .sum();
    let walls: Vec<f64> = data.passes.iter().map(|p| p.wall_ns as f64 / 1e9).collect();
    out.set("bench.pass_s_median", stats::median(&walls));
    out.set("bench.pass_s_iqr", stats::iqr(&walls));
    out.set("bench.points_per_pass", block_of.len() as f64);
    out.set("bench.smoke_checks", ready.smoke_checks as f64);
    out.set("bench.peak_rss_mb", host::peak_rss_mb().max(data.rss_mb));
    out.set(
        "bench.pass_self_pct",
        100.0 * (1.0 - call_ns / span_wall.max(1.0)),
    );
    out.note(format!(
        "{} passes; {} small and {} large call samples; bw_large_gbps is cache-resident (the buffers fit the last-level cache)",
        walls.len(),
        small.len(),
        large.len()
    ));
    Ok(out)
}
