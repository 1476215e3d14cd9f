//! Driver for the four simulated workloads: set-up (smoke checks + warm
//! pass), timed passes over the fixed point list, and the metrics of both
//! the untraced and the traced run.

use crate::api::{
    metrics_reset, metrics_snapshot, total_events, LocalHist, PlanCache, Snapshot, Value,
};
use crate::points::{self, Kind, Point, PointOut};
use crate::stats::{self, Fastest, Rng};
use crate::trace::Recorder;
use crate::{host, smoke, Outcome};
use std::time::Instant;

/// Set-up is repeated this often in an untraced run, so one slow start
/// does not decide `setup_s`.
pub const SETUP_REPS: usize = 3;
/// Fewest timed passes, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;
/// Share of `--seconds` a traced run spends on passes; the isolated
/// probes get the rest.
pub const TRACED_PASS_SHARE: f64 = 0.5;

/// The end-to-end metrics: what every untraced run of any workload sets.
///
/// The three host-time metrics are sums (or the geometric mean) of each
/// component's fastest repetition, see [`Fastest`]; the median pass and
/// its quartile distance are per-layer metrics.
pub const E2E_NAMES: [&str; 4] = ["setup_s", "pass_s", "op_us_geomean", "virtual_ms"];

/// Every per-layer metric a simulated workload's traced run sets (the
/// isolated probes and `native.*` are set elsewhere).
pub const LAYER_NAMES: [&str; 44] = [
    "sim_core.events_per_pass",
    "sim_core.ns_per_event",
    "sim_core.queue_inserts",
    "sim_core.queue_pops",
    "sim_core.queue_len_hwm",
    "sim_core.wakes_raw",
    "sim_core.wakes_coalesced",
    "sim_core.wake_fanout_mean",
    "sim_core.wake_fanout_max",
    "sim_core.fast_handoff_share",
    "machine.lock_depth_p50",
    "machine.lock_depth_max",
    "machine.lock_peak_concurrency",
    "machine.lock_recaches",
    "machine.mem_recaches",
    "machine.cma_ops",
    "machine.cma_bytes",
    "collectives.plan_hits",
    "collectives.plan_misses",
    "collectives.plan_evictions",
    "collectives.plan_hit_ratio",
    "collectives.exec_count",
    "collectives.steps_per_pass",
    "collectives.retries",
    "collectives.membership_agreements",
    "collectives.membership_reexecs",
    "collectives.detect_ms",
    "collectives.agree_ms",
    "collectives.reexec_ms",
    "mpi.events_per_pass",
    "mpi.ns_per_event",
    "netsim.events_per_pass",
    "netsim.ms_per_point",
    "bench.virtual_digest",
    "bench.kacc_speedup_geomean",
    "bench.model_err_pct_p50",
    "bench.recovery_ms_per_failure",
    "bench.trace_overhead_pct",
    "bench.pass_s_median",
    "bench.pass_s_iqr",
    "bench.points_per_pass",
    "bench.smoke_checks",
    "bench.pass_self_pct",
    "bench.peak_rss_mb",
];

/// Start every per-layer metric at 0: what a workload that does not
/// exercise a layer reports for it.
pub fn zero_layers(out: &mut Outcome) {
    let all = LAYER_NAMES
        .iter()
        .chain(&crate::native::LAYER_NAMES)
        .chain(&crate::probes::NAMES);
    for name in all {
        out.set(name, 0.0);
    }
}

struct Sample {
    id: usize,
    host_ns: u64,
    out: Result<PointOut, String>,
    events: u64,
    plan_hits: u64,
    plan_misses: u64,
}

struct Pass {
    wall_ns: u64,
    samples: Vec<Sample>,
}

impl Pass {
    /// Offer every point's host time to `fastest`, component = point id.
    fn record(&self, fastest: &mut Fastest) {
        for s in &self.samples {
            fastest.see(s.id, s.host_ns);
        }
    }
}

/// One pass: every point once, in `order`. With a recorder the pass and
/// each point get a span carrying the counter deltas around the point;
/// without one the loop reads no counter at all.
fn run_pass(points: &[Point], order: &[usize], trace: Option<(&mut Recorder, u64, usize)>) -> Pass {
    let start = Instant::now();
    let timed = |id: usize| {
        let t = Instant::now();
        let out = points::run_point(&points[id]);
        Sample {
            id,
            host_ns: t.elapsed().as_nanos() as u64,
            out,
            events: 0,
            plan_hits: 0,
            plan_misses: 0,
        }
    };
    let samples = match trace {
        None => order.iter().map(|&id| timed(id)).collect(),
        Some((rec, run_span, n)) => {
            let pass_span = rec.begin(format!("pass {n}"), 0, run_span);
            let mut samples = Vec::with_capacity(order.len());
            for &id in order {
                let (e0, c0) = (total_events(), PlanCache::global().stats());
                let span = rec.begin(points[id].name(), 0, pass_span);
                let mut s = timed(id);
                let (e1, c1) = (total_events(), PlanCache::global().stats());
                s.events = e1 - e0;
                s.plan_hits = c1.hits - c0.hits;
                s.plan_misses = c1.misses - c0.misses;
                let virtual_ns = s.out.as_ref().map_or(0, |o| o.virtual_ns);
                rec.end(
                    span,
                    vec![
                        ("events", s.events as f64),
                        ("virtual_ns", virtual_ns as f64),
                        ("plan_hits", s.plan_hits as f64),
                        ("plan_misses", s.plan_misses as f64),
                    ],
                );
                samples.push(s);
            }
            rec.end(pass_span, vec![("points", order.len() as f64)]);
            samples
        }
    };
    Pass {
        wall_ns: start.elapsed().as_nanos() as u64,
        samples,
    }
}

struct Ready {
    points: Vec<Point>,
    order: Vec<usize>,
    /// The warm pass's result per point id: what every later pass must
    /// reproduce exactly.
    reference: Vec<Result<PointOut, String>>,
    smoke_checks: u64,
}

/// Smoke checks, point list, warm pass. Also returns the host ns spent
/// before the warm pass, and the warm pass itself.
fn set_up(workload: &str, seed: u64) -> Result<(Ready, u64, Pass), String> {
    let t = Instant::now();
    let points = points::build(workload, seed);
    let smoke_checks = smoke::run(&smoke::cases_of(&points), &points)?;
    let mut order: Vec<usize> = (0..points.len()).collect();
    Rng::new(seed).shuffle(&mut order);
    let before_ns = t.elapsed().as_nanos() as u64;
    let warm = run_pass(&points, &order, None);
    let mut reference: Vec<Result<PointOut, String>> = vec![Err("not run".into()); points.len()];
    for s in &warm.samples {
        reference[s.id] = s.out.clone();
    }
    let ready = Ready {
        points,
        order,
        reference,
        smoke_checks,
    };
    Ok((ready, before_ns, warm))
}

/// Count the pass's failed operations into `out`: a typed error or panic,
/// or a virtual result that differs from the warm pass's.
fn judge(pass: &Pass, ready: &Ready, out: &mut Outcome) {
    for s in &pass.samples {
        out.attempted += 1;
        let name = || ready.points[s.id].name();
        match (&s.out, &ready.reference[s.id]) {
            (Ok(a), Ok(b)) if a == b => {}
            (Ok(a), Ok(b)) => out.fail(format!(
                "{}: not deterministic: {} ns, warm pass {} ns",
                name(),
                a.virtual_ns,
                b.virtual_ns
            )),
            (Err(e), _) | (_, Err(e)) => out.fail(format!("{}: {e}", name())),
        }
    }
}

fn virt(ready: &Ready, id: usize) -> f64 {
    ready.reference[id]
        .as_ref()
        .map_or(0.0, |o| o.virtual_ns as f64)
}

/// The paper's claims as this workload states them, exact for a seed:
/// `(kacc_speedup_geomean, model_err_pct_p50, recovery_ms_per_failure)`.
fn claims(ready: &Ready) -> (f64, f64, f64) {
    let pts = &ready.points;
    // Persona points come in groups of four, Kacc first.
    let personas: Vec<usize> = pts
        .iter()
        .filter(|p| matches!(p.kind, Kind::Persona { .. }))
        .map(|p| p.id)
        .collect();
    let speedups: Vec<f64> = personas
        .chunks(4)
        .map(|g| {
            let best = g[1..]
                .iter()
                .map(|&i| virt(ready, i))
                .fold(f64::MAX, f64::min);
            best / virt(ready, g[0])
        })
        .collect();
    let errs: Vec<f64> = pts
        .iter()
        .filter_map(|p| {
            let sim = virt(ready, p.id);
            p.model_ns.map(|m| 100.0 * (sim - m).abs() / sim)
        })
        .collect();
    let (mut extra_ns, mut kills_total) = (0.0, 0usize);
    for p in pts {
        if let Kind::Survivable {
            kills,
            clean: Some(c),
            ..
        } = &p.kind
        {
            extra_ns += virt(ready, p.id) - virt(ready, *c);
            kills_total += kills.len();
        }
    }
    let recovery = if kills_total == 0 {
        0.0
    } else {
        extra_ns / kills_total as f64 / 1e6
    };
    (stats::geomean(&speedups), stats::median(&errs), recovery)
}

fn counter(snap: &Snapshot, name: &str) -> f64 {
    match snap.get(name) {
        Some(Value::Counter(n) | Value::Gauge(n)) => *n as f64,
        _ => 0.0,
    }
}

fn hist(snap: &Snapshot, name: &str) -> LocalHist {
    match snap.get(name) {
        Some(Value::Hist(h)) => (**h).clone(),
        _ => LocalHist::default(),
    }
}

/// The untraced run: `setup_s`, then passes for `seconds`, then the
/// end-to-end metrics.
pub fn run_untraced(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    // Set-up, several times over. Its components are the warm pass's
    // points and, last, everything before the warm pass.
    let mut setup = Fastest::default();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        let (r, before_ns, warm) = set_up(workload, seed)?;
        warm.record(&mut setup);
        setup.see(r.points.len(), before_ns);
        ready = Some(r);
    }
    let ready = ready.expect("SETUP_REPS > 0");
    let n = ready.points.len();

    let mut out = Outcome::default();
    let mut walls = Vec::new();
    let mut fastest = Fastest::default();
    let t = Instant::now();
    while walls.len() < MIN_PASSES || t.elapsed().as_secs_f64() < seconds {
        let pass = run_pass(&ready.points, &ready.order, None);
        judge(&pass, &ready, &mut out);
        walls.push(pass.wall_ns as f64 / 1e9);
        pass.record(&mut fastest);
    }
    let virtual_ns: f64 = (0..n).map(|id| virt(&ready, id)).sum();
    out.set("setup_s", setup.sum_s());
    out.set("pass_s", fastest.sum_s());
    out.set("op_us_geomean", fastest.geomean_us());
    out.set("virtual_ms", virtual_ns / 1e6);
    out.note(format!(
        "{} passes of {n} points; median pass {:.4} s, iqr {:.4} s; {} smoke checks per set-up",
        walls.len(),
        stats::median(&walls),
        stats::iqr(&walls),
        ready.smoke_checks
    ));
    Ok(out)
}

/// The traced run: plain and traced passes alternate, so the tracing
/// overhead is measured within one process; the per-layer counters are
/// the registry's values for exactly one traced pass.
pub fn run_traced(
    workload: &str,
    seed: u64,
    seconds: f64,
    rec: &mut Recorder,
) -> Result<Outcome, String> {
    let (ready, _, _) = set_up(workload, seed)?;
    let run_span = rec.begin(format!("run {workload} seed {seed}"), 0, 0);
    let mut out = Outcome::default();
    zero_layers(&mut out);
    let mut plain = Vec::new();
    let (mut plain_fastest, mut traced_fastest) = (Fastest::default(), Fastest::default());
    let mut last: Option<(Pass, Snapshot, u64)> = None;
    let t = Instant::now();
    while plain.len() < MIN_PASSES || t.elapsed().as_secs_f64() < seconds * TRACED_PASS_SHARE {
        let pass = run_pass(&ready.points, &ready.order, None);
        judge(&pass, &ready, &mut out);
        plain.push(pass.wall_ns as f64 / 1e9);
        pass.record(&mut plain_fastest);

        metrics_reset();
        let c0 = PlanCache::global().stats();
        let traced = Some((&mut *rec, run_span, plain.len() - 1));
        let pass = run_pass(&ready.points, &ready.order, traced);
        let evictions = PlanCache::global().stats().evictions - c0.evictions;
        let snap = metrics_snapshot();
        judge(&pass, &ready, &mut out);
        pass.record(&mut traced_fastest);
        last = Some((pass, snap, evictions));
    }
    rec.end(run_span, vec![("passes", plain.len() as f64)]);
    let (pass, snap, evictions) = last.expect("MIN_PASSES > 0");

    let pass_s = plain_fastest.sum_s();
    let events = counter(&snap, "sim.events");
    let fanout = hist(&snap, "sim.wake.fanout");
    let depth = hist(&snap, "machine.lock.queue_depth");
    let sum_by = |f: &dyn Fn(&Sample) -> u64| pass.samples.iter().map(f).sum::<u64>() as f64;
    let outs = || pass.samples.iter().filter_map(|s| s.out.as_ref().ok());
    let (hits, misses) = (sum_by(&|s| s.plan_hits), sum_by(&|s| s.plan_misses));

    // Registry counters and gauges that are reported as they are.
    for (metric, registry) in [
        ("sim_core.events_per_pass", "sim.events"),
        ("sim_core.queue_inserts", "sim.queue.inserts"),
        ("sim_core.queue_pops", "sim.queue.pops"),
        ("sim_core.queue_len_hwm", "sim.queue.len.hwm"),
        ("sim_core.wakes_raw", "sim.wakes.raw"),
        ("sim_core.wakes_coalesced", "sim.wakes.coalesced"),
        ("machine.lock_recaches", "machine.lock.recaches"),
        ("machine.mem_recaches", "machine.mem.recaches"),
        ("machine.cma_ops", "machine.transport.cma.ops"),
        ("machine.cma_bytes", "machine.transport.cma.bytes"),
        (
            "collectives.membership_agreements",
            "coll.membership.agreements",
        ),
        ("collectives.membership_reexecs", "coll.membership.reexecs"),
    ] {
        out.set(metric, counter(&snap, registry));
    }
    // Virtual time per recovery phase, summed over ranks and points.
    for (metric, registry) in [
        ("collectives.detect_ms", "coll.membership.detect_ns"),
        ("collectives.agree_ms", "coll.membership.agree_ns"),
        ("collectives.reexec_ms", "coll.membership.reexec_ns"),
    ] {
        out.set(metric, hist(&snap, registry).sum() as f64 / 1e6);
    }
    let retries = counter(&snap, "coll.recovery.transient_retries")
        + counter(&snap, "coll.recovery.timeouts");
    let lock_peak = outs().map(|o| o.lock_peak).max().unwrap_or(0);
    let steps: u64 = outs().map(|o| o.steps).sum();
    let execs = hist(&snap, "coll.exec.ns").count();
    out.set("sim_core.ns_per_event", pass_s * 1e9 / events.max(1.0));
    out.set("sim_core.wake_fanout_mean", fanout.mean().unwrap_or(0.0));
    out.set("sim_core.wake_fanout_max", fanout.max() as f64);
    out.set(
        "sim_core.fast_handoff_share",
        counter(&snap, "sim.fast_handoffs") / events.max(1.0),
    );
    out.set(
        "machine.lock_depth_p50",
        depth.quantile_bound(500_000) as f64,
    );
    out.set("machine.lock_depth_max", depth.max() as f64);
    out.set("machine.lock_peak_concurrency", lock_peak as f64);
    out.set("collectives.plan_hits", hits);
    out.set("collectives.plan_misses", misses);
    out.set("collectives.plan_evictions", evictions as f64);
    out.set(
        "collectives.plan_hit_ratio",
        hits / (hits + misses).max(1.0),
    );
    out.set("collectives.exec_count", execs as f64);
    out.set("collectives.steps_per_pass", steps as f64);
    out.set("collectives.retries", retries);

    // Host time and events of the blocking bodies, by what ran them.
    let of_kind = |want: fn(&Kind) -> bool| {
        let (mut ev, mut ns, mut n) = (0u64, 0u64, 0u64);
        for s in &pass.samples {
            if want(&ready.points[s.id].kind) {
                ev += s.events;
                ns += s.host_ns;
                n += 1;
            }
        }
        (ev as f64, ns as f64, n as f64)
    };
    let (ev, ns, _) = of_kind(|k| matches!(k, Kind::Persona { .. }));
    out.set("mpi.events_per_pass", ev);
    out.set("mpi.ns_per_event", ns / ev.max(1.0));
    let (ev, ns, n) = of_kind(|k| matches!(k, Kind::Netsim { .. }));
    out.set("netsim.events_per_pass", ev);
    out.set("netsim.ms_per_point", ns / 1e6 / n.max(1.0));

    let by_id: Vec<u64> = (0..ready.points.len())
        .map(|id| virt(&ready, id) as u64)
        .collect();
    let (speedup, model_err, recovery) = claims(&ready);
    let spans_ns = sum_by(&|s| s.host_ns);
    out.set("bench.virtual_digest", stats::virtual_digest(&by_id) as f64);
    out.set("bench.kacc_speedup_geomean", speedup);
    out.set("bench.model_err_pct_p50", model_err);
    out.set("bench.recovery_ms_per_failure", recovery);
    out.set("bench.pass_s_median", stats::median(&plain));
    out.set("bench.pass_s_iqr", stats::iqr(&plain));
    out.set("bench.points_per_pass", ready.points.len() as f64);
    out.set("bench.smoke_checks", ready.smoke_checks as f64);
    out.set("bench.peak_rss_mb", host::peak_rss_mb());
    out.set(
        "bench.trace_overhead_pct",
        100.0 * (traced_fastest.sum_s() / pass_s - 1.0),
    );
    out.set(
        "bench.pass_self_pct",
        100.0 * (1.0 - spans_ns / pass.wall_ns as f64),
    );
    out.note(format!(
        "{0} plain + {0} traced passes; model_err is against this simulator only (the model has no hardware reference here)",
        plain.len()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;

    /// A few cheap points of a real workload, so the test runs the real
    /// pass loop in a debug build in well under a second.
    fn cheap_points() -> Vec<Point> {
        let mut pts: Vec<Point> = points::build("one_to_all", 5)
            .into_iter()
            .filter(|p| p.p == 28 && p.eta < 128 << 10)
            .take(6)
            .collect();
        for (id, p) in pts.iter_mut().enumerate() {
            p.id = id;
        }
        pts
    }

    fn by_id(pass: &Pass) -> Vec<u64> {
        let mut v = vec![0; pass.samples.len()];
        for s in &pass.samples {
            v[s.id] = s.out.as_ref().expect("point ran").virtual_ns;
        }
        v
    }

    #[test]
    fn digest_does_not_depend_on_execution_order() {
        let pts = cheap_points();
        let forward: Vec<usize> = (0..pts.len()).collect();
        let backward: Vec<usize> = forward.iter().rev().copied().collect();
        let a = by_id(&run_pass(&pts, &forward, None));
        let b = by_id(&run_pass(&pts, &backward, None));
        assert!(a.iter().all(|&ns| ns > 0));
        assert_eq!(stats::virtual_digest(&a), stats::virtual_digest(&b));
    }

    #[test]
    fn a_seed_fixes_the_inputs_and_only_moves_sizes() {
        for w in [
            "allgather_storm",
            "one_to_all",
            "survivable",
            "persona_sweep",
        ] {
            let name = |p: &Point| p.name();
            let a: Vec<String> = points::build(w, 3).iter().map(name).collect();
            let b: Vec<String> = points::build(w, 3).iter().map(name).collect();
            assert_eq!(a, b, "{w}: same seed, same inputs");
            let c = points::build(w, 4);
            assert_eq!(a.len(), c.len(), "{w}: same point set for every seed");
            assert!(
                a.iter().zip(&c).any(|(x, y)| *x != y.name()),
                "{w}: sizes move"
            );
            let strip = |n: &str| n.rsplit_once('/').expect("name ends in /eta").0.to_string();
            assert!(a.iter().zip(&c).all(|(x, y)| strip(x) == strip(&y.name())));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_runs_set() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec =
            Spec::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses");
        let e2e: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(e2e, E2E_NAMES);
        let mut listed: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        let mut set: Vec<&str> = LAYER_NAMES
            .into_iter()
            .chain(crate::native::LAYER_NAMES)
            .chain(crate::probes::NAMES)
            .collect();
        listed.sort_unstable();
        set.sort_unstable();
        assert_eq!(listed, set);
    }
}
