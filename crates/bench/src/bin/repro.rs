//! Regenerate the paper's tables and figures from the simulator.
//!
//! ```text
//! repro all                  # every artifact, full scale (minutes)
//! repro fig7 fig8            # specific artifacts
//! repro --quick all          # reduced sweeps/team sizes (smoke run)
//! repro --csv out/ fig7      # also write CSV files
//! repro --jobs 8 all         # fan sweep points over 8 workers
//!                            # (default: available parallelism; output
//!                            # is bitwise-identical for every N)
//! repro --bench-out b.json   # record events/sec + wall-clock metrics
//!                            # (incl. wake-storm diagnostics and
//!                            # p50/p95/p99 probe latencies)
//! repro --metrics-out m.json # dump the kacc-metrics registry snapshot
//!                            # (JSON + Prometheus-style m.json.prom);
//!                            # virtual-time/count metrics only, so the
//!                            # files are bitwise-identical for every
//!                            # --jobs value
//! repro --list               # list artifact names
//! repro --trace-out t.json   # Chrome trace of a contended scatter
//! repro --fault-plan plan.txt  # same scatter under a fault plan:
//!                            # recovery accounting + breakdown (combine
//!                            # with --trace-out for the faulty timeline)
//! ```

use kacc_bench::figs::registry;
use kacc_bench::measure;
use kacc_bench::{par, size_label, Chart};
use kacc_fault::FaultPlan;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut csv_dir: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut fault_plan: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut list_only = false;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--list" => list_only = true,
            "--jobs" => {
                let v = it.next().and_then(|s| s.parse::<usize>().ok());
                jobs = Some(v.unwrap_or_else(|| {
                    eprintln!("--jobs needs a positive integer");
                    std::process::exit(2);
                }));
            }
            "--bench-out" => {
                bench_out = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--bench-out needs a file path");
                    std::process::exit(2);
                }));
            }
            "--metrics-out" => {
                metrics_out = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--metrics-out needs a file path");
                    std::process::exit(2);
                }));
            }
            "--csv" => {
                csv_dir = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--csv needs a directory");
                    std::process::exit(2);
                }));
            }
            "--trace-out" => {
                trace_out = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--trace-out needs a file path");
                    std::process::exit(2);
                }));
            }
            "--fault-plan" => {
                fault_plan = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--fault-plan needs a plan file path");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--quick] [--jobs N] [--csv DIR] [--bench-out FILE] [--metrics-out FILE] [--trace-out FILE] [--fault-plan FILE] [--list] <artifact...|all>\n\
                     artifacts: {}",
                    registry()
                        .iter()
                        .map(|(n, _)| *n)
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                return;
            }
            other => wanted.push(other.to_string()),
        }
    }

    let reg = registry();
    if list_only {
        for (name, _) in &reg {
            println!("{name}");
        }
        return;
    }
    let p = if quick { 8 } else { 16 };
    let count = if quick { 32 << 10 } else { 256 << 10 };
    if let Some(plan_path) = &fault_plan {
        // The contended scatter again, but with the plan's faults injected
        // at the transport layer: prints rank outcomes, recovery
        // accounting, and the phase breakdown with `fault:*`/`retry:*`/
        // `fallback:*` spans attributed.
        let text = std::fs::read_to_string(plan_path).unwrap_or_else(|e| {
            eprintln!("cannot read fault plan {plan_path}: {e}");
            std::process::exit(2);
        });
        let plan = FaultPlan::parse(&text).unwrap_or_else(|e| {
            eprintln!("{plan_path}: {e}");
            std::process::exit(2);
        });
        let (report, json) = kacc_bench::tracedemo::fault_plan_report(plan, p, count);
        print!("{report}");
        if let Some(path) = &trace_out {
            std::fs::write(path, &json).expect("write trace file");
            eprintln!(
                "[trace: {p}-rank contended scatter under {plan_path}, {} per rank -> {path}]",
                size_label(count)
            );
        }
    } else if let Some(path) = &trace_out {
        // One contended one-to-all scatter, traced end to end: the
        // Perfetto-loadable timeline shows one track per rank plus the
        // root's page-lock-server queue depth.
        let json = kacc_bench::tracedemo::default_trace_json(p, count);
        std::fs::write(path, &json).expect("write trace file");
        eprintln!(
            "[trace: {p}-rank contended scatter, {} per rank -> {path}]",
            size_label(count)
        );
    }
    if wanted.is_empty() {
        if trace_out.is_some() || fault_plan.is_some() {
            return;
        }
        eprintln!("nothing to do; try `repro all` or `repro --list`");
        std::process::exit(2);
    }
    let run_all = wanted.iter().any(|w| w == "all");
    for w in &wanted {
        if w != "all" && !reg.iter().any(|(n, _)| n == w) {
            eprintln!("unknown artifact '{w}' (see repro --list)");
            std::process::exit(2);
        }
    }

    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
    }

    let jobs = jobs.unwrap_or_else(par::default_jobs);
    par::set_jobs(jobs);
    let selected: Vec<(&str, kacc_bench::figs::ArtifactFn)> = reg
        .iter()
        .filter(|(name, _)| run_all || wanted.iter().any(|w| w == name))
        .map(|(name, f)| (*name, *f))
        .collect();

    // Artifacts fan across the worker pool; each records its own
    // wall-clock and simulated-event delta. Per-artifact event counts are
    // exact at --jobs 1; with more jobs the global counter interleaves
    // concurrent artifacts, so per-figure attribution is approximate
    // (totals stay exact). Results print afterwards in registry order, so
    // stdout and every CSV are bitwise-identical for every job count.
    let started = std::time::Instant::now();
    let ev_start = kacc_sim_core::total_events();
    let fast_start = kacc_sim_core::total_fast_handoffs();
    let computed: Vec<(&str, Vec<Chart>, f64, u64)> = par::pmap(selected, |(name, f)| {
        let t0 = std::time::Instant::now();
        let e0 = kacc_sim_core::total_events();
        let charts = f(quick);
        let dt = t0.elapsed().as_secs_f64();
        (name, charts, dt, kacc_sim_core::total_events() - e0)
    });
    let total_wall = started.elapsed().as_secs_f64();
    let total_events = kacc_sim_core::total_events() - ev_start;
    let total_fast = kacc_sim_core::total_fast_handoffs() - fast_start;

    for (name, charts, secs, events) in &computed {
        for chart in charts {
            print!("{}", render(chart));
            if let Some(dir) = &csv_dir {
                let path = format!("{dir}/{}.csv", chart.id);
                let mut file = std::fs::File::create(&path).expect("create csv");
                file.write_all(chart.to_csv(|x| xfmt(chart, x)).as_bytes())
                    .expect("write csv");
            }
        }
        let approx = if jobs > 1 { "~" } else { "" };
        eprintln!(
            "[{name}: {} chart(s) in {secs:.1}s, {approx}{events} events ({approx}{:.2} Mev/s)]",
            charts.len(),
            *events as f64 / secs.max(1e-9) / 1e6,
        );
        println!();
    }
    eprintln!(
        "[total: {total_wall:.1}s, {total_events} events ({:.2} Mev/s, {:.0}% fast-path), --jobs {jobs}{}]",
        total_events as f64 / total_wall.max(1e-9) / 1e6,
        total_fast as f64 / (total_events as f64).max(1.0) * 100.0,
        if quick { ", --quick" } else { "" }
    );

    if let Some(path) = &bench_out {
        // Wake-storm diagnostics at figure-10 scale, probed sequentially
        // after the sweep so the storm numbers in the summary are exact
        // regardless of --jobs.
        let knl = kacc_model::ArchProfile::knl();
        let storm = measure::wake_storm_probe(&knl, p, count, 5);
        let json = bench_report_json(
            jobs,
            quick,
            total_wall,
            total_events,
            total_fast,
            &computed
                .iter()
                .map(|(name, _, secs, events)| (*name, *secs, *events))
                .collect::<Vec<_>>(),
            p,
            count,
            &storm,
        );
        std::fs::write(path, json).expect("write bench report");
        eprintln!("[bench metrics -> {path}]");
    }

    if let Some(path) = &metrics_out {
        // Snapshot last, so everything the process simulated (figures,
        // probes) is folded in. The registry holds only virtual-time and
        // count metrics — no wall-clock — and every update commutes, so
        // these files are bitwise-identical for every --jobs value.
        let snap = kacc_metrics::snapshot();
        std::fs::write(path, snap.to_json()).expect("write metrics snapshot");
        let prom = format!("{path}.prom");
        std::fs::write(&prom, snap.to_prometheus()).expect("write metrics exposition");
        eprintln!("[metrics -> {path} (+ {prom})]");
    }
}

/// Assemble the `--bench-out` JSON: per-figure wall-clock + events, run
/// totals, a dedicated sequential measurement of the one-to-all
/// contention microbench at p=64 (the PR-4 acceptance metric, now with
/// per-reader latency percentiles) so the events/sec trajectory is
/// comparable across machines and job counts, and the wake-storm
/// diagnostics.
#[allow(clippy::too_many_arguments)]
fn bench_report_json(
    jobs: usize,
    quick: bool,
    total_wall: f64,
    total_events: u64,
    total_fast: u64,
    figures: &[(&str, f64, u64)],
    storm_p: usize,
    storm_eta: usize,
    w: &measure::WakeStorm,
) -> String {
    use kacc_numerics::stats;
    let knl = kacc_model::ArchProfile::knl();
    let one = || kacc_bench::measure::one_to_all_read_lats(&knl, 64, 64 << 10, false);
    one(); // warm the worker pool so the probe measures steady state
    let e0 = kacc_sim_core::total_events();
    let t0 = std::time::Instant::now();
    let iters = 5;
    let mut lats = Vec::new();
    for _ in 0..iters {
        lats = one();
    }
    let probe_wall = t0.elapsed().as_secs_f64();
    let probe_events = kacc_sim_core::total_events() - e0;
    let lat_mean = stats::mean(&lats).unwrap_or(0.0);
    let lat_p50 = stats::median(&lats).unwrap_or(0.0);
    let lat_p95 = stats::percentile(&lats, 95.0).unwrap_or(0.0);
    let lat_p99 = stats::percentile(&lats, 99.0).unwrap_or(0.0);

    let mut s = String::from("{\n");
    s.push_str(&format!("  \"jobs\": {jobs},\n"));
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"total_wall_s\": {total_wall:.3},\n"));
    s.push_str(&format!("  \"total_events\": {total_events},\n"));
    s.push_str(&format!("  \"total_fast_handoffs\": {total_fast},\n"));
    s.push_str(&format!(
        "  \"events_per_sec\": {:.0},\n",
        total_events as f64 / total_wall.max(1e-9)
    ));
    s.push_str(&format!(
        "  \"one_to_all_p64\": {{\"iters\": {iters}, \"events\": {probe_events}, \"wall_s\": {probe_wall:.4}, \"events_per_sec\": {:.0}, \"lat_ns\": {{\"mean\": {lat_mean:.1}, \"p50\": {lat_p50:.1}, \"p95\": {lat_p95:.1}, \"p99\": {lat_p99:.1}}}}},\n",
        probe_events as f64 / probe_wall.max(1e-9)
    ));
    s.push_str(&format!(
        "  \"wake_storm\": {{\"p\": {storm_p}, \"eta\": {storm_eta}, \"iterations\": {}, \"events\": {}, \"events_per_barrier\": {:.1}, \"peak_queue_len\": {}, \"wake_fanout_max\": {}, \"wake_fanout_mean\": {:.3}, \"wakes_raw\": {}, \"wakes_coalesced\": {}}},\n",
        w.iterations,
        w.events,
        w.events_per_barrier,
        w.peak_queue_len,
        w.wake_fanout_max,
        w.wake_fanout_mean,
        w.wakes_raw,
        w.wakes_coalesced,
    ));
    s.push_str("  \"figures\": [\n");
    for (i, (name, secs, events)) in figures.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"wall_s\": {secs:.3}, \"events\": {events}, \"events_per_sec\": {:.0}}}{}\n",
            *events as f64 / secs.max(1e-9),
            if i + 1 < figures.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn xfmt(chart: &Chart, x: usize) -> String {
    if chart.xlabel.contains("Size") {
        size_label(x)
    } else {
        x.to_string()
    }
}

fn render(chart: &Chart) -> String {
    chart.to_text(|x| xfmt(chart, x))
}
