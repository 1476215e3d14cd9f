//! CI perf-regression gate: diff a fresh quick-mode run against the
//! committed baseline.
//!
//! ```text
//! bench-regress                          # check vs BENCH_BASELINE.json
//! bench-regress --baseline FILE         # alternate baseline
//! bench-regress --out verdict.json      # machine-readable verdict
//! bench-regress --wall-tol-pct 50       # loosen the wall-clock tolerance
//! bench-regress --write-baseline FILE   # regenerate the baseline
//! ```
//!
//! The reference run is deterministic by construction: `--jobs 1`, quick
//! scale, every figure in registry order, then the wake-storm probe,
//! with the metric registry reset first. Everything the
//! baseline stores as an integer — per-figure event counts, wake-storm
//! diagnostics, and the full `kacc-metrics` snapshot — must match
//! **exactly**; any drift is a hard failure (exit 1), because those
//! quantities are virtual-time/count facts about the simulation, not
//! measurements. Wall-clock quantities (`wall_s`, `events_per_sec`)
//! vary across machines, so they only warn when they drift past the
//! tolerance (default 30%).
//!
//! The per-failure recovery cost (virtual ns a single silent kill adds
//! to a survivable collective, worst case over the op set) is gated
//! twice: exactly against the baseline like every other virtual-time
//! fact, and against an absolute 40 ms cap — 4× under the ~160 ms the
//! gen-1 fixed-deadline agreement charged — so a regression in the
//! adaptive-deadline machinery fails CI even if someone refreshes the
//! baseline without noticing.

use kacc_bench::figs::registry;
use kacc_bench::measure::{self, WakeStorm};
use kacc_bench::minijson::Json;
use kacc_bench::par;
use kacc_metrics::Value;

/// The deterministic quick-mode reference measurement.
struct Reference {
    wall_s: f64,
    events_per_sec: f64,
    total_events: u64,
    figures: Vec<(String, u64)>,
    storm: WakeStorm,
    /// Worst-case virtual ns one silent kill adds to a survivable
    /// collective (deterministic; hard-capped at [`RECOVERY_CAP_NS`]).
    per_failure_cost_ns: u64,
    /// Flattened registry snapshot: counters/gauges as `name`, histograms
    /// as `name#count` / `name#sum` / `name#max`.
    metrics: Vec<(String, u64)>,
}

/// Absolute ceiling on the per-failure recovery cost, independent of
/// the committed baseline: 40 ms virtual, 4× under the gen-1 cost.
const RECOVERY_CAP_NS: u64 = 40_000_000;

/// Run the quick reference workload and collect every deterministic
/// quantity the baseline pins.
fn quick_reference() -> Reference {
    eprintln!("[reference run: --jobs 1, quick]");
    kacc_metrics::reset();
    par::set_jobs(1);
    let t0 = std::time::Instant::now();
    let mut figures = Vec::new();
    let mut total_events = 0u64;
    for (name, f) in registry() {
        let e0 = kacc_sim_core::total_events();
        let _ = f(true);
        let ev = kacc_sim_core::total_events() - e0;
        total_events += ev;
        figures.push((name.to_string(), ev));
    }
    let storm = measure::wake_storm_probe(&kacc_model::ArchProfile::knl(), 8, 32 << 10, 5);
    total_events += storm.events;
    let per_failure_cost_ns = kacc_bench::figs::failures::per_failure_cost_ns();
    let wall_s = t0.elapsed().as_secs_f64();
    let mut metrics = Vec::new();
    for (name, v) in kacc_metrics::snapshot().metrics {
        match v {
            Value::Counter(n) | Value::Gauge(n) => metrics.push((name, n)),
            Value::Hist(h) => {
                metrics.push((format!("{name}#count"), h.count()));
                metrics.push((format!("{name}#sum"), h.sum()));
                metrics.push((format!("{name}#max"), h.max()));
            }
        }
    }
    Reference {
        wall_s,
        events_per_sec: total_events as f64 / wall_s.max(1e-9),
        total_events,
        figures,
        storm,
        per_failure_cost_ns,
        metrics,
    }
}

fn baseline_json(r: &Reference) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"kacc-bench-regress-v2\",\n");
    s.push_str(
        "  \"note\": \"Committed quick-mode regression baseline for bench-regress: per-figure event counts, wake-storm diagnostics, the per-failure recovery cost, and the full kacc-metrics snapshot are deterministic and compared exactly; the recovery cost is additionally hard-capped at 40 ms virtual regardless of the baseline; wall_s / events_per_sec are machine-dependent and only warn; metrics newly registered since the baseline warn as additions. Regenerate with: cargo run --release -p kacc-bench --bin bench-regress -- --write-baseline BENCH_BASELINE.json\",\n",
    );
    s.push_str("  \"quick\": true,\n  \"jobs\": 1,\n");
    s.push_str(&format!("  \"wall_s\": {:.3},\n", r.wall_s));
    s.push_str(&format!("  \"events_per_sec\": {:.0},\n", r.events_per_sec));
    s.push_str(&format!("  \"total_events\": {},\n", r.total_events));
    s.push_str("  \"figures\": [\n");
    for (j, (name, ev)) in r.figures.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"events\": {ev}}}{}\n",
            if j + 1 < r.figures.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    let w = &r.storm;
    s.push_str(&format!(
        "  \"wake_storm\": {{\"iterations\": {}, \"events\": {}, \"peak_queue_len\": {}, \"wake_fanout_max\": {}, \"wakes_raw\": {}, \"wakes_coalesced\": {}}},\n",
        w.iterations, w.events, w.peak_queue_len, w.wake_fanout_max, w.wakes_raw, w.wakes_coalesced
    ));
    s.push_str(&format!(
        "  \"recovery\": {{\"per_failure_cost_ns\": {}, \"cap_ns\": {RECOVERY_CAP_NS}}},\n",
        r.per_failure_cost_ns
    ));
    s.push_str("  \"metrics\": {\n");
    for (j, (name, v)) in r.metrics.iter().enumerate() {
        s.push_str(&format!(
            "    \"{name}\": {v}{}\n",
            if j + 1 < r.metrics.len() { "," } else { "" }
        ));
    }
    s.push_str("  }\n}\n");
    s
}

/// Compare the fresh reference against the baseline document.
/// Returns (hard failures, warnings).
fn check(base: &Json, fresh: &Reference, wall_tol_pct: f64) -> (Vec<String>, Vec<String>) {
    let mut hard = Vec::new();
    let mut warn = Vec::new();

    let mut int_field = |path: &[&str], got: u64| match base.path(path).and_then(Json::as_u64) {
        Some(want) if want == got => {}
        Some(want) => hard.push(format!("{}: baseline {want}, fresh {got}", path.join("."))),
        None => hard.push(format!("{}: missing from baseline", path.join("."))),
    };

    int_field(&["total_events"], fresh.total_events);
    int_field(&["wake_storm", "iterations"], fresh.storm.iterations);
    int_field(&["wake_storm", "events"], fresh.storm.events);
    int_field(
        &["wake_storm", "peak_queue_len"],
        fresh.storm.peak_queue_len,
    );
    int_field(
        &["wake_storm", "wake_fanout_max"],
        fresh.storm.wake_fanout_max,
    );
    int_field(&["wake_storm", "wakes_raw"], fresh.storm.wakes_raw);
    int_field(
        &["wake_storm", "wakes_coalesced"],
        fresh.storm.wakes_coalesced,
    );
    int_field(
        &["recovery", "per_failure_cost_ns"],
        fresh.per_failure_cost_ns,
    );
    // The absolute cap binds even when the baseline itself drifted: a
    // refreshed baseline must never quietly bless a recovery cost that
    // gives back the gen-2 adaptive-deadline win.
    if fresh.per_failure_cost_ns > RECOVERY_CAP_NS {
        hard.push(format!(
            "recovery.per_failure_cost_ns: {} exceeds the absolute {RECOVERY_CAP_NS} ns cap",
            fresh.per_failure_cost_ns
        ));
    }

    // Figures: exact event counts, and the artifact set itself must not
    // drift silently in either direction.
    let base_figs: Vec<(&str, u64)> = base
        .get("figures")
        .and_then(Json::as_arr)
        .map(|items| {
            items
                .iter()
                .filter_map(|f| {
                    Some((
                        f.get("name").and_then(Json::as_str)?,
                        f.get("events").and_then(Json::as_u64)?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default();
    for (name, want) in &base_figs {
        match fresh.figures.iter().find(|(n, _)| n == name) {
            Some((_, got)) if got == want => {}
            Some((_, got)) => hard.push(format!(
                "figure {name}: baseline {want} events, fresh {got}"
            )),
            None => hard.push(format!("figure {name}: in baseline but not produced")),
        }
    }
    for (name, _) in &fresh.figures {
        if !base_figs.iter().any(|(n, _)| n == name) {
            hard.push(format!(
                "figure {name}: produced but absent from baseline (regenerate with --write-baseline)"
            ));
        }
    }

    // Metrics: the full flattened snapshot, exact, both directions.
    let base_metrics = base
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or_default();
    for (name, v) in base_metrics {
        match fresh.metrics.iter().find(|(n, _)| n == name) {
            Some((_, got)) if Some(*got) == v.as_u64() => {}
            Some((_, got)) => hard.push(format!(
                "metric {name}: baseline {}, fresh {got}",
                v.as_u64()
                    .map_or_else(|| "non-integer".into(), |n| n.to_string())
            )),
            None => hard.push(format!("metric {name}: in baseline but not registered")),
        }
    }
    // Newly-registered metrics are additions, not regressions: a PR
    // introducing instrumentation should not fail the gate on keys the
    // baseline predates. They warn until the baseline is refreshed;
    // drifted or vanished keys above stay hard.
    for (name, _) in &fresh.metrics {
        if !base_metrics.iter().any(|(n, _)| n == name) {
            warn.push(format!(
                "metric {name}: new since baseline (refresh with --write-baseline)"
            ));
        }
    }

    // Wall-clock: machine-dependent, warn-only past the tolerance.
    let mut wall_field = |key: &str, got: f64| {
        if let Some(want) = base.get(key).and_then(Json::as_f64) {
            if want > 0.0 {
                let drift = (got - want) / want * 100.0;
                if drift.abs() > wall_tol_pct {
                    warn.push(format!(
                        "{key}: baseline {want:.3}, fresh {got:.3} ({drift:+.0}%)"
                    ));
                }
            }
        }
    };
    wall_field("wall_s", fresh.wall_s);
    wall_field("events_per_sec", fresh.events_per_sec);

    (hard, warn)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn verdict_json(baseline: &str, hard: &[String], warn: &[String]) -> String {
    let list = |items: &[String]| {
        items
            .iter()
            .map(|m| format!("\"{}\"", json_escape(m)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "{{\n  \"baseline\": \"{}\",\n  \"ok\": {},\n  \"hard_failures\": [{}],\n  \"warnings\": [{}]\n}}\n",
        json_escape(baseline),
        hard.is_empty(),
        list(hard),
        list(warn),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline = String::from("BENCH_BASELINE.json");
    let mut out: Option<String> = None;
    let mut write_baseline: Option<String> = None;
    let mut wall_tol_pct = 30.0;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--baseline" => baseline = value("--baseline"),
            "--out" => out = Some(value("--out")),
            "--write-baseline" => write_baseline = Some(value("--write-baseline")),
            "--wall-tol-pct" => {
                wall_tol_pct = value("--wall-tol-pct").parse().unwrap_or_else(|_| {
                    eprintln!("--wall-tol-pct needs a number");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench-regress [--baseline FILE] [--out FILE] [--wall-tol-pct P] [--write-baseline FILE]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument '{other}' (see bench-regress --help)");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = &write_baseline {
        std::fs::write(path, baseline_json(&quick_reference())).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("[baseline -> {path}]");
        return;
    }

    let text = std::fs::read_to_string(&baseline).unwrap_or_else(|e| {
        eprintln!("cannot read baseline {baseline}: {e}");
        std::process::exit(2);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{baseline}: {e}");
        std::process::exit(2);
    });

    let (hard, warn) = check(&doc, &quick_reference(), wall_tol_pct);
    eprintln!(
        "[{} hard failure(s), {} warning(s)]",
        hard.len(),
        warn.len()
    );
    for m in &hard {
        eprintln!("  FAIL {m}");
    }
    for m in &warn {
        eprintln!("  warn {m}");
    }

    let verdict = verdict_json(&baseline, &hard, &warn);
    match &out {
        Some(path) => {
            std::fs::write(path, &verdict).expect("write verdict");
            eprintln!("[verdict -> {path}]");
        }
        None => print!("{verdict}"),
    }
    if !hard.is_empty() {
        std::process::exit(1);
    }
}
