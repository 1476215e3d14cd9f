//! CI perf-regression gate: diff a fresh quick-mode run against the
//! committed baseline.
//!
//! ```text
//! bench-regress                          # check vs BENCH_BASELINE.json
//! bench-regress --baseline FILE         # alternate baseline
//! bench-regress --out verdict.json      # machine-readable verdict
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
//! measurements. Nothing here is wall-clock: `benchmark/run.sh` compares
//! host time, and `repro --bench-out` reports it per figure.
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
        "  \"note\": \"Committed quick-mode regression baseline for bench-regress: per-figure event counts, wake-storm diagnostics, the per-failure recovery cost, and the full kacc-metrics snapshot are deterministic and compared exactly; the recovery cost is additionally hard-capped at 40 ms virtual regardless of the baseline; metrics newly registered since the baseline warn as additions. Regenerate with: cargo run --release -p kacc-bench --bin bench-regress -- --write-baseline BENCH_BASELINE.json\",\n",
    );
    s.push_str("  \"quick\": true,\n  \"jobs\": 1,\n");
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
fn check(base: &Json, fresh: &Reference) -> (Vec<String>, Vec<String>) {
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
            "--help" | "-h" => {
                println!(
                    "usage: bench-regress [--baseline FILE] [--out FILE] [--write-baseline FILE]"
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

    let (hard, warn) = check(&doc, &quick_reference());
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A small reference run: two figures, a wake-storm probe, a
    /// recovery cost under the cap and two metrics.
    fn reference() -> Reference {
        Reference {
            total_events: 30,
            figures: vec![("fig1".into(), 10), ("fig2".into(), 20)],
            storm: WakeStorm {
                iterations: 5,
                events: 100,
                events_per_barrier: 20.0,
                peak_queue_len: 8,
                wake_fanout_max: 1,
                wake_fanout_mean: 1.0,
                wakes_raw: 7,
                wakes_coalesced: 0,
            },
            per_failure_cost_ns: 30_000_000,
            metrics: vec![("coll.exec.ns#count".into(), 4), ("sim.events".into(), 30)],
        }
    }

    /// `check` of `fresh` against `base` rendered as a committed baseline.
    fn verdict(base: &Reference, fresh: &Reference) -> (Vec<String>, Vec<String>) {
        let doc = Json::parse(&baseline_json(base)).expect("baseline parses");
        check(&doc, fresh)
    }

    #[test]
    fn an_exact_baseline_passes() {
        assert_eq!(verdict(&reference(), &reference()), (vec![], vec![]));
    }

    #[test]
    fn a_drifted_figure_event_count_fails() {
        let mut fresh = reference();
        fresh.figures[1].1 += 1;
        let (hard, warn) = verdict(&reference(), &fresh);
        assert_eq!(hard, ["figure fig2: baseline 20 events, fresh 21"]);
        assert!(warn.is_empty());
    }

    #[test]
    fn a_drifted_metric_fails() {
        let mut fresh = reference();
        fresh.metrics[0].1 = 5;
        let (hard, _) = verdict(&reference(), &fresh);
        assert_eq!(hard, ["metric coll.exec.ns#count: baseline 4, fresh 5"]);
    }

    #[test]
    fn a_figure_missing_from_either_side_fails() {
        let mut fresh = reference();
        fresh.figures.pop();
        let (hard, _) = verdict(&reference(), &fresh);
        assert_eq!(hard, ["figure fig2: in baseline but not produced"]);

        let mut fresh = reference();
        fresh.figures.push(("fig3".into(), 0));
        let (hard, _) = verdict(&reference(), &fresh);
        assert_eq!(
            hard,
            ["figure fig3: produced but absent from baseline (regenerate with --write-baseline)"]
        );
    }

    #[test]
    fn a_recovery_cost_over_the_cap_fails_even_when_the_baseline_agrees() {
        let mut over = reference();
        over.per_failure_cost_ns = RECOVERY_CAP_NS + 1;
        let (hard, _) = verdict(&over, &over);
        assert_eq!(
            hard,
            [format!(
                "recovery.per_failure_cost_ns: {} exceeds the absolute {RECOVERY_CAP_NS} ns cap",
                RECOVERY_CAP_NS + 1
            )]
        );
    }

    #[test]
    fn a_metric_new_since_the_baseline_only_warns() {
        let mut fresh = reference();
        fresh.metrics.push(("sim.new".into(), 1));
        let (hard, warn) = verdict(&reference(), &fresh);
        assert!(hard.is_empty(), "{hard:?}");
        assert_eq!(
            warn,
            ["metric sim.new: new since baseline (refresh with --write-baseline)"]
        );
    }
}
