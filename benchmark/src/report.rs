//! Output: the per-run metric lines and result object, the trace file,
//! the all-workloads driver with its `results.json`, and `--compare`.

use crate::api::{validate_chrome_json, Json};
use crate::spec::{Metric, Spec};
use crate::trace::{escape, Recorder};
use crate::{stats, Outcome};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

const OUT_DIR: &str = "benchmark/out";

/// Per-layer metrics that are exact for a seed: `--compare` reports them
/// as `same` or `differs`, never within a tolerance.
const EXACT: [&str; 9] = [
    "sim_core.events_per_pass",
    "collectives.plan_hits",
    "collectives.plan_misses",
    "collectives.steps_per_pass",
    "machine.cma_bytes",
    "bench.virtual_digest",
    "bench.kacc_speedup_geomean",
    "bench.model_err_pct_p50",
    "bench.recovery_ms_per_failure",
];

/// Write the recorder's spans to `benchmark/out/trace-<workload>.json`
/// after checking them with the repository's own validator.
pub fn write_trace(workload: &str, rec: &Recorder) -> Result<String, String> {
    let json = rec.to_chrome_json();
    validate_chrome_json(&json)?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
    let path = format!("{OUT_DIR}/trace-{workload}.json");
    std::fs::write(&path, json).map_err(|e| e.to_string())?;
    Ok(path)
}

/// The result object of the contract, on one line.
pub fn result_json(metrics: &[(&Metric, f64)], out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    for (i, (m, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            escape(&m.name),
            escape(&m.unit)
        );
    }
    s.push_str("}}");
    s
}

/// Print `name value unit` for every metric the mode owes, then the
/// result object. Refuses (no result line) when the run did not produce
/// exactly the metrics `BENCHMARK.json` lists for the mode.
pub fn print_run(spec: &Spec, workload: &str, trace: bool, out: &Outcome) -> ExitCode {
    for note in &out.notes {
        eprintln!("{workload}: {note}");
    }
    for e in &out.errors {
        eprintln!("{workload}: FAILED op: {e}");
    }
    let owed = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut metrics = Vec::new();
    for m in owed {
        match out.values.get(&m.name) {
            Some(v) if v.is_finite() => metrics.push((m, *v)),
            Some(v) => {
                eprintln!("kacc-benchmark: {workload}: {} is {v}", m.name);
                return ExitCode::FAILURE;
            }
            None => {
                eprintln!("kacc-benchmark: {workload}: no value for {}", m.name);
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(extra) = out
        .values
        .keys()
        .find(|k| !owed.iter().any(|m| &m.name == *k))
    {
        eprintln!("kacc-benchmark: {workload}: {extra} is not in BENCHMARK.json");
        return ExitCode::FAILURE;
    }
    for (m, v) in &metrics {
        println!("{} {v} {}", m.name, m.unit);
    }
    println!("{}", result_json(&metrics, out));
    if out.failed == 0 && out.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// All five workloads, each in its own process (so peak memory and the
/// global plan cache start fresh), untraced then traced; writes
/// `benchmark/out/results.json`.
pub fn run_all(spec: &Spec, seed: u64, seconds: f64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("kacc-benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut runs = Vec::new();
    let mut ok = true;
    for trace in [0, 1] {
        for w in &spec.workloads {
            eprintln!("== {w} (trace {trace}) ==");
            let child = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    &trace.to_string(),
                ])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .output();
            let (status_ok, stdout) = match child {
                Ok(o) => (
                    o.status.success(),
                    String::from_utf8_lossy(&o.stdout).into_owned(),
                ),
                Err(e) => {
                    eprintln!("kacc-benchmark: cannot start {w}: {e}");
                    (false, String::new())
                }
            };
            print!("{stdout}");
            let last = stdout.lines().last().unwrap_or("");
            match Json::parse(last) {
                Ok(_) if status_ok => runs.push(format!(
                    "{{\"workload\": \"{w}\", \"seed\": {seed}, \"trace\": {trace}, \"result\": {last}}}"
                )),
                _ => {
                    eprintln!("kacc-benchmark: {w} (trace {trace}) failed or printed no result");
                    ok = false;
                }
            }
        }
    }
    let doc = format!("{{\"runs\": [\n{}\n]}}\n", runs.join(",\n"));
    let path = format!("{OUT_DIR}/results.json");
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, doc)) {
        eprintln!("kacc-benchmark: {path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("results: {path}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `(workload, metric) -> values`, one per run in the file.
type Table = BTreeMap<(String, String), Vec<f64>>;

/// Read a results file (or several concatenated `runs` of one) into
/// tables of the untraced and the traced metrics.
pub fn read_results(text: &str) -> Result<(Table, Table), String> {
    let doc = Json::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("no runs array")?;
    let (mut e2e, mut layers) = (Table::new(), Table::new());
    for run in runs {
        let w = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without workload")?;
        let traced = run.get("trace").and_then(Json::as_u64) == Some(1);
        let metrics = run
            .path(&["result", "metrics"])
            .and_then(Json::as_obj)
            .ok_or("run without metrics")?;
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?;
            let table = if traced { &mut layers } else { &mut e2e };
            table
                .entry((w.to_string(), name.clone()))
                .or_default()
                .push(v);
        }
    }
    Ok((e2e, layers))
}

/// The verdict for one end-to-end metric on one workload: B against A.
pub fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> &'static str {
    let bound = m.bound.unwrap_or(0.0);
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = if m.lower { mb - ma } else { ma - mb } / ma.abs();
    let spread = (stats::iqr(a) / ma.abs()).max(stats::iqr(b) / mb.abs());
    let every_b_better = a
        .iter()
        .all(|&x| b.iter().all(|&y| if m.lower { y < x } else { y > x }));
    if spread > bound && !every_b_better {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else {
        "ok"
    }
}

/// Apply every end-to-end bound to B against A, one row per (workload,
/// metric); then list the exact per-layer metrics as same / differs.
pub fn compare(spec: &Spec, path_a: &str, path_b: &str) -> ExitCode {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| read_results(&t))
            .map_err(|e| format!("{p}: {e}"))
    };
    let ((a, la), (b, lb)) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("kacc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worse = 0;
    println!("workload metric A B change verdict");
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let key = (w.clone(), m.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                println!("{w} {} - - - missing", m.name);
                worse += 1;
                continue;
            };
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let v = verdict(m, va, vb);
            worse += usize::from(v == "worse");
            println!(
                "{w} {} {ma} {mb} {:+.2}% {v}",
                m.name,
                100.0 * (mb - ma) / ma.abs()
            );
        }
        for name in EXACT {
            let key = (w.clone(), name.to_string());
            // A layer the workload does not exercise reads 0 on both sides.
            if let (Some(va), Some(vb)) = (la.get(&key), lb.get(&key)) {
                if va.iter().chain(vb).any(|&v| v != 0.0) {
                    let v = if va == vb { "same" } else { "differs" };
                    println!("{w} {name} {} {} - {v}", va[0], vb[0]);
                }
            }
        }
    }
    if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower: bool, bound: f64) -> Metric {
        Metric {
            name: "pass_s".into(),
            unit: "s".into(),
            lower,
            bound: Some(bound),
        }
    }

    #[test]
    fn result_line_round_trips_through_minijson() {
        let m = metric(true, 0.1);
        let out = Outcome {
            attempted: 42,
            ..Outcome::default()
        };
        let line = result_json(&[(&m, 0.123456789012345)], &out);
        assert!(!line.contains('\n'));
        let doc = format!(
            "{{\"runs\": [{{\"workload\": \"w\", \"seed\": 1, \"trace\": 0, \"result\": {line}}}]}}"
        );
        let (e2e, layers) = read_results(&doc).expect("parses");
        assert!(layers.is_empty());
        assert_eq!(
            e2e[&("w".to_string(), "pass_s".to_string())],
            vec![0.123456789012345]
        );
        let parsed = Json::parse(&line).expect("one JSON object");
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(42));
        assert_eq!(
            parsed
                .path(&["metrics", "pass_s", "unit"])
                .and_then(Json::as_str),
            Some("s")
        );
    }

    #[test]
    fn verdicts() {
        let lower = metric(true, 0.10);
        assert_eq!(verdict(&lower, &[1.0, 1.0, 1.0], &[1.05, 1.05, 1.05]), "ok");
        assert_eq!(verdict(&lower, &[1.0, 1.0, 1.0], &[1.2, 1.2, 1.2]), "worse");
        // Spread wider than the bound: unresolved, unless B wins every pair.
        assert_eq!(
            verdict(&lower, &[0.8, 1.0, 1.3], &[0.9, 1.0, 1.2]),
            "unresolved"
        );
        assert_eq!(verdict(&lower, &[1.0, 1.2, 1.5], &[0.5, 0.6, 0.9]), "ok");
        let higher = metric(false, 0.10);
        assert_eq!(verdict(&higher, &[10.0], &[8.0]), "worse");
        assert_eq!(verdict(&higher, &[10.0], &[12.0]), "ok");
    }
}
