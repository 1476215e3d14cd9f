//! The kacc benchmark. One run = one workload:
//!
//! ```text
//! kacc-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! kacc-benchmark [--seed N] [--seconds S]     # all five, untraced then traced
//! kacc-benchmark --compare A.json B.json
//! ```
//!
//! See `benchmark/README.md`; `benchmark/run.sh` builds and starts this.

mod api;
mod cases;
mod host;
mod native;
mod points;
mod probes;
mod report;
mod sim;
mod smoke;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// What one run measured, before it is matched against `BENCHMARK.json`.
#[derive(Default)]
pub struct Outcome {
    /// Operations executed in timed passes.
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    pub values: BTreeMap<String, f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            // Any integer is a seed; negative ones wrap.
            "--seed" => {
                args.seed = value()?
                    .parse::<i128>()
                    .map_err(|e| format!("--seed: {e}"))? as u64
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One workload, one run: measure, print every metric by name, then the
/// result object as the last line.
fn run_one(spec: &spec::Spec, workload: &str, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    if !spec.workloads.iter().any(|w| w == workload) {
        eprintln!("kacc-benchmark: no workload named {workload}");
        return ExitCode::from(2);
    }
    // Pin before the first thread or child exists, so all inherit it.
    let cpus = host::allowed_cpus();
    let cpu = cpus.last().copied();
    match cpu {
        Some(c) if host::pin_to(c) => eprintln!("pinned to cpu {c} of {cpus:?}"),
        _ => eprintln!("not pinned (affinity call refused); timings will be noisier"),
    }

    if !host::settle_allocator() {
        eprintln!("allocator thresholds not set; pass times will follow the point order");
    }

    let origin = Instant::now();
    let mut rec = trace::Recorder::new(origin);
    let result = match (workload, trace) {
        ("native_cma", false) => native::run_untraced(seed, seconds, &cpus),
        ("native_cma", true) => native::run_traced(seed, seconds, &cpus, &mut rec),
        (_, false) => sim::run_untraced(workload, seed, seconds),
        (_, true) => sim::run_traced(workload, seed, seconds, &mut rec),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("kacc-benchmark: {workload}: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if trace {
        probes::run_all(&mut out, &cpus);
        match report::write_trace(workload, &rec) {
            Ok(path) => eprintln!("trace: {path}"),
            Err(e) => out.fail(format!("trace: {e}")),
        }
    }
    report::print_run(spec, workload, trace, &out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kacc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match spec::Spec::load() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("kacc-benchmark: BENCHMARK.json: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return report::compare(&spec, a, b);
    }
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    match &args.workload {
        Some(w) => run_one(&spec, w, args.seed, seconds, args.trace),
        None => report::run_all(&spec, args.seed, seconds),
    }
}
