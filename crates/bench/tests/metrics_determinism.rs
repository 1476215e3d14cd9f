//! The `--metrics-out` determinism contract, pinned end to end.
//!
//! `kacc-metrics` promises that the registry snapshot is a pure function
//! of *what* was simulated — not of worker interleaving (`--jobs`). This
//! suite spawns the real `repro` binary (fresh process per run, so each
//! snapshot starts from a zeroed registry) on the same quick artifact
//! under `--jobs 1` vs `--jobs 4` and asserts the JSON snapshot **and**
//! the Prometheus text exposition are bitwise-identical byte strings.

use std::path::PathBuf;
use std::process::Command;

/// Run `repro --quick fig10 --metrics-out <file>` with the given job
/// count; return the snapshot JSON and `.prom` exposition bytes.
fn metrics_run(dir: &std::path::Path, jobs: usize) -> (Vec<u8>, Vec<u8>) {
    let out: PathBuf = dir.join(format!("metrics_j{jobs}.json"));
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--jobs", &jobs.to_string(), "--metrics-out"])
        .arg(&out)
        .arg("fig10")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn repro");
    assert!(status.success(), "repro failed for --jobs {jobs}");
    let json = std::fs::read(&out).expect("read snapshot json");
    let prom = std::fs::read(out.with_extension("json.prom")).expect("read exposition");
    (json, prom)
}

#[test]
fn metrics_snapshot_identical_across_jobs() {
    let dir = std::env::temp_dir().join(format!("kacc-metrics-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");

    let reference = metrics_run(&dir, 1);
    let got = metrics_run(&dir, 4);
    assert_eq!(
        reference.0, got.0,
        "metrics JSON differs between --jobs 1 and --jobs 4"
    );
    assert_eq!(
        reference.1, got.1,
        "Prometheus exposition differs between --jobs 1 and --jobs 4"
    );

    // Sanity on content: the snapshot must actually carry the
    // instrumentation, not vacuously match as empty files.
    let json = String::from_utf8(reference.0).expect("utf8");
    for name in [
        "sim.events",
        "sim.wake.fanout",
        "sim.queue.len.hwm",
        "machine.lock.queue_depth",
        "machine.transport.cma.ops",
        "coll.exec.ns",
        "coll.step.cma_read.ns",
        "coll.recovery.fallbacks",
    ] {
        assert!(json.contains(name), "snapshot is missing metric {name}");
    }
    let prom = String::from_utf8(reference.1).expect("utf8");
    assert!(prom.contains("# TYPE kacc_sim_events counter"));
    assert!(prom.contains("kacc_machine_lock_queue_depth_bucket"));

    std::fs::remove_dir_all(&dir).ok();
}
