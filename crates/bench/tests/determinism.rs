//! Determinism suite: the parallel sweep harness and the kernel fast
//! path must never change a single bit of any result.
//!
//! Three claims are pinned here (see DESIGN.md §11.3):
//!
//! 1. **Repeatability** — running the same (arch, collective, p, msize)
//!    point twice yields bitwise-identical `TeamRun` and
//!    `ScheduleReport` values.
//! 2. **Job-count independence** — a fixed figure grid computed under
//!    `--jobs 1` and `--jobs 8` renders to identical CSV bytes.
//! 3. **Trace stability** — two traced runs of a contended collective
//!    produce identical Chrome-trace JSON: same virtual timestamps,
//!    same dispatch order, modulo nothing.
//!
//! Everything lives in one `#[test]` because the worker count is a
//! process-wide knob (`par::set_jobs`); concurrent tests mutating it
//! would still be *correct* (output is job-count independent — that is
//! the theorem) but a single test keeps the jobs-1-vs-8 comparison
//! honestly sequenced.

use kacc_bench::figs::registry;
use kacc_bench::par;
use kacc_collectives::{scatter_polled, ScatterAlgo, ScheduleReport};
use kacc_machine::{run_polled_team, run_polled_team_traced, PolledComm, TeamRun};
use kacc_model::ArchProfile;
use kacc_trace::chrome_trace_json;

/// One grid point: contended scatter with per-step accounting.
fn point(arch: &ArchProfile, p: usize, eta: usize) -> (TeamRun, Vec<Option<ScheduleReport>>) {
    run_polled_team(arch, p, move |me| async move {
        let mut comm = PolledComm::new(me);
        let sb = (me == 0).then(|| comm.alloc(p * eta));
        let rb = comm.alloc(eta);
        scatter_polled(&mut comm, ScatterAlgo::ParallelRead, sb, Some(rb), eta, 0)
            .await
            .expect("scatter")
    })
}

#[test]
fn grid_repeats_job_counts_and_traces_are_bitwise_identical() {
    // (1) Repeatability over a fixed (arch, p, msize) grid.
    for arch in [ArchProfile::knl(), ArchProfile::broadwell()] {
        for p in [4usize, 8] {
            for eta in [4usize << 10, 64 << 10] {
                let (run_a, rep_a) = point(&arch, p, eta);
                let (run_b, rep_b) = point(&arch, p, eta);
                assert_eq!(
                    run_a, run_b,
                    "TeamRun differs on repeat: {} p={p} eta={eta}",
                    arch.name
                );
                assert_eq!(
                    rep_a, rep_b,
                    "ScheduleReport differs on repeat: {} p={p} eta={eta}",
                    arch.name
                );
                assert_eq!(run_a.mail_pending, 0);
                assert!(run_a.events > 0, "events wired through TeamRun");
            }
        }
    }

    // (2) Job-count independence: a real figure artifact (fig9 exercises
    // three transports x two architectures) rendered to CSV under 1 vs 8
    // workers. CSV is the repro binary's artifact format, so byte
    // equality here is exactly the "bitwise-identical result CSVs"
    // acceptance gate.
    let fig9 = registry()
        .into_iter()
        .find(|(name, _)| *name == "fig9")
        .expect("fig9 registered")
        .1;
    let csv_of = |jobs: usize| -> Vec<String> {
        par::set_jobs(jobs);
        let charts = fig9(true);
        par::set_jobs(1);
        charts.iter().map(|c| c.to_csv(|x| x.to_string())).collect()
    };
    let seq = csv_of(1);
    let par8 = csv_of(8);
    assert_eq!(seq, par8, "fig9 CSVs differ between --jobs 1 and --jobs 8");
    assert!(!seq.is_empty() && seq.iter().all(|c| !c.is_empty()));

    // (3) Chrome-trace stability: identical JSON across repeats — the
    // scheduler's dispatch instants (fast path included) carry the same
    // virtual timestamps every time.
    let traced = || {
        let arch = ArchProfile::broadwell();
        let (_, _, events) = run_polled_team_traced(&arch, 6, |me| async move {
            let mut comm = PolledComm::new(me);
            let eta = 16 << 10;
            let sb = (me == 0).then(|| comm.alloc(6 * eta));
            let rb = comm.alloc(eta);
            let algo = ScatterAlgo::ThrottledRead { k: 2 };
            scatter_polled(&mut comm, algo, sb, Some(rb), eta, 0)
                .await
                .expect("scatter");
        });
        chrome_trace_json(&events)
    };
    let t1 = traced();
    let t2 = traced();
    assert_eq!(t1, t2, "Chrome-trace JSON differs between repeats");
    assert!(t1.contains("\"lock\""), "trace captured the machine phases");
}
