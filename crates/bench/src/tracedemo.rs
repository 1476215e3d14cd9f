//! Trace-driven artifacts: run a collective under the structured tracer
//! and derive the paper's ftrace-style phase breakdown (Fig 2
//! methodology) from the captured events, or export the full timeline as
//! Chrome trace-event JSON for Perfetto.
//!
//! Unlike the analytic charts in [`crate::figs`], these panels are
//! *measured* from per-event spans emitted by the machine layer, so they
//! double as an end-to-end check that the trace accounts for the same
//! time the simulator charges.

use crate::render::{Chart, Series};
use kacc_collectives::{scatter_polled, RecoveryReport, ScatterAlgo, ScheduleReport};
use kacc_fault::FaultPlan;
use kacc_machine::{run_polled_team_faulty_traced, run_polled_team_traced, PolledComm, TeamRun};
use kacc_model::ArchProfile;
use kacc_trace::{chrome_trace_json, Breakdown, Event};

/// Phase span names the machine layer emits for a CMA transfer, in
/// pipeline order (Fig 2's ftrace buckets).
pub const PHASES: [&str; 5] = ["syscall", "check", "lock", "pin", "copy"];

/// Run a one-to-all parallel-read scatter (`p - 1` concurrent readers of
/// the root's exposed buffer) under the tracer and return the virtual-time
/// run summary plus every captured event.
pub fn traced_contended_scatter(
    arch: &ArchProfile,
    p: usize,
    count: usize,
) -> (TeamRun, Vec<Event>) {
    let (run, _, events) = run_polled_team_traced(arch, p, move |rank| async move {
        contended_scatter(rank, p, count)
            .await
            .0
            .expect("traced scatter");
    });
    (run, events)
}

/// One rank's part of the contended scatter: rank 0 scatters `count`
/// bytes of `0x5A` to each of `p` ranks by parallel reads. Returns the
/// executor's report (or the typed error) and the received payload.
async fn contended_scatter(
    rank: usize,
    p: usize,
    count: usize,
) -> (kacc_comm::Result<ScheduleReport>, Vec<u8>) {
    let mut comm = PolledComm::new(rank);
    let sb = (rank == 0).then(|| {
        comm.alloc_with(&vec![0x5Au8; p * count])
            .expect("fresh buffer accepts write")
    });
    let rb = comm.alloc(count);
    let res = scatter_polled(&mut comm, ScatterAlgo::ParallelRead, sb, Some(rb), count, 0).await;
    let report = res.map(|r| r.expect("multi-rank scatter always runs a schedule"));
    (report, comm.read_all(rb).unwrap_or_default())
}

/// Chrome trace-event JSON for a default contended scatter (used by
/// `repro --trace-out`).
pub fn default_trace_json(p: usize, count: usize) -> String {
    let arch = ArchProfile::broadwell();
    let (_, events) = traced_contended_scatter(&arch, p, count);
    chrome_trace_json(&events)
}

/// One rank's outcome under a fault plan: the executor report (with
/// recovery accounting) or the stringified typed error, plus the
/// received payload for verification.
type FaultyOutcome = (std::result::Result<ScheduleReport, String>, Vec<u8>);

/// The same contended one-to-all scatter as [`traced_contended_scatter`],
/// but with a fault plan installed on every transport endpoint and the
/// per-rank executor reports returned for recovery accounting.
pub fn traced_faulty_scatter(
    arch: &ArchProfile,
    p: usize,
    count: usize,
    plan: FaultPlan,
) -> (TeamRun, Vec<FaultyOutcome>, Vec<Event>) {
    run_polled_team_faulty_traced(arch, p, plan.hook(), move |rank| async move {
        let (res, payload) = contended_scatter(rank, p, count).await;
        (res.map_err(|e| format!("{e:?}")), payload)
    })
}

fn sum_recovery<'a>(reports: impl Iterator<Item = &'a RecoveryReport>) -> RecoveryReport {
    let mut total = RecoveryReport::default();
    for r in reports {
        total.transient_retries += r.transient_retries;
        total.transient_ns += r.transient_ns;
        total.short_resumes += r.short_resumes;
        total.short_bytes += r.short_bytes;
        total.denied += r.denied;
        total.denied_ns += r.denied_ns;
        total.timeouts += r.timeouts;
        total.timeout_ns += r.timeout_ns;
        total.backoffs += r.backoffs;
        total.backoff_ns += r.backoff_ns;
        total.fallbacks += r.fallbacks;
        total.fallback_bytes += r.fallback_bytes;
        total.fallback_ns += r.fallback_ns;
    }
    total
}

/// `repro --fault-plan` artifact: run the contended scatter under `plan`
/// and render a human report — rank outcomes, payload verification,
/// summed recovery accounting, and the ftrace-style phase breakdown
/// (recovery spans included). Returns the text report plus the Chrome
/// trace-event JSON of the same run for `--trace-out`.
pub fn fault_plan_report(plan: FaultPlan, p: usize, count: usize) -> (String, String) {
    use std::fmt::Write as _;
    let seed = plan.seed;
    let plan_text = plan.format();
    let arch = ArchProfile::broadwell();
    let (run, outcomes, events) = traced_faulty_scatter(&arch, p, count, plan);
    let json = chrome_trace_json(&events);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Contended {p}-rank scatter ({} per rank) under fault plan (seed {seed}):",
        crate::size_label(count)
    );
    for line in plan_text.lines() {
        let _ = writeln!(out, "    {line}");
    }
    let _ = writeln!(out, "  virtual end: {} ns", run.end_ns);

    let ok = outcomes.iter().filter(|(r, _)| r.is_ok()).count();
    let _ = writeln!(out, "  rank outcomes: {ok}/{p} completed");
    let expected = vec![0x5Au8; count];
    for (rank, (res, payload)) in outcomes.iter().enumerate() {
        match res {
            Ok(_) if *payload == expected => {}
            Ok(_) => {
                let _ = writeln!(out, "    rank {rank}: PAYLOAD MISMATCH");
            }
            Err(e) => {
                let _ = writeln!(out, "    rank {rank}: {e}");
            }
        }
    }

    let rec = sum_recovery(
        outcomes
            .iter()
            .filter_map(|(r, _)| r.as_ref().ok())
            .map(|r| &r.recovery),
    );
    let _ = writeln!(out, "  recovery (summed over completed ranks):");
    let _ = writeln!(
        out,
        "    transient retries {:>6}  ({} ns in failed attempts, {} backoffs / {} ns)",
        rec.transient_retries, rec.transient_ns, rec.backoffs, rec.backoff_ns
    );
    let _ = writeln!(
        out,
        "    short resumes     {:>6}  ({} bytes salvaged)",
        rec.short_resumes, rec.short_bytes
    );
    let _ = writeln!(
        out,
        "    denied -> fallback{:>6}  ({} fallbacks, {} bytes, {} ns two-copy)",
        rec.denied, rec.fallbacks, rec.fallback_bytes, rec.fallback_ns
    );
    let _ = writeln!(out, "    timeouts          {:>6}", rec.timeouts);

    let _ = writeln!(out, "  phase breakdown (recovery spans included):");
    for line in Breakdown::from_events(&events).to_table().lines() {
        let _ = writeln!(out, "    {line}");
    }
    (out, json)
}

/// `breakdown` artifact: phase shares of a contended one-to-all scatter
/// versus reader count, aggregated from trace spans (the measured
/// counterpart of the analytic Fig 2(c) panel). The notes carry the full
/// ftrace-style table for each reader count.
pub fn breakdown(quick: bool) -> Vec<Chart> {
    let arch = ArchProfile::broadwell();
    let readers: Vec<usize> = if quick {
        vec![3, 7]
    } else {
        vec![1, 3, 7, 15, 27]
    };
    let count = if quick { 16 << 10 } else { 128 << 10 };
    let mut chart = Chart::new(
        "fig2c-trace",
        "Traced scatter phase breakdown vs concurrent readers (ftrace methodology)",
        "Concurrent Readers",
        "Share of Accounted Time (%)",
    );
    let mut shares: Vec<Vec<f64>> = vec![Vec::new(); PHASES.len()];
    for &r in &readers {
        let (run, events) = traced_contended_scatter(&arch, r + 1, count);
        let b = Breakdown::from_events(&events);
        for (i, ph) in PHASES.iter().enumerate() {
            shares[i].push(100.0 * b.share(ph));
        }
        chart.notes.push(format!(
            "{r} readers, end at {} ns:\n{}",
            run.end_ns,
            b.to_table()
        ));
    }
    for (i, ph) in PHASES.iter().enumerate() {
        chart.series.push(Series::new(*ph, &readers, &shares[i]));
    }
    vec![chart]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_shares_sum_to_one() {
        let charts = breakdown(true);
        assert_eq!(charts.len(), 1);
        let chart = &charts[0];
        assert_eq!(chart.series.len(), PHASES.len());
        for &x in &chart.xs() {
            // Every CMA phase shows up with a sane share. Shares are of
            // *all* accounted span time (step:* and ctrl spans included,
            // and executor step spans nest the phase spans they wrap),
            // so the five phases sum to well under 100%.
            for s in &chart.series {
                let y = s.at(x).expect("every series covers every x");
                assert!(y > 0.0 && y < 100.0, "x={x}: phase {} share {y}%", s.label);
            }
        }
    }

    #[test]
    fn default_trace_json_is_nonempty_and_valid() {
        let json = default_trace_json(4, 4 << 10);
        kacc_trace::validate::validate_chrome_json(&json).expect("exported trace validates");
    }

    #[test]
    fn fault_plan_report_recovers_and_validates() {
        // The plan of experiments/03-recovery-under-faults.md: 5% transient EAGAIN on
        // every transport op plus probabilistic half-way CMA truncation.
        let plan = FaultPlan::parse(
            "seed 42\n\
             rule prob=0.05 kind=transient errno=11\n\
             rule ops=cma_read prob=0.25 max=2 kind=truncate frac=1/2\n",
        )
        .expect("plan parses");
        let (text, json) = fault_plan_report(plan, 8, 32 << 10);
        // Every rank recovers under the default policy: no error lines.
        assert!(text.contains("rank outcomes: 8/8 completed"), "{text}");
        assert!(!text.contains("PAYLOAD MISMATCH"), "{text}");
        // The plan deterministically fires at this seed, and both the
        // accounting and the trace show the recovery work.
        assert!(!text.contains("transient retries      0"), "{text}");
        assert!(text.contains("fault:"), "{text}");
        kacc_trace::validate::validate_chrome_json(&json).expect("faulty trace validates");
    }
}
