//! Pinned accounting invariants of a traced simulated run.
//!
//! The machine layer emits its phase spans with the *same* `f64` values
//! it adds to `RankStats`, in the same order, and the executor records
//! `ScheduleReport` and `step:*` spans through one shared path — so a
//! traced run's events must reproduce both accounting structures
//! **exactly** (bitwise `f64` equality and `==` on the reports, not a
//! tolerance). Any drift between the trace and the accounting is a bug
//! in the single-recording-path invariant.

use kacc_collectives::{gatherv_polled, scatter_polled, GatherAlgo, ScatterAlgo, ScheduleReport};
use kacc_machine::{run_polled_team_traced, PolledComm};
use kacc_model::ArchProfile;
use kacc_trace::{Breakdown, Event, EventKind, Track};

fn small_arch() -> ArchProfile {
    let mut a = ArchProfile::broadwell();
    a.name = "TraceNode".into();
    a.cores_per_socket = 16;
    a
}

/// Sum the durations of spans named `name` on `track`, in emission order
/// (the order the machine layer accumulated them into `RankStats`).
fn span_sum(events: &[Event], track: Track, name: &str) -> f64 {
    let mut total = 0.0f64;
    for ev in events {
        if ev.track == track && ev.name == name {
            if let EventKind::Span { dur, .. } = ev.kind {
                total += dur;
            }
        }
    }
    total
}

#[test]
fn contended_gather_spans_reproduce_stats_exactly() {
    let p = 12;
    let count = 16 * 4096; // multiple pin batches per transfer
    let root = 0;
    let arch = small_arch();
    let (run, reports, events) = run_polled_team_traced(&arch, p, move |rank| async move {
        let comm = &mut PolledComm::new(rank);
        let counts = vec![count; p];
        let sb = comm.alloc_with(&vec![rank as u8; count]).unwrap();
        let rb = (rank == root).then(|| comm.alloc(p * count));
        let algo = GatherAlgo::ParallelWrite;
        gatherv_polled(comm, algo, Some(sb), rb, &counts, None, root)
            .await
            .unwrap()
            .expect("gather ran a schedule")
    });

    // 1. Per-rank phase-span sums are bitwise equal to RankStats.
    for (r, stats) in run.stats.iter().enumerate() {
        let t = Track::Rank(r);
        assert_eq!(
            span_sum(&events, t, "syscall"),
            stats.syscall_ns,
            "rank {r} syscall"
        );
        assert_eq!(
            span_sum(&events, t, "check"),
            stats.check_ns,
            "rank {r} check"
        );
        assert_eq!(span_sum(&events, t, "lock"), stats.lock_ns, "rank {r} lock");
        assert_eq!(span_sum(&events, t, "pin"), stats.pin_ns, "rank {r} pin");
        assert_eq!(span_sum(&events, t, "copy"), stats.copy_ns, "rank {r} copy");
    }

    // 2. The trace covers the whole run: the latest event timestamp is
    // the simulator's virtual end time (the final dispatch of the
    // last-finishing rank happens at its finish time).
    let max_ts = events.iter().map(Event::ts).max().unwrap();
    assert_eq!(max_ts, run.end_ns);

    // 3. The executor's step spans rebuild each rank's ScheduleReport
    // exactly — report and spans flow through one recording path.
    for (r, report) in reports.iter().enumerate() {
        let mine: Vec<Event> = events
            .iter()
            .filter(|ev| ev.track == Track::Rank(r))
            .cloned()
            .collect();
        assert_eq!(
            &ScheduleReport::from_events(&mine),
            report,
            "rank {r} report drifted from its trace"
        );
    }

    // 4. The contended root lock server published queue-depth counters,
    // and the contention actually materialized (depth > 1).
    let depth_peak = events
        .iter()
        .filter(|ev| ev.track == Track::LockServer(root) && ev.name == "queue_depth")
        .filter_map(|ev| match ev.kind {
            EventKind::Counter { value, .. } => Some(value),
            _ => None,
        })
        .fold(0.0f64, f64::max);
    assert!(
        depth_peak > 1.0,
        "parallel-write gather should pile up on the root's lock server, peak {depth_peak}"
    );
}

#[test]
fn contended_scatter_lock_share_grows_superlinearly() {
    // Fig 2 methodology: all-parallel readers pile up on the root's
    // page-lock server, so total lock time grows *faster* than the
    // reader count — the breakdown aggregated from the trace must show
    // the same superlinear trend the paper measures with ftrace.
    let count = 8 * 4096;
    let lock_total = |p: usize| -> f64 {
        let arch = small_arch();
        let (_, _, events) = run_polled_team_traced(&arch, p, move |rank| async move {
            let comm = &mut PolledComm::new(rank);
            let sb = (rank == 0).then(|| comm.alloc_with(&vec![1u8; p * count]).unwrap());
            let rb = comm.alloc(count);
            let algo = ScatterAlgo::ParallelRead;
            scatter_polled(comm, algo, sb, Some(rb), count, 0)
                .await
                .unwrap();
        });
        let b = Breakdown::from_events(&events);
        assert!(b.share("lock") > 0.0, "p={p}: no lock time recorded");
        b.get("lock").map(|s| s.total_ns).unwrap()
    };
    let l4 = lock_total(4);
    let l8 = lock_total(8);
    let l16 = lock_total(16);
    assert!(
        l8 > 2.0 * l4 && l16 > 2.0 * l8,
        "lock time should grow superlinearly with readers: {l4} -> {l8} -> {l16}"
    );
}
