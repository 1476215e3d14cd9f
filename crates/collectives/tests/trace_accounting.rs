//! Pinned accounting invariants of a traced simulated run.
//!
//! The executor records `ScheduleReport` and `step:*` spans through one
//! shared path, so a traced run's events must reproduce every report
//! **exactly** (`==`, not a tolerance). The machine's phase times have
//! no second record to check: its phase spans are the only one.

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

#[test]
fn contended_gather_trace_reproduces_the_reports_exactly() {
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

    // 1. The trace covers the whole run: the latest event timestamp is
    // the simulator's virtual end time (the final dispatch of the
    // last-finishing rank happens at its finish time).
    let max_ts = events.iter().map(Event::ts).max().unwrap();
    assert_eq!(max_ts, run.end_ns);

    // 2. The executor's step spans rebuild each rank's ScheduleReport
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

    // 3. The contended root lock server published queue-depth counters,
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
