//! Robustness artifact: completion time of the survivable collectives
//! as a function of the number of ranks silently killed mid-plan.
//!
//! Each point is one deterministic simulated run: the team starts the
//! collective under a seeded silent-kill fault plan (`ESRCH` on every
//! transport op of the victim from its kill point on), survivors detect
//! the deaths via adaptive liveness deadlines, agree on the dead set,
//! shrink, and re-execute (or resume from watermarks) over the survivor
//! group. The reported latency is the virtual time at which the last
//! rank finished — including detection stalls, the agreement rounds,
//! and the re-execution — so the chart is the paper-style "cost of a
//! failure" curve. The gen-2 sweep covers p ∈ {16, 64, 128} and
//! k ∈ {0..4} kills, and a companion chart splits the recovery into
//! its detect / agree / re-execute phases straight from
//! [`kacc_collectives::MembershipReport`]. Runs are bitwise-identical
//! across `--jobs` values.

use crate::render::{Chart, Series};
use kacc_collectives::{
    run_survivable_polled, AllgatherAlgo, AlltoallAlgo, BcastAlgo, Dtype, GatherAlgo,
    RecoveryPolicy, ReduceAlgo, ReduceOp, ScatterAlgo, SurvivableOp,
};
use kacc_fault::{FaultHook, FaultPlan};
use kacc_machine::{run_polled_team_faulty, PolledComm};
use kacc_model::ArchProfile;

const US: f64 = 1000.0;
const SEED: u64 = 0xC0FFEE;

/// The six survivable entry points, with the same algorithm picks the
/// chaos suites pin.
fn ops(count: usize, root: usize) -> Vec<(&'static str, SurvivableOp)> {
    vec![
        (
            "Scatter (throttled k=2)",
            SurvivableOp::Scatter {
                algo: ScatterAlgo::ThrottledRead { k: 2 },
                count,
                root,
            },
        ),
        (
            "Gather (parallel write)",
            SurvivableOp::Gather {
                algo: GatherAlgo::ParallelWrite,
                count,
                root,
            },
        ),
        (
            "Bcast (2-nomial)",
            SurvivableOp::Bcast {
                algo: BcastAlgo::KNomial { radix: 2 },
                count,
                root,
            },
        ),
        (
            "Allgather (Bruck)",
            SurvivableOp::Allgather {
                algo: AllgatherAlgo::Bruck,
                count,
            },
        ),
        (
            "Alltoall (pairwise)",
            SurvivableOp::Alltoall {
                algo: AlltoallAlgo::Pairwise,
                count,
            },
        ),
        (
            "Reduce (2-nomial sum)",
            SurvivableOp::Reduce {
                algo: ReduceAlgo::KNomialTree { radix: 2 },
                count,
                dtype: Dtype::U64,
                op: ReduceOp::Sum,
                root,
            },
        ),
    ]
}

/// Ranks killed (with their per-rank op-stream kill points) for each
/// failure count 0..=4. The victim sets nest (`kills(k)` ⊂
/// `kills(k+1)`) so each added failure strictly adds recovery work,
/// and victims avoid the root so survivors can recover.
fn kills(failures: usize, p: usize) -> Vec<(usize, u64)> {
    let victims = [(p / 2, 2), (p - 1, 5), (p - 3, 3), (p / 4, 4)];
    victims[..failures.min(victims.len())].to_vec()
}

fn kill_hook(kills: &[(usize, u64)]) -> FaultHook {
    let mut plan = FaultPlan::new(SEED);
    for &(d, after) in kills {
        plan = plan.silent_kill(d, after);
    }
    plan.hook()
}

/// The node profile a group size belongs on: Broadwell up to p = 64,
/// a KNL-class many-core node for wider groups — oversubscribing 128
/// ranks onto a dual-socket node serializes the recovery sweeps far
/// past anything the analytic deadline model (one rank per hardware
/// place, like a real MPI pinning) is meant to cover.
fn arch_for_p(p: usize) -> ArchProfile {
    if p <= 64 {
        ArchProfile::broadwell()
    } else {
        ArchProfile::knl()
    }
}

/// One deterministic survivable run: completion time plus the
/// worst-rank recovery-phase breakdown.
struct FailurePoint {
    /// Virtual time at which the last rank finished (ns).
    end_ns: u64,
    /// Worst-rank virtual time in torn executions before detection.
    detect_ns: u64,
    /// Worst-rank virtual time in agreement collectives.
    agree_ns: u64,
    /// Worst-rank virtual time re-executing / resuming the data plan.
    reexec_ns: u64,
    /// Ranks that were not killed but returned an error.
    survivor_errors: usize,
}

/// Run one survivable collective under a silent-kill plan. Errors on
/// killed ranks are expected and add nothing to the breakdown; an error
/// on any other rank is counted in `survivor_errors`. The end time
/// covers every rank's exit.
fn survivable_point(
    arch: &ArchProfile,
    p: usize,
    op: SurvivableOp,
    dead: Vec<(usize, u64)>,
) -> FailurePoint {
    let root = op.root().unwrap_or(0);
    let count = op.count();
    let (run, reps) = run_polled_team_faulty(arch, p, kill_hook(&dead), move |rank| async move {
        let mut comm = PolledComm::new(rank);
        let sb = comm.alloc(p * count);
        let rb = comm.alloc(p * count);
        let sent = source_blocks(op, rank, root, p) * count;
        comm.write_local(sb, 0, &vec![rank as u8; sent])
            .expect("write");
        let (s, r) = bindings(op, rank, root, sb, rb);
        run_survivable_polled(&mut comm, &op, s, r, &RecoveryPolicy::survivable())
            .await
            .ok()
            .map(|o| o.membership)
    });
    let phase = |f: fn(&kacc_collectives::MembershipReport) -> u64| {
        reps.iter().flatten().map(f).max().unwrap_or(0)
    };
    FailurePoint {
        end_ns: run.end_ns,
        detect_ns: phase(|m| m.detect_ns),
        agree_ns: phase(|m| m.agree_ns),
        reexec_ns: phase(|m| m.reexec_ns),
        survivor_errors: (0..p)
            .filter(|&r| reps[r].is_none() && !dead.iter().any(|&(d, _)| d == r))
            .count(),
    }
}

/// Parent-sized buffer bindings per op shape (both buffers are always
/// allocated; this only picks which are passed).
fn bindings(
    op: SurvivableOp,
    me: usize,
    root: usize,
    sb: kacc_comm::BufId,
    rb: kacc_comm::BufId,
) -> (Option<kacc_comm::BufId>, Option<kacc_comm::BufId>) {
    match op {
        SurvivableOp::Scatter { .. } => ((me == root).then_some(sb), Some(rb)),
        SurvivableOp::Gather { .. } => (Some(sb), (me == root).then_some(rb)),
        SurvivableOp::Bcast { .. } => (Some(sb), None),
        SurvivableOp::Allgather { .. } | SurvivableOp::Alltoall { .. } => (Some(sb), Some(rb)),
        SurvivableOp::Reduce { .. } => (Some(sb), (me == root).then_some(rb)),
    }
}

/// How many leading `count`-byte blocks of rank `me`'s send buffer some
/// epoch reads: one per member for a Scatter root and every Alltoall
/// rank (block `i` goes to survivor `i`), block 0 for a Bcast root and
/// every Gather, Allgather or Reduce rank, none for the other ranks.
/// Only these are written; the rest of the parent-sized buffer is never
/// materialized.
fn source_blocks(op: SurvivableOp, me: usize, root: usize, p: usize) -> usize {
    match op {
        SurvivableOp::Scatter { .. } if me == root => p,
        SurvivableOp::Alltoall { .. } => p,
        SurvivableOp::Scatter { .. } | SurvivableOp::Bcast { .. } if me != root => 0,
        _ => 1,
    }
}

/// Group sizes swept by the gen-2 failure study. Quick mode keeps the
/// single Broadwell reference point CI pins; full scale adds the wide
/// groups that exercise the multi-word membership masks (p = 128 needs
/// two mask words — the p ≤ 63 limit is gone).
fn group_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![16]
    } else {
        vec![16, 64, 128]
    }
}

/// Payload per rank: the dense paper size at the reference p, scaled
/// down for wide groups so parent-sized alltoall buffers (p × count
/// per rank) stay bounded.
fn count_for(p: usize, quick: bool) -> usize {
    if quick || p > 16 {
        4 << 10
    } else {
        32 << 10
    }
}

/// Completion time vs injected failures for every survivable
/// collective, one panel per group size, plus a recovery-phase
/// breakdown panel (detect / agree / re-execute, worst rank, from the
/// membership report) for the 2-nomial bcast and a panel counting the
/// survivors that returned an error (a completion time that includes
/// one is a time-to-fail, not a recovery).
pub fn fig_failures(quick: bool) -> Vec<Chart> {
    let root = 0;
    let failure_counts: Vec<usize> = vec![0, 1, 2, 3, 4];
    let mut charts = Vec::new();
    for p in group_sizes(quick) {
        let arch = arch_for_p(p);
        let count = count_for(p, quick);
        let mut c = Chart::new(
            format!("failures_p{p}"),
            format!(
                "Survivable collectives: completion time vs injected rank failures, {} ({p} processes, seed {SEED:#x})",
                arch.name
            ),
            "Ranks killed mid-collective",
            "Completion latency (us)",
        );
        let mut b = Chart::new(
            format!("failures_breakdown_p{p}"),
            format!(
                "Recovery-phase breakdown for Bcast (2-nomial) vs injected failures, {} ({p} processes)",
                arch.name
            ),
            "Ranks killed mid-collective",
            "Worst-rank phase time (us)",
        );
        let mut e = Chart::new(
            format!("failures_errors_p{p}"),
            format!(
                "Survivors that returned an error vs injected rank failures, {} ({p} processes)",
                arch.name
            ),
            "Ranks killed mid-collective",
            "Survivors with an error",
        );
        for (label, op) in ops(count, root) {
            let pts: Vec<FailurePoint> = failure_counts
                .iter()
                .map(|&k| survivable_point(&arch, p, op, kills(k, p)))
                .collect();
            let ys: Vec<f64> = pts.iter().map(|pt| pt.end_ns as f64 / US).collect();
            c.series.push(Series::new(label, &failure_counts, &ys));
            let errs: Vec<f64> = pts.iter().map(|pt| pt.survivor_errors as f64).collect();
            e.series.push(Series::new(label, &failure_counts, &errs));
            if matches!(op, SurvivableOp::Bcast { .. }) {
                for (phase, f) in [
                    (
                        "detect",
                        (|pt: &FailurePoint| pt.detect_ns) as fn(&FailurePoint) -> u64,
                    ),
                    ("agree", |pt| pt.agree_ns),
                    ("re-execute", |pt| pt.reexec_ns),
                ] {
                    let ys: Vec<f64> = pts.iter().map(|pt| f(pt) as f64 / US).collect();
                    b.series.push(Series::new(phase, &failure_counts, &ys));
                }
            }
        }
        c.notes.push(
            "each failure adds an adaptive detection stall, three agreement \
             rounds, and a re-execution (or watermark resume) over the survivors"
                .into(),
        );
        b.notes.push(
            "worst-rank virtual time per recovery phase from MembershipReport \
             {detect_ns, agree_ns, reexec_ns}"
                .into(),
        );
        e.notes.push(
            "ranks not killed whose survivable call returned an error; zero \
             means every survivor recovered"
                .into(),
        );
        charts.push(c);
        charts.push(b);
        charts.push(e);
    }
    charts
}

/// Per-failure virtual recovery cost at the CI reference point
/// (quick scale, p = 16): the worst over the six survivable
/// collectives of (one kill − clean) completion time. The PR-8
/// fixed-deadline recovery paid ~160 ms per failure here; the gen-2
/// adaptive deadlines are gated (hard, in `bench-regress`) at ≥4×
/// under that.
pub fn per_failure_cost_ns() -> u64 {
    let p = 16;
    let root = 0;
    let arch = arch_for_p(p);
    let count = count_for(p, true);
    ops(count, root)
        .into_iter()
        .map(|(_, op)| {
            let clean = survivable_point(&arch, p, op, vec![]).end_ns;
            let one = survivable_point(&arch, p, op, kills(1, p)).end_ns;
            one.saturating_sub(clean)
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_charts_are_monotone_and_deterministic() {
        let a = fig_failures(true);
        let b = fig_failures(true);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().any(|c| c.id.starts_with("failures_p")));
        assert!(a.iter().any(|c| c.id.starts_with("failures_breakdown_")));
        assert!(a.iter().any(|c| c.id.starts_with("failures_errors_")));
        for (ca, cb) in a.iter().zip(&b) {
            assert_eq!(ca.id, cb.id);
            for (sa, sb) in ca.series.iter().zip(&cb.series) {
                assert_eq!(
                    sa.points, sb.points,
                    "{}/{}: not deterministic",
                    ca.id, sa.label
                );
            }
            // Recovery is never free: every injected failure strictly
            // lengthens the completion-time curves. (The phase
            // breakdown panel is not monotone by construction — a
            // watermark resume can shrink reexec_ns while detect_ns
            // grows.)
            // Every survivor of the quick sweep recovers: no survivor
            // errors (the full sweep still has some, see
            // experiments/08-gen-2-survivability.md, "Survivor errors").
            if ca.id.starts_with("failures_errors_") {
                for sa in &ca.series {
                    assert!(
                        sa.points.iter().all(|&(_, y)| y == 0.0),
                        "{}/{}: survivors failed {:?}",
                        ca.id,
                        sa.label,
                        sa.points
                    );
                }
            }
            if ca.id.starts_with("failures_p") {
                for sa in &ca.series {
                    for w in sa.points.windows(2) {
                        assert!(
                            w[1].1 > w[0].1,
                            "{}/{}: completion time not increasing with failures ({} -> {})",
                            ca.id,
                            sa.label,
                            w[0].1,
                            w[1].1
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn per_failure_cost_is_deterministic_and_bounded() {
        let a = per_failure_cost_ns();
        assert_eq!(a, per_failure_cost_ns(), "cost probe not deterministic");
        assert!(a > 0, "a silent kill must cost something");
        // The same bound bench-regress enforces as a hard gate.
        assert!(
            a < 40_000_000,
            "per-failure recovery cost {a} ns breaches the 40 ms gate"
        );
    }
}
