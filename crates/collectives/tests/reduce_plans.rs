//! Whole-team checks of the compiled reduction plans — reduce-scatter-
//! block and Rabenseifner allreduce — with no simulator.
//!
//! Every rank's plan for one shape runs on the shared abstract machine
//! (`common`), which asserts FIFO matching with equal lengths, single
//! writes into receive buffers, and that every `Reduce` folds disjoint
//! rank sets of one lane. Rank `r` contributes bytes whose fold set is
//! `{r}`. Asserted here, for p ∈ 2..=17:
//!
//! * **Every output lane folds every rank's contribution exactly once**
//!   — each rank's receive buffer ends holding the right lanes, each
//!   with all `p` ranks folded (the machine has already refused any
//!   rank folded twice).
//! * **The pairwise claim** (`reduce.rs`) — the i-th CMA read of every
//!   rank targets `p` distinct source ranks, so no process is read by
//!   two ranks in the same step.

mod common;

use common::{bytes, Bytes, Team};
use kacc_collectives::reduce::{Dtype, ReduceOp};
use kacc_collectives::schedule::{compile_allreduce_rsa, compile_reduce_scatter_block, Schedule};

/// Run all `p` ranks' plans, each rank `r` sending `send_len` bytes
/// folded as `{r}` into an unwritten `count`-byte receive buffer.
fn run(ctx: String, plans: Vec<Schedule>, send_len: usize, count: usize) -> Team {
    let order: Vec<usize> = (0..plans.len()).collect();
    let mut team = Team::new(ctx, plans, |r| {
        (bytes(0, send_len, 1 << r), vec![None; count])
    });
    team.run(&order);
    team
}

/// Assert that the i-th CMA read of every rank targets a distinct rank,
/// for every i, and that every rank issues `reads` of them.
fn assert_pairwise(team: &Team, p: usize, reads: usize, ctx: &str) {
    let mut sources = vec![Vec::new(); p];
    for c in &team.cma {
        sources[c.rank].push(c.target.0);
    }
    assert!(
        sources.iter().all(|s| s.len() == reads),
        "{ctx}: every rank issues {reads} reads"
    );
    for i in 0..reads {
        let mut step: Vec<usize> = sources.iter().map(|s| s[i]).collect();
        step.sort_unstable();
        step.dedup();
        assert_eq!(step.len(), p, "{ctx}: read {i} shares a source");
    }
}

#[test]
fn reduce_scatter_block_folds_every_block_once_pairwise() {
    let (dtype, op) = (Dtype::U64, ReduceOp::Sum);
    for p in 2..=17 {
        let count = 2 * dtype.width();
        let ctx = format!("reduce-scatter-block p={p}");
        let plans = (0..p)
            .map(|r| compile_reduce_scatter_block(p, r, count, dtype, op))
            .collect();
        let team = run(ctx.clone(), plans, p * count, count);
        let everyone = (1u64 << p) - 1;
        for r in 0..p {
            let want = bytes(r * count, count, everyone);
            assert_eq!(*team.recv(r), want, "{ctx}: rank {r} received");
        }
        assert_pairwise(&team, p, p - 1, &ctx);
    }
}

#[test]
fn rabenseifner_folds_every_lane_once_and_reads_pairwise() {
    let (dtype, op) = (Dtype::F64, ReduceOp::Max);
    let w = dtype.width();
    for p in 2..=17 {
        // Chunks of 3 lanes with a short last one; then fewer lanes than
        // ranks, so the last chunks are empty; then nothing at all.
        for lanes in [3 * p - 1, p / 2, 0] {
            let count = lanes * w;
            let ctx = format!("rabenseifner p={p} lanes={lanes}");
            let plans = (0..p)
                .map(|r| compile_allreduce_rsa(p, r, count, dtype, op))
                .collect();
            let team = run(ctx.clone(), plans, count, count);
            let want: Bytes = bytes(0, count, (1u64 << p) - 1);
            for r in 0..p {
                assert_eq!(*team.recv(r), want, "{ctx}: rank {r} received");
            }
            if lanes == 3 * p - 1 {
                // Every chunk is non-empty: p − 1 fold reads, then p − 1
                // ring reads from the left neighbour.
                assert_pairwise(&team, p, 2 * (p - 1), &ctx);
            }
        }
    }
}
