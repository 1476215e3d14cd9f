//! Whole-team checks of the compiled two-level plans, with no simulator.
//!
//! Every rank's plan for one shape runs on the shared abstract machine
//! (`common`), which asserts matching and single writes. The root runs
//! first, then the other leaders, then members, so a leader that
//! forwarded a region before its members finished it would forward
//! stale bytes. Asserted here:
//!
//! * **Coverage** — every byte of the root's receive buffer (gather) and
//!   of each rank's (scatter) is written exactly once, with the right
//!   byte. Offsets are compiled into the CMA steps, not sent, so this is
//!   what shows they are right.
//! * **The paper's claim** — the CMA steps on one leader buffer split
//!   into at most `k` happens-before chains: no more than `k` members
//!   move data on it at once.

mod common;

use common::{bytes, max_cma_chains, Bytes, Team};
use kacc_collectives::hierarchical::{
    compile_hier_gather, compile_hier_gather_pipelined, compile_hier_scatter, NodeLayout,
};
use kacc_collectives::schedule::Schedule;
use kacc_comm::CommError;

type Compile = fn(&NodeLayout, usize, usize, usize, usize, bool) -> Schedule;

const DESIGNS: [(&str, Compile); 3] = [
    ("gather", compile_hier_gather),
    ("pipelined gather", compile_hier_gather_pipelined),
    ("scatter", compile_hier_scatter),
];

/// Compile and run all `nodes × rpn` ranks' plans for one shape, and
/// check matching, coverage and the throttle bound.
fn check((design, compile): (&str, Compile), nodes: usize, rpn: usize, root: usize, k: usize) {
    const COUNT: usize = 3;
    let p = nodes * rpn;
    let ctx = format!("{design} {nodes}x{rpn} root={root} k={k}");
    let layout = NodeLayout::new((0..p).map(|r| r / rpn).collect()).expect("block placement");
    let labels = |lo: usize, len: usize| bytes(lo, len, 0);
    let gather = design != "scatter";
    let plans = (0..p)
        .map(|r| compile(&layout, r, COUNT, root, k, true))
        .collect();
    let mut team = Team::new(ctx.clone(), plans, |r| match (gather, r == root) {
        (true, true) => (labels(r * COUNT, COUNT), vec![None; p * COUNT]),
        (true, false) => (labels(r * COUNT, COUNT), Bytes::new()),
        (false, true) => (labels(0, p * COUNT), vec![None; COUNT]),
        (false, false) => (Bytes::new(), vec![None; COUNT]),
    });

    let leaders: Vec<usize> = (0..nodes).map(|n| layout.leader(n, root)).collect();
    let mut order = vec![root];
    order.extend(leaders.iter().copied().filter(|&l| l != root));
    order.extend((0..p).filter(|r| !leaders.contains(r)));
    team.run(&order);

    for r in 0..p {
        let want = match (gather, r == root) {
            (true, true) => labels(0, p * COUNT),
            (true, false) => continue,
            (false, _) => labels(r * COUNT, COUNT),
        };
        assert_eq!(*team.recv(r), want, "{ctx}: rank {r} received");
    }
    let chains = max_cma_chains(&team.cma);
    assert!(
        chains <= k,
        "{ctx}: {chains} CMA steps can run at once on one buffer"
    );
}

#[test]
fn two_level_plans_match_cover_and_throttle_on_every_shape() {
    for nodes in 1..=4 {
        for rpn in [1, 2, 3, 5, 16] {
            let p = nodes * rpn;
            let mut roots = vec![0, p - 1, (nodes / 2) * rpn + rpn / 2];
            roots.dedup();
            let mut ks = vec![1, 2, 4, rpn];
            ks.sort_unstable();
            ks.dedup();
            for &root in &roots {
                for &k in &ks {
                    for design in DESIGNS {
                        check(design, nodes, rpn, root, k);
                    }
                }
            }
        }
    }
}

#[test]
fn only_block_placement_has_a_layout() {
    let layout = NodeLayout::new(vec![0, 0, 1, 1, 1]).expect("block placement");
    assert_eq!(layout.nodes, vec![vec![0, 1], vec![2, 3, 4]]);
    assert_eq!((layout.leader(1, 0), layout.leader(1, 3)), (2, 3));
    for scattered in [vec![0, 1, 0, 1], vec![0, 0, 2, 2]] {
        assert!(matches!(
            NodeLayout::new(scattered),
            Err(CommError::Protocol(_))
        ));
    }
}
