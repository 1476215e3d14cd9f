//! Golden pins for the cluster experiments behind Fig 17.
//!
//! The values were captured on the commit *before* `cluster_gather` /
//! `cluster_scatter` were ported from blocking closures with real buffers
//! on the threads engine to async bodies over a length-only cluster on
//! the polled engine (PR 17), so they pin that port — and any later change to
//! the hierarchical designs, the pt2pt protocols or the fabric model under
//! them — bit for bit in virtual nanoseconds and in dispatched events.
//! The event counts alone were refreshed once since, when a control send
//! stopped costing its sender an event; no end time moved.

use kacc_machine::TeamRun;
use kacc_model::{ArchProfile, FabricParams};
use kacc_netsim::{cluster_gather, cluster_scatter, MultiNodeStrategy};

const STRATEGIES: [MultiNodeStrategy; 3] = [
    MultiNodeStrategy::SingleLevel,
    MultiNodeStrategy::TwoLevel { k: 4 },
    MultiNodeStrategy::TwoLevelPipelined { k: 4 },
];
const NODES: [usize; 3] = [2, 4, 8];
const COUNTS: [usize; 3] = [4 << 10, 32 << 10, 64 << 10];

/// `(end_ns, events)` on KNL, 16 ranks per node, Omni-Path:
/// `[strategy][nodes][count]` in the order of the tables above.
type Pins = [[[(u64, u64); 3]; 3]; 3];

#[rustfmt::skip]
const GATHER: Pins = [
    // SingleLevel
    [
        [(3057, 34), (351814, 172), (625046, 172)],
        [(3057, 66), (628422, 332), (1069398, 332)],
        [(3057, 130), (1181638, 652), (1958102, 652)],
    ],
    // TwoLevel { k: 4 }
    [
        [(28072, 201), (164287, 197), (323334, 197)],
        [(38558, 403), (248175, 395), (491108, 395)],
        [(59530, 807), (415951, 791), (826656, 791)],
    ],
    // TwoLevelPipelined { k: 4 }
    [
        [(21130, 224), (120643, 219), (237748, 219)],
        [(31618, 454), (204531, 443), (405524, 443)],
        [(52594, 914), (372307, 891), (741076, 891)],
    ],
];

#[rustfmt::skip]
const SCATTER: Pins = [
    // SingleLevel
    [
        [(45512, 64), (329769, 188), (563686, 188)],
        [(90568, 128), (522473, 380), (840262, 380)],
        [(180680, 256), (907881, 764), (1393414, 764)],
    ],
    // TwoLevel { k: 4 }
    [
        [(29317, 199), (174247, 195), (343254, 195)],
        [(39803, 401), (258135, 393), (511028, 393)],
        [(60775, 805), (425911, 789), (846576, 789)],
    ],
    // TwoLevelPipelined { k: 4 } (scatter has no pipelined variant)
    [
        [(29317, 199), (174247, 195), (343254, 195)],
        [(39803, 401), (258135, 393), (511028, 393)],
        [(60775, 805), (425911, 789), (846576, 789)],
    ],
];

type Cluster = fn(&ArchProfile, usize, usize, FabricParams, usize, MultiNodeStrategy) -> TeamRun;

fn check(name: &str, run: Cluster, pins: &Pins) {
    let arch = ArchProfile::knl();
    for (strategy, per_strategy) in STRATEGIES.iter().zip(pins) {
        for (&nodes, per_nodes) in NODES.iter().zip(per_strategy) {
            for (&count, &want) in COUNTS.iter().zip(per_nodes) {
                let got = run(&arch, nodes, 16, arch.default_fabric(), count, *strategy);
                assert_eq!(
                    (got.end_ns, got.events),
                    want,
                    "{name} {strategy:?}, {nodes} nodes, {count} bytes"
                );
                assert_eq!(got.mail_pending, 0, "{name} {strategy:?} leaked a message");
            }
        }
    }
}

#[test]
fn cluster_gather_matches_the_pre_port_runs() {
    check("gather", cluster_gather, &GATHER);
}

#[test]
fn cluster_scatter_matches_the_pre_port_runs() {
    check("scatter", cluster_scatter, &SCATTER);
}
