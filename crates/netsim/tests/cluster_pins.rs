//! Golden pins for the cluster experiments behind Fig 17.
//!
//! The values were captured on the commit *before* `cluster_gather` /
//! `cluster_scatter` were ported from blocking closures with real buffers
//! on the threads engine to async bodies over a phantom cluster on the
//! polled engine (PR 17), so they pin that port — and any later change to
//! the hierarchical designs, the pt2pt protocols or the fabric model under
//! them — bit for bit in virtual nanoseconds and in dispatched events.

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
        [(3057, 65), (351814, 219), (625046, 219)],
        [(3057, 129), (628422, 443), (1069398, 443)],
        [(3057, 257), (1181638, 891), (1958102, 891)],
    ],
    // TwoLevel { k: 4 }
    [
        [(28072, 259), (164287, 255), (323334, 255)],
        [(38558, 519), (248175, 511), (491108, 511)],
        [(59530, 1039), (415951, 1023), (826656, 1023)],
    ],
    // TwoLevelPipelined { k: 4 }
    [
        [(21130, 304), (120643, 299), (237748, 299)],
        [(31618, 614), (204531, 603), (405524, 603)],
        [(52594, 1234), (372307, 1211), (741076, 1211)],
    ],
];

#[rustfmt::skip]
const SCATTER: Pins = [
    // SingleLevel
    [
        [(45512, 95), (329769, 250), (563686, 250)],
        [(90568, 191), (522473, 506), (840262, 506)],
        [(180680, 383), (907881, 1018), (1393414, 1018)],
    ],
    // TwoLevel { k: 4 }
    [
        [(29317, 259), (174247, 255), (343254, 255)],
        [(39803, 521), (258135, 513), (511028, 513)],
        [(60775, 1045), (425911, 1029), (846576, 1029)],
    ],
    // TwoLevelPipelined { k: 4 } (scatter has no pipelined variant)
    [
        [(29317, 259), (174247, 255), (343254, 255)],
        [(39803, 521), (258135, 513), (511028, 513)],
        [(60775, 1045), (425911, 1029), (846576, 1029)],
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
