//! Whole-team checks of the point-to-point plans, with no simulator.
//!
//! Every rank's plan of every `pt2pt::Algo` runs on the shared abstract
//! machine (`common`), for p ∈ 2..=9 and every root, under Eager,
//! ShmCopy and RendezvousCma on one node, and under RendezvousCma (CMA
//! within a node, the network rendezvous across) and NetRendezvous on
//! two. The machine asserts matching — every send meets its receive, and
//! every request-to-send announces the offset and length its receiver
//! reads — and that every byte of a caller's buffer is written once.
//! Asserted here:
//!
//! * **Coverage** — every block lands where the collective puts it.
//! * **The handshake serializes** — the CMA steps on any one buffer form
//!   a single happens-before chain: a rendezvous sender waits for one
//!   reader's FIN before it announces its buffer to the next, so a pt2pt
//!   stack never has two copies on one buffer at once. It pays a round
//!   trip per message instead (§III), where the native designs pay
//!   contention.

mod common;

use common::{bytes, max_cma_chains, Bytes, Team};
use kacc_collectives::pt2pt::{Algo, Protocol};
use kacc_collectives::schedule::Slot;

const COUNT: usize = 3;

fn algos(root: usize) -> [Algo; 7] {
    [
        Algo::Bcast { root },
        Algo::Scatter { root },
        Algo::Gather { root },
        Algo::FlatScatter { root },
        Algo::FlatGather { root },
        Algo::Allgather,
        Algo::Alltoall,
    ]
}

/// Rank `r`'s send and receive buffers for `algo`, and what its receive
/// buffer (Bcast: its data buffer) must hold at the end, if anything. A
/// byte carries its index in the concatenation of every rank's send
/// buffer (a rooted collective's blocks: in the root's buffer).
fn buffers(algo: Algo, p: usize, r: usize) -> (Bytes, Bytes, Option<Bytes>) {
    let block = |q: usize| bytes(q * COUNT, COUNT, 0);
    let blank = |len: usize| vec![None; len];
    let all = bytes(0, p * COUNT, 0);
    match algo {
        Algo::Bcast { root } if r == root => (block(0), Bytes::new(), Some(block(0))),
        Algo::Bcast { .. } => (blank(COUNT), Bytes::new(), Some(block(0))),
        Algo::Scatter { root } | Algo::FlatScatter { root } => {
            let send = if r == root { all } else { Bytes::new() };
            (send, blank(COUNT), Some(block(r)))
        }
        Algo::Gather { root } | Algo::FlatGather { root } if r == root => {
            (block(r), blank(p * COUNT), Some(all))
        }
        Algo::Gather { .. } | Algo::FlatGather { .. } => (block(r), Bytes::new(), None),
        Algo::Allgather => (block(r), blank(p * COUNT), Some(all)),
        Algo::Alltoall => {
            let want = (0..p)
                .flat_map(|q| bytes((q * p + r) * COUNT, COUNT, 0))
                .collect();
            (
                bytes(r * p * COUNT, p * COUNT, 0),
                blank(p * COUNT),
                Some(want),
            )
        }
    }
}

/// Run all `p` ranks' plans of `algo` under `proto`, the first `split`
/// ranks on one node and the rest on another, check coverage, and return
/// the most CMA chains on one buffer and the number of CMA steps.
fn check(algo: Algo, p: usize, split: usize, proto: Protocol) -> (usize, usize) {
    let ctx = format!("{algo:?} {proto:?} p={p} split={split}");
    let node_of = |r: usize| usize::from(r >= split);
    let plans = (0..p)
        .map(|r| algo.compile(p, r, &node_of, COUNT, proto, false))
        .collect();
    let mut team = Team::new(ctx.clone(), plans, |r| {
        let (send, recv, _) = buffers(algo, p, r);
        (send, recv)
    });
    // Highest rank first, so a rank that forwarded before it received
    // would forward unwritten bytes.
    team.run(&(0..p).rev().collect::<Vec<_>>());
    for r in 0..p {
        let (_, _, want) = buffers(algo, p, r);
        let Some(want) = want else { continue };
        let slot = match algo {
            Algo::Bcast { .. } => Slot::Send,
            _ => Slot::Recv,
        };
        assert_eq!(*team.buf((r, slot)), want, "{ctx}: rank {r} holds");
    }
    (max_cma_chains(&team.cma), team.cma.len())
}

#[test]
fn one_node_plans_match_cover_and_serialize_the_handshake() {
    for p in 2..=9 {
        for root in 0..p {
            for algo in algos(root) {
                for proto in [Protocol::Eager, Protocol::ShmCopy] {
                    assert_eq!(check(algo, p, p, proto), (0, 0), "{algo:?} {proto:?}");
                }
                let (chains, steps) = check(algo, p, p, Protocol::RendezvousCma);
                assert!(steps > 0, "{algo:?} p={p}: a rendezvous reads");
                assert_eq!(chains, 1, "{algo:?} p={p}: concurrent CMA steps");
            }
        }
    }
}

#[test]
fn two_node_plans_rendezvous_over_the_fabric_across_nodes() {
    for p in 2..=9usize {
        let split = p.div_ceil(2);
        for root in 0..p {
            for algo in algos(root) {
                assert_eq!(
                    check(algo, p, split, Protocol::NetRendezvous),
                    (0, 0),
                    "{algo:?} p={p}"
                );
                // CMA only between ranks of one node, one chain per buffer.
                let (chains, steps) = check(algo, p, split, Protocol::RendezvousCma);
                assert_eq!(chains, usize::from(steps > 0), "{algo:?} p={p}");
            }
        }
    }
}
