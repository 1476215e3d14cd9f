//! The rooted plans — Scatter, Gather and direct Bcast — pinned and
//! checked whole-team, with no simulator.
//!
//! All eight designs come out of one builder in `schedule.rs`: a Gather
//! is a Scatter with the CMA direction reversed, and a direct Bcast is a
//! Scatter whose every block is the whole buffer. Checked here:
//!
//! * **Pins** — an FNV-1a digest of every rank's plan over a grid of
//!   shapes, one per design, captured while the three compilers were
//!   still written out separately. A moved digest is a changed plan.
//! * **The whole team** — every rank's plan runs on the shared abstract
//!   machine (`common`), which asserts matching and single writes. Each
//!   block then sits where the layout puts it, and the CMA steps on any
//!   one target buffer split into as many happens-before chains as the
//!   paper claims (§IV–V): one per leaf with data for the parallel
//!   designs, at most min(k, p − 1) for the throttled ones, and one for
//!   the sequential ones.

mod common;

use common::{bytes, max_cma_chains, Bytes, Team};
use kacc_collectives::schedule::{compile_bcast, compile_gather, compile_scatter, Schedule, Slot};
use kacc_collectives::{BcastAlgo, GatherAlgo, ScatterAlgo, Tuner};
use kacc_model::ArchProfile;

/// `(offset, len)` per rank: 3 bytes each, packed by rank.
fn uniform(p: usize) -> Vec<(usize, usize)> {
    (0..p).map(|r| (3 * r, 3)).collect()
}

/// `(offset, len)` per rank: lengths cycle 1, 2, 3, 0 and the slots are
/// packed in reverse rank order, so `displs` is not the prefix sum.
fn ragged(p: usize) -> Vec<(usize, usize)> {
    let len = |r: usize| (r + 1) % 4;
    (0..p)
        .map(|r| ((r + 1..p).map(len).sum(), len(r)))
        .collect()
}

fn roots(p: usize) -> Vec<usize> {
    let mut roots = vec![0, p / 2, p - 1];
    roots.dedup();
    roots
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Family {
    Scatter,
    Gather,
    Bcast,
}

/// How the leaves take turns; `Throttled` is not a Bcast design.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Design {
    Parallel,
    Sequential,
    Throttled(usize),
}

/// One rooted call. A Bcast of `count` bytes has every block `(0, count)`
/// and no own-block copy.
struct Shape<'a> {
    family: Family,
    design: Design,
    p: usize,
    root: usize,
    layout: &'a [(usize, usize)],
    own: bool,
}

impl Shape<'_> {
    fn plan(&self, rank: usize) -> Schedule {
        let Shape {
            p,
            root,
            layout,
            own,
            ..
        } = *self;
        match (self.family, self.design) {
            (Family::Scatter, design) => {
                let algo = match design {
                    Design::Parallel => ScatterAlgo::ParallelRead,
                    Design::Sequential => ScatterAlgo::SequentialWrite,
                    Design::Throttled(k) => ScatterAlgo::ThrottledRead { k },
                };
                compile_scatter(algo, p, rank, layout, root, own)
            }
            (Family::Gather, design) => {
                let algo = match design {
                    Design::Parallel => GatherAlgo::ParallelWrite,
                    Design::Sequential => GatherAlgo::SequentialRead,
                    Design::Throttled(k) => GatherAlgo::ThrottledWrite { k },
                };
                compile_gather(algo, p, rank, layout, root, own)
            }
            (Family::Bcast, design) => {
                let algo = match design {
                    Design::Parallel => BcastAlgo::DirectRead,
                    Design::Sequential => BcastAlgo::DirectWrite,
                    Design::Throttled(_) => unreachable!("no throttled direct bcast"),
                };
                compile_bcast(algo, p, rank, layout[0].1, root)
            }
        }
    }
}

// ---- (a) Plan digests ------------------------------------------------------

fn fnv(h: u64, s: &str) -> u64 {
    s.bytes()
        .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a over the `Debug` rendering of every rank's plan of `family` /
/// `design(k)`, over p × root × layout × own-block copy × k in that order.
/// Only throttled designs read k, so the others take k = 1 only; a Bcast
/// takes its count from the layout and the own-block copy on only.
fn digest(family: Family, design: fn(usize) -> Design) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for p in [2usize, 3, 4, 7, 8, 16, 33] {
        for root in roots(p) {
            for layout in [uniform(p), ragged(p)] {
                let count = layout.iter().map(|&(_, len)| len).sum();
                let whole = vec![(0, count); p];
                for own in [true, false] {
                    for k in [1, 2, 3, p - 1, p + 5] {
                        let design = design(k);
                        let takes_k = matches!(design, Design::Throttled(_));
                        let bcast = family == Family::Bcast;
                        if (!takes_k && k != 1) || (bcast && !own) {
                            continue;
                        }
                        let layout = if bcast { &whole } else { &layout };
                        let shape = Shape {
                            family,
                            design,
                            p,
                            root,
                            layout,
                            own,
                        };
                        for rank in 0..p {
                            h = fnv(h, &format!("{:?}", shape.plan(rank)));
                        }
                    }
                }
            }
        }
    }
    h
}

/// A design's digest: its family, its design for a throttle factor, and
/// the pinned value.
type Pin = (Family, fn(usize) -> Design, u64);

#[test]
fn rooted_plans_match_their_parent_captured_digests() {
    let pins: [Pin; 8] = [
        (Family::Scatter, |_| Design::Parallel, 0x0980_d929_7728_298b),
        (
            Family::Scatter,
            |_| Design::Sequential,
            0xfb09_c370_f61c_964d,
        ),
        (Family::Scatter, Design::Throttled, 0x6d2a_5dcb_98d6_27b1),
        (Family::Gather, |_| Design::Parallel, 0x6859_6c6e_fc1a_f941),
        (
            Family::Gather,
            |_| Design::Sequential,
            0xe748_ad8a_695b_4e69,
        ),
        (Family::Gather, Design::Throttled, 0x9357_8e87_1591_492b),
        (Family::Bcast, |_| Design::Parallel, 0x3f54_9afb_dd74_13d7),
        (Family::Bcast, |_| Design::Sequential, 0xabc9_652d_d7a3_4a29),
    ];
    for (family, design, pin) in pins {
        let got = digest(family, design);
        assert_eq!(
            got,
            pin,
            "{family:?} {:?}: plans moved ({got:#018x})",
            design(2)
        );
    }
}

// ---- (b) The whole team ----------------------------------------------------

/// Run all `p` ranks' plans for one shape and check coverage and the
/// paper's bound on concurrent CMA steps per target buffer.
fn check(shape: &Shape) {
    let Shape {
        family,
        design,
        p,
        root,
        layout,
        own,
    } = *shape;
    let ctx = format!("{family:?} {design:?} p={p} root={root} own={own} layout={layout:?}");
    // A byte carries its offset in the root's buffer.
    let block = |r: usize| bytes(layout[r].0, layout[r].1, 0);
    let blank = |r: usize| vec![None; layout[r].1];
    let span = layout
        .iter()
        .map(|&(off, len)| off + len)
        .max()
        .unwrap_or(0);
    let plans = (0..p).map(|r| shape.plan(r)).collect();
    let mut team = Team::new(ctx.clone(), plans, |r| match (family, r == root) {
        (Family::Scatter, true) => (bytes(0, span, 0), if own { blank(r) } else { Bytes::new() }),
        (Family::Scatter, false) => (Bytes::new(), blank(r)),
        (Family::Gather, true) => (if own { block(r) } else { Bytes::new() }, vec![None; span]),
        (Family::Gather, false) => (block(r), Bytes::new()),
        (Family::Bcast, true) => (block(r), Bytes::new()),
        (Family::Bcast, false) => (blank(r), Bytes::new()),
    });
    team.run(&(0..p).collect::<Vec<_>>());

    for r in 0..p {
        let (buf, want) = match (family, r == root) {
            (Family::Scatter, true) if !own => continue,
            (Family::Scatter, _) => (team.recv(r), block(r)),
            (Family::Gather, true) => {
                let mut want = vec![None; span];
                for q in (0..p).filter(|&q| q != root || own) {
                    let (off, len) = layout[q];
                    want[off..off + len].copy_from_slice(&block(q));
                }
                (team.recv(r), want)
            }
            (Family::Gather, false) => continue,
            (Family::Bcast, _) => (team.buf((r, Slot::Send)), block(r)),
        };
        assert_eq!(*buf, want, "{ctx}: rank {r} holds");
    }

    let leaves = (0..p).filter(|&r| r != root && layout[r].1 > 0).count();
    let chains = max_cma_chains(&team.cma);
    match design {
        Design::Parallel => assert_eq!(chains, leaves, "{ctx}: concurrent CMA steps"),
        Design::Throttled(k) => assert!(
            chains <= k.min(p - 1),
            "{ctx}: {chains} CMA steps can run at once on one buffer"
        ),
        Design::Sequential => {
            assert_eq!(
                chains,
                usize::from(leaves > 0),
                "{ctx}: concurrent CMA steps"
            )
        }
    }
}

#[test]
fn rooted_plans_match_cover_and_bound_contention_on_every_shape() {
    let tuners = [
        ArchProfile::knl(),
        ArchProfile::broadwell(),
        ArchProfile::power8(),
    ]
    .map(|arch| Tuner::new(&arch));
    for p in (2..=33).chain([64, 160]) {
        let mut designs = vec![Design::Parallel, Design::Sequential];
        let mut ks: Vec<usize> = tuners
            .iter()
            .flat_map(|t| t.throttle_candidates(p))
            .chain([p + 5])
            .collect();
        ks.sort_unstable();
        ks.dedup();
        designs.extend(ks.into_iter().map(Design::Throttled));
        for root in roots(p) {
            for layout in [uniform(p), ragged(p)] {
                let count = layout.iter().map(|&(_, len)| len).sum();
                let whole = vec![(0, count); p];
                for design in [Design::Parallel, Design::Sequential] {
                    let bcast = Shape {
                        family: Family::Bcast,
                        design,
                        p,
                        root,
                        layout: &whole,
                        own: false,
                    };
                    check(&bcast);
                }
                for own in [true, false] {
                    for family in [Family::Scatter, Family::Gather] {
                        for &design in &designs {
                            let shape = Shape {
                                family,
                                design,
                                p,
                                root,
                                layout: &layout,
                                own,
                            };
                            check(&shape);
                        }
                    }
                }
            }
        }
    }
}
