//! Golden pins for the library personas and the contention
//! microbenchmarks.
//!
//! The values were captured on the commit *before* the personas were
//! ported from blocking `Comm` closures on the threads engine to async
//! bodies on the polled engine (PR 13), so they pin that port — and any
//! later change to the pt2pt protocols, the persona wiring or the
//! machine model under them — bit for bit in virtual nanoseconds.
//!
//! The Broadwell p = 7 and KNL p = 64 points were captured on the commit
//! before the personas' pt2pt stacks became compiled plans, and pin that
//! port off the power-of-two paths (ring, pairwise, binomial) and at the
//! benchmark's KNL shape.

use kacc::model::ArchProfile;
use kacc::mpi::baseline::Library;
use kacc_bench::measure::{breakdown, library_ns, pairs_read_ns, Coll};

/// `library_ns` at Broadwell p = 8 per persona, in `Coll::all()` order
/// (Bcast, Scatter, Gather, Allgather, Alltoall).
#[rustfmt::skip]
const PINS: [(Library, usize, [u64; 5]); 8] = [
    (Library::Kacc,     4 << 10,  [5780, 5780, 5780, 39521, 38615]),
    (Library::Mvapich2, 4 << 10,  [5199, 21905, 21598, 15772, 15772]),
    (Library::IntelMpi, 4 << 10,  [9298, 30489, 32796, 56715, 56715]),
    (Library::OpenMpi,  4 << 10,  [5780, 5780, 5780, 40715, 15772]),
    (Library::Kacc,     64 << 10, [70731, 71313, 71313, 487983, 487077]),
    (Library::Mvapich2, 64 << 10, [81314, 371024, 370381, 489497, 489497]),
    (Library::IntelMpi, 64 << 10, [137022, 475980, 511101, 875925, 875925]),
    (Library::OpenMpi,  64 << 10, [70731, 71313, 71313, 489177, 489497]),
];

#[test]
fn library_personas_match_the_pre_port_virtual_times() {
    let arch = ArchProfile::broadwell();
    for (lib, eta, want) in PINS {
        let got = Coll::all().map(|coll| library_ns(&arch, 8, eta, coll, lib) as u64);
        assert_eq!(got, want, "{lib:?} at {eta} bytes");
    }
}

/// `library_ns` at Broadwell p = 7 per persona, in `Coll::all()` order:
/// a non-power-of-two team takes the pairwise alltoall's shifted
/// partners and the binomial trees' partial subtrees; 1 KiB is eager
/// under both pt2pt personas.
#[rustfmt::skip]
const PINS_P7: [(Library, usize, [u64; 5]); 8] = [
    (Library::Kacc,     1 << 10,  [4280, 3140, 3140, 17175, 13968]),
    (Library::Mvapich2, 1 << 10,  [1585, 4619, 4350, 4745, 4745]),
    (Library::IntelMpi, 1 << 10,  [1585, 4619, 4350, 4745, 4745]),
    (Library::OpenMpi,  1 << 10,  [3140, 3140, 3140, 15768, 4745]),
    (Library::Kacc,     64 << 10, [59896, 61666, 61666, 375100, 375100]),
    (Library::Mvapich2, 64 << 10, [74174, 311955, 311464, 376917, 376917]),
    (Library::IntelMpi, 64 << 10, [114887, 356021, 369392, 664449, 664449]),
    (Library::OpenMpi,  64 << 10, [59896, 61666, 61666, 376900, 376917]),
];

/// `library_ns` at KNL p = 64, 64 KiB (the benchmark's KNL group) for
/// Bcast, Scatter and Gather.
#[rustfmt::skip]
const PINS_KNL64: [(Library, [u64; 3]); 4] = [
    (Library::Kacc,     [249742, 528007, 528007]),
    (Library::Mvapich2, [238443, 2977940, 2977795]),
    (Library::IntelMpi, [393365, 3788378, 4074118]),
    (Library::OpenMpi,  [1967001, 1967001, 1967001]),
];

#[test]
fn library_personas_match_at_seven_ranks() {
    let arch = ArchProfile::broadwell();
    for (lib, eta, want) in PINS_P7 {
        let got = Coll::all().map(|coll| library_ns(&arch, 7, eta, coll, lib) as u64);
        assert_eq!(got, want, "{lib:?} at {eta} bytes");
    }
}

#[test]
fn rooted_personas_match_on_knl_at_sixty_four_ranks() {
    let arch = ArchProfile::knl();
    let rooted = [Coll::Bcast, Coll::Scatter, Coll::Gather];
    for (lib, want) in PINS_KNL64 {
        let got = rooted.map(|coll| library_ns(&arch, 64, 64 << 10, coll, lib) as u64);
        assert_eq!(got, want, "{lib:?}");
    }
}

#[test]
fn pairs_read_matches_the_pre_port_virtual_times() {
    let knl = pairs_read_ns(&ArchProfile::knl(), 4, 64 << 10);
    assert_eq!(knl.to_bits(), 4672697368896864256, "KNL 4 pairs 64K: {knl}");
    let bdw = pairs_read_ns(&ArchProfile::broadwell(), 8, 16 << 10);
    assert_eq!(bdw.to_bits(), 4670012911257649152, "BDW 8 pairs 16K: {bdw}");
}

#[test]
fn breakdown_matches_the_pre_port_step_accounting() {
    // Syscall, check, lock, pin, copy: per-reader means, ns.
    let got = breakdown(&ArchProfile::broadwell(), 7, 32);
    let want = [
        600f64.to_bits(),
        380f64.to_bits(),
        4673001939994315518,
        4667261920411838983,
        4681681301700196059,
    ];
    assert_eq!(got.map(f64::to_bits), want, "{got:?}");
}
