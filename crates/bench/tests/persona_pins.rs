//! Golden pins for the library personas and the contention
//! microbenchmarks.
//!
//! The values were captured on the commit *before* the personas were
//! ported from blocking `Comm` closures on the threads engine to async
//! bodies on the polled engine (PR 13), so they pin that port — and any
//! later change to the pt2pt protocols, the persona wiring or the
//! machine model under them — bit for bit in virtual nanoseconds.

use kacc_bench::measure::{breakdown, library_ns, pairs_read_ns, Coll};
use kacc_machine::RankStats;
use kacc_model::ArchProfile;
use kacc_mpi::baseline::Library;

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

#[test]
fn pairs_read_matches_the_pre_port_virtual_times() {
    let knl = pairs_read_ns(&ArchProfile::knl(), 4, 64 << 10);
    assert_eq!(knl.to_bits(), 4672697368896864256, "KNL 4 pairs 64K: {knl}");
    let bdw = pairs_read_ns(&ArchProfile::broadwell(), 8, 16 << 10);
    assert_eq!(bdw.to_bits(), 4670012911257649152, "BDW 8 pairs 16K: {bdw}");
}

#[test]
fn breakdown_matches_the_pre_port_step_accounting() {
    let got = breakdown(&ArchProfile::broadwell(), 7, 32);
    let want = RankStats {
        syscall_ns: 600.0,
        check_ns: 380.0,
        lock_ns: f64::from_bits(4673001939994315518),
        pin_ns: f64::from_bits(4667261920411838983),
        copy_ns: f64::from_bits(4681681301700196059),
        cma_ops: 1,
        bytes_read: 131072,
        bytes_written: 0,
    };
    assert_eq!(got, want);
}
