//! Every library persona, verified on the thread transport through the
//! blocking wrappers: the async persona bodies the simulator runs must
//! also move the right bytes when `Blocking` + `block_on` drive them on
//! a real, concurrently executing `Comm`.

use kacc::collectives::verify::{
    alltoall_expected, alltoall_sendbuf, contribution, diff, gather_expected, scatter_expected,
    scatter_sendbuf,
};
use kacc::collectives::Tuner;
use kacc::comm::{Comm, CommExt};
use kacc::model::ArchProfile;
use kacc::mpi::baseline::{self, Library};
use kacc::native::run_threads;

const P: usize = 8;
const LIBS: [Library; 4] = [
    Library::Kacc,
    Library::Mvapich2,
    Library::IntelMpi,
    Library::OpenMpi,
];
/// One size per pt2pt protocol: eager, two-copy, CMA rendezvous.
const COUNTS: [usize; 3] = [600, 6000, 40_000];

/// Run `body` on every rank under every persona and message size and
/// hand each rank's result buffer to `check`.
fn for_every_persona(
    body: impl Fn(&mut dyn Comm, Library, &Tuner, usize) -> Vec<u8> + Send + Sync + Copy,
    check: impl Fn(usize, usize, &[u8]) -> Option<String>,
) {
    for lib in LIBS {
        for count in COUNTS {
            let outs = run_threads(P, move |comm| {
                let tuner = Tuner::new(&ArchProfile::broadwell());
                body(comm, lib, &tuner, count)
            });
            for (rank, got) in outs.iter().enumerate() {
                if let Some(d) = check(rank, count, got) {
                    panic!("{lib:?} count={count} rank {rank}: {d}");
                }
            }
        }
    }
}

#[test]
fn every_persona_bcasts_on_threads() {
    let root = 2;
    for_every_persona(
        |comm, lib, tuner, count| {
            let buf = if comm.rank() == root {
                comm.alloc_with(&contribution(root, count))
            } else {
                comm.alloc(count)
            };
            baseline::bcast(comm, lib, tuner, buf, count, root).unwrap();
            comm.read_all(buf).unwrap()
        },
        |_, count, got| diff(got, &contribution(root, count)),
    );
}

#[test]
fn every_persona_scatters_on_threads() {
    for_every_persona(
        |comm, lib, tuner, count| {
            let sb = (comm.rank() == 0).then(|| comm.alloc_with(&scatter_sendbuf(P, count)));
            let rb = comm.alloc(count);
            baseline::scatter(comm, lib, tuner, sb, Some(rb), count, 0).unwrap();
            comm.read_all(rb).unwrap()
        },
        |rank, count, got| diff(got, &scatter_expected(rank, count)),
    );
}

#[test]
fn every_persona_gathers_on_threads() {
    for_every_persona(
        |comm, lib, tuner, count| {
            let me = comm.rank();
            let sb = comm.alloc_with(&contribution(me, count));
            let rb = (me == 0).then(|| comm.alloc(P * count));
            baseline::gather(comm, lib, tuner, Some(sb), rb, count, 0).unwrap();
            rb.map(|b| comm.read_all(b).unwrap()).unwrap_or_default()
        },
        |rank, count, got| (rank == 0).then(|| diff(got, &gather_expected(P, count)))?,
    );
}

#[test]
fn every_persona_allgathers_on_threads() {
    for_every_persona(
        |comm, lib, tuner, count| {
            let sb = comm.alloc_with(&contribution(comm.rank(), count));
            let rb = comm.alloc(P * count);
            baseline::allgather(comm, lib, tuner, Some(sb), rb, count).unwrap();
            comm.read_all(rb).unwrap()
        },
        |_, count, got| diff(got, &gather_expected(P, count)),
    );
}

#[test]
fn every_persona_alltoalls_on_threads() {
    for_every_persona(
        |comm, lib, tuner, count| {
            let sb = comm.alloc_with(&alltoall_sendbuf(comm.rank(), P, count));
            let rb = comm.alloc(P * count);
            baseline::alltoall(comm, lib, tuner, Some(sb), rb, count).unwrap();
            comm.read_all(rb).unwrap()
        },
        |rank, count, got| diff(got, &alltoall_expected(rank, P, count)),
    );
}
