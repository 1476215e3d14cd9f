//! Baseline library personas — the comparison targets of §VII.
//!
//! Each persona reflects how a production MPI library realizes
//! large-message intra-node collectives:
//!
//! * **MVAPICH2-like** — collectives composed from point-to-point
//!   transfers; large messages use the CMA rendezvous protocol
//!   (RTS/CTS + single-copy read), small messages go eager.
//! * **Intel-MPI-like** — two-copy shared-memory transfers throughout
//!   (its CMA support is limited to pt2pt in the paper's setups).
//! * **Open-MPI-like** — kernel-assisted *one-copy* collectives in the
//!   style of Ma et al. \[10\]: direct parallel reads/writes with no
//!   contention management (the paper's related-work comparison point).
//! * **Kacc** — this repository's contention-aware designs, selected by
//!   the model-driven [`Tuner`].
//!
//! All personas run over the same endpoint, so measured differences come
//! from algorithm and protocol choices alone — the apples-to-apples
//! setting the paper's Figs 13–18 need. Each persona is written once as
//! an `*_async` function over [`AsyncComm`] (what the simulator runs);
//! the plain-named functions drive the same code on a blocking
//! [`Comm`].

use crate::pt2pt::Protocol;
use crate::ptcoll;
use kacc_collectives::{
    allgather_polled, alltoall_polled, bcast_polled, gatherv_polled, scatter_polled, AllgatherAlgo,
    BcastAlgo, GatherAlgo, ScatterAlgo, Tuner,
};
use kacc_comm::{block_on, AsyncComm, Blocking, BufId, Comm, Result};

/// Which library persona executes the collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Library {
    /// This repository's contention-aware, tuner-selected designs.
    Kacc,
    /// Point-to-point based with CMA rendezvous for large messages.
    Mvapich2,
    /// Two-copy shared-memory transfers.
    IntelMpi,
    /// Kernel-assisted one-copy collectives without contention control.
    OpenMpi,
}

impl Library {
    /// Display name used in tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            Library::Kacc => "KACC (proposed)",
            Library::Mvapich2 => "MVAPICH2-like",
            Library::IntelMpi => "IntelMPI-like",
            Library::OpenMpi => "OpenMPI-like",
        }
    }

    /// Everything except the proposed design.
    pub fn baselines() -> [Library; 3] {
        [Library::Mvapich2, Library::IntelMpi, Library::OpenMpi]
    }

    /// Rendezvous threshold the pt2pt personas use (the paper cites
    /// ~16 KiB as where kernel-assisted pt2pt starts paying off).
    pub const RNDV_THRESHOLD: usize = 16 * 1024;

    fn pt_proto(self, len: usize) -> Protocol {
        match self {
            Library::Mvapich2 => Protocol::for_len(len, Self::RNDV_THRESHOLD),
            Library::IntelMpi => {
                if len < 4096 {
                    Protocol::Eager
                } else {
                    Protocol::ShmCopy
                }
            }
            Library::OpenMpi | Library::Kacc => Protocol::for_len(len, Self::RNDV_THRESHOLD),
        }
    }
}

/// Scatter under a persona. `tuner` is consulted only by
/// [`Library::Kacc`].
pub async fn scatter_async<C: AsyncComm>(
    comm: &mut C,
    lib: Library,
    tuner: &Tuner,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    count: usize,
    root: usize,
) -> Result<()> {
    let p = comm.size();
    match lib {
        Library::Kacc => {
            let algo = tuner.scatter(p, count);
            scatter_polled(comm, algo, sendbuf, recvbuf, count, root)
                .await
                .map(drop)
        }
        Library::OpenMpi => {
            // One-copy parallel reads, no throttling (Ma et al. style).
            let algo = ScatterAlgo::ParallelRead;
            scatter_polled(comm, algo, sendbuf, recvbuf, count, root)
                .await
                .map(drop)
        }
        Library::Mvapich2 | Library::IntelMpi => {
            let rb = match recvbuf {
                Some(rb) => rb,
                // pt2pt trees cannot leave the root's slice in place.
                None => {
                    let tmp = comm.alloc(count);
                    let r =
                        ptcoll::scatter(comm, sendbuf, tmp, count, root, lib.pt_proto(count)).await;
                    comm.free(tmp)?;
                    return r;
                }
            };
            ptcoll::scatter(comm, sendbuf, rb, count, root, lib.pt_proto(count)).await
        }
    }
}

/// Gather under a persona.
pub async fn gather_async<C: AsyncComm>(
    comm: &mut C,
    lib: Library,
    tuner: &Tuner,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    count: usize,
    root: usize,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    match lib {
        Library::Kacc => {
            let algo = tuner.gather(p, count);
            gatherv_polled(comm, algo, sendbuf, recvbuf, &vec![count; p], None, root)
                .await
                .map(drop)
        }
        Library::OpenMpi => {
            let algo = GatherAlgo::ParallelWrite;
            gatherv_polled(comm, algo, sendbuf, recvbuf, &vec![count; p], None, root)
                .await
                .map(drop)
        }
        Library::Mvapich2 | Library::IntelMpi => {
            let sb = match sendbuf {
                Some(sb) => sb,
                None => {
                    // MPI_IN_PLACE at the root: stage the root's block.
                    let rb = recvbuf.expect("root gather has recvbuf");
                    let tmp = comm.alloc(count);
                    comm.copy_local(rb, me * count, tmp, 0, count).await?;
                    let r =
                        ptcoll::gather(comm, tmp, recvbuf, count, root, lib.pt_proto(count)).await;
                    comm.free(tmp)?;
                    return r;
                }
            };
            ptcoll::gather(comm, sb, recvbuf, count, root, lib.pt_proto(count)).await
        }
    }
}

/// Broadcast under a persona.
pub async fn bcast_async<C: AsyncComm>(
    comm: &mut C,
    lib: Library,
    tuner: &Tuner,
    buf: BufId,
    count: usize,
    root: usize,
) -> Result<()> {
    let p = comm.size();
    match lib {
        Library::Kacc => {
            let algo = tuner.bcast(p, count);
            bcast_polled(comm, algo, buf, count, root).await.map(drop)
        }
        Library::OpenMpi => bcast_polled(comm, BcastAlgo::DirectRead, buf, count, root)
            .await
            .map(drop),
        Library::Mvapich2 | Library::IntelMpi => {
            ptcoll::bcast(comm, buf, count, root, lib.pt_proto(count)).await
        }
    }
}

/// Allgather under a persona.
pub async fn allgather_async<C: AsyncComm>(
    comm: &mut C,
    lib: Library,
    tuner: &Tuner,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
) -> Result<()> {
    let p = comm.size();
    let me = comm.rank();
    match lib {
        Library::Kacc => {
            let algo = tuner.allgather(p, count);
            allgather_polled(comm, algo, sendbuf, recvbuf, count)
                .await
                .map(drop)
        }
        Library::OpenMpi => {
            // Neighbor-exchange kernel-assisted ring (Ma et al. style).
            let algo = AllgatherAlgo::RingNeighbor { j: 1 };
            allgather_polled(comm, algo, sendbuf, recvbuf, count)
                .await
                .map(drop)
        }
        Library::Mvapich2 | Library::IntelMpi => {
            let sb = match sendbuf {
                Some(sb) => sb,
                None => {
                    let tmp = comm.alloc(count);
                    comm.copy_local(recvbuf, me * count, tmp, 0, count).await?;
                    let r = ptcoll::allgather(comm, tmp, recvbuf, count, lib.pt_proto(count)).await;
                    comm.free(tmp)?;
                    return r;
                }
            };
            ptcoll::allgather(comm, sb, recvbuf, count, lib.pt_proto(count)).await
        }
    }
}

/// Alltoall under a persona.
pub async fn alltoall_async<C: AsyncComm>(
    comm: &mut C,
    lib: Library,
    tuner: &Tuner,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
) -> Result<()> {
    let p = comm.size();
    match lib {
        Library::Kacc => {
            let algo = tuner.alltoall(p, count);
            alltoall_polled(comm, algo, sendbuf, recvbuf, count)
                .await
                .map(drop)
        }
        Library::OpenMpi | Library::Mvapich2 | Library::IntelMpi => {
            let sb = match sendbuf {
                Some(sb) => sb,
                None => {
                    let tmp = comm.alloc(p * count);
                    comm.copy_local(recvbuf, 0, tmp, 0, p * count).await?;
                    let r = ptcoll::alltoall(comm, tmp, recvbuf, count, lib.pt_proto(count)).await;
                    comm.free(tmp)?;
                    return r;
                }
            };
            ptcoll::alltoall(comm, sb, recvbuf, count, lib.pt_proto(count)).await
        }
    }
}

/// [`scatter_async`] on a blocking transport.
pub fn scatter<C: Comm + ?Sized>(
    comm: &mut C,
    lib: Library,
    tuner: &Tuner,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    count: usize,
    root: usize,
) -> Result<()> {
    let comm = &mut Blocking(comm);
    block_on(scatter_async(
        comm, lib, tuner, sendbuf, recvbuf, count, root,
    ))
}

/// [`gather_async`] on a blocking transport.
pub fn gather<C: Comm + ?Sized>(
    comm: &mut C,
    lib: Library,
    tuner: &Tuner,
    sendbuf: Option<BufId>,
    recvbuf: Option<BufId>,
    count: usize,
    root: usize,
) -> Result<()> {
    let comm = &mut Blocking(comm);
    block_on(gather_async(
        comm, lib, tuner, sendbuf, recvbuf, count, root,
    ))
}

/// [`bcast_async`] on a blocking transport.
pub fn bcast<C: Comm + ?Sized>(
    comm: &mut C,
    lib: Library,
    tuner: &Tuner,
    buf: BufId,
    count: usize,
    root: usize,
) -> Result<()> {
    block_on(bcast_async(
        &mut Blocking(comm),
        lib,
        tuner,
        buf,
        count,
        root,
    ))
}

/// [`allgather_async`] on a blocking transport.
pub fn allgather<C: Comm + ?Sized>(
    comm: &mut C,
    lib: Library,
    tuner: &Tuner,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
) -> Result<()> {
    let comm = &mut Blocking(comm);
    block_on(allgather_async(comm, lib, tuner, sendbuf, recvbuf, count))
}

/// [`alltoall_async`] on a blocking transport.
pub fn alltoall<C: Comm + ?Sized>(
    comm: &mut C,
    lib: Library,
    tuner: &Tuner,
    sendbuf: Option<BufId>,
    recvbuf: BufId,
    count: usize,
) -> Result<()> {
    let comm = &mut Blocking(comm);
    block_on(alltoall_async(comm, lib, tuner, sendbuf, recvbuf, count))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use kacc_collectives::verify::{
        alltoall_expected, alltoall_sendbuf, contribution, diff, gather_expected,
    };
    use kacc_machine::{run_polled_team, run_polled_team_phantom, PolledComm};
    use kacc_model::ArchProfile;

    const LIBS: [Library; 4] = [
        Library::Kacc,
        Library::Mvapich2,
        Library::IntelMpi,
        Library::OpenMpi,
    ];

    #[test]
    fn every_library_gathers_correctly() {
        let arch = ArchProfile::broadwell();
        for lib in LIBS {
            for count in [512usize, 40_000] {
                let (_, results) = run_polled_team(&arch, 8, move |me| async move {
                    let comm = &mut PolledComm::new(me);
                    let tuner = Tuner::new(&ArchProfile::broadwell());
                    let sb = comm.alloc_with(&contribution(me, count)).unwrap();
                    let rb = (me == 0).then(|| comm.alloc(8 * count));
                    gather_async(comm, lib, &tuner, Some(sb), rb, count, 0)
                        .await
                        .unwrap();
                    rb.map(|b| comm.read_all(b).unwrap()).unwrap_or_default()
                });
                if let Some(d) = diff(&results[0], &gather_expected(8, count)) {
                    panic!("{lib:?} count={count}: {d}");
                }
            }
        }
    }

    #[test]
    fn every_library_bcasts_correctly() {
        let arch = ArchProfile::broadwell();
        for lib in LIBS {
            let (_, results) = run_polled_team(&arch, 7, move |me| async move {
                let comm = &mut PolledComm::new(me);
                let tuner = Tuner::new(&ArchProfile::broadwell());
                let buf = if me == 2 {
                    comm.alloc_with(&contribution(2, 30_000)).unwrap()
                } else {
                    comm.alloc(30_000)
                };
                bcast_async(comm, lib, &tuner, buf, 30_000, 2)
                    .await
                    .unwrap();
                comm.read_all(buf).unwrap()
            });
            for got in &results {
                assert!(diff(got, &contribution(2, 30_000)).is_none(), "{lib:?}");
            }
        }
    }

    /// One point of the persona sweep on both kinds of heap: the two-copy
    /// persona's alltoall at 64 KiB (`Protocol::ShmCopy`, 56 bulk messages)
    /// takes the same virtual time, events and kernel traffic whether the
    /// messages carry bytes or lengths — and the bytes arrive.
    #[test]
    fn a_shm_copy_point_is_the_same_run_on_phantom_and_real_heaps() {
        const P: usize = 8;
        const COUNT: usize = 64 << 10;
        assert_eq!(Library::IntelMpi.pt_proto(COUNT), Protocol::ShmCopy);
        let body = |me| async move {
            let comm = &mut PolledComm::new(me);
            let tuner = Tuner::new(&ArchProfile::broadwell());
            let sb = comm.alloc_with(&alltoall_sendbuf(me, P, COUNT)).unwrap();
            let rb = comm.alloc(P * COUNT);
            alltoall_async(comm, Library::IntelMpi, &tuner, Some(sb), rb, COUNT)
                .await
                .unwrap();
            comm.read_all(rb).unwrap()
        };
        let arch = ArchProfile::broadwell();
        let (real_run, real) = run_polled_team(&arch, P, body);
        let (phantom_run, phantom) = run_polled_team_phantom(&arch, P, body);
        assert_eq!(real_run, phantom_run);
        assert_eq!(real_run.transport.shm_ops, (P * (P - 1)) as u64);
        for (r, got) in real.iter().enumerate() {
            if let Some(d) = diff(got, &alltoall_expected(r, P, COUNT)) {
                panic!("rank {r}: {d}");
            }
        }
        assert!(phantom.iter().all(|got| got == &vec![0u8; P * COUNT]));
    }

    #[test]
    fn proposed_design_beats_baselines_on_large_gather() {
        // Table VI's headline: the contention-aware design wins
        // large-message Gather on every architecture.
        for arch in [ArchProfile::knl(), ArchProfile::broadwell()] {
            let p = arch.default_procs.min(32);
            let count = 1 << 20;
            let mut lat = std::collections::HashMap::new();
            for lib in LIBS {
                let tuner_arch = arch.clone();
                let (run, _) = run_polled_team(&arch, p, move |me| {
                    let tuner = Tuner::new(&tuner_arch);
                    async move {
                        let comm = &mut PolledComm::new(me);
                        let sb = comm.alloc(count);
                        let rb = (me == 0).then(|| comm.alloc(p * count));
                        gather_async(comm, lib, &tuner, Some(sb), rb, count, 0)
                            .await
                            .unwrap();
                    }
                });
                lat.insert(lib, run.end_ns);
            }
            for lib in Library::baselines() {
                assert!(
                    lat[&Library::Kacc] < lat[&lib],
                    "{}: kacc {} !< {lib:?} {}",
                    arch.name,
                    lat[&Library::Kacc],
                    lat[&lib]
                );
            }
        }
    }
}
